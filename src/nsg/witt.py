"""Product expansions of integer series into powers of (1 - x^k).

Any integer power series f with constant term 1 factors uniquely as
``f = prod_k (1 - x^k)^(e_k)`` with integer exponents e_k. For a polynomial
:func:`witt_expand_moebius` computes them: it runs the Newton recursion for
the power sums of the inverse roots and Moebius-inverts them in one
divisor-sum sweep. That is the one route here; the tests hold it to an
independent oracle that eliminates one factor (1 - x^m) per degree,
directly following the uniqueness argument.

Applied to the semigroup polynomial this yields the cyclotomic exponent
sequence of a numerical semigroup. Whether that sequence has finite support
is decided from the same sweep: a product of cyclotomic polynomials has
exponents only at indices up to a bound fixed by its degree, so one sweep
that far reads off the whole support, and the cyclotomic multiplicities are
its sums over multiples.

Exponents grow exponentially for non-cyclotomic semigroups (they track the
inverse powers of the smallest root modulus), so every value here is an exact
Python integer and nothing here uses floating point. The tests hold that
growth to its root-modulus envelope with numpy, which the package does not
import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

from . import intpoly
from .arith import divisors, euler_phi
from .errors import BadConstantTermError, IntegralityError
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class ExponentSequence:
    """Exponents e_1..e_bound of the (1 - x^k)-product expansion."""

    entries: tuple[int, ...]
    bound: int

    def __post_init__(self):
        assert len(self.entries) == self.bound

    def __getitem__(self, j: int) -> int:
        """Entry e_j, 1-indexed; indices beyond the bound are an error."""
        if not 1 <= j <= self.bound:
            raise IndexError(f"index {j} outside 1..{self.bound}")
        return self.entries[j - 1]

    def __len__(self) -> int:
        return self.bound

    def __iter__(self):
        return iter(self.entries)

    def support(self) -> list[int]:
        return [j for j in range(1, self.bound + 1) if self.entries[j - 1] != 0]

    def to_json(self) -> list[str]:
        # decimal strings: entries outgrow the 53-bit float mantissa quickly
        return [str(e) for e in self.entries]

    def format(self) -> str:
        return ", ".join(str(e) for e in self.entries)


@dataclass(frozen=True)
class CyclotomicFactorization:
    """Whether a polynomial is a product of cyclotomic polynomials, and which.

    When ``complete``, the product of the recorded factors (indices n >= 2)
    equals the input exactly, and ``exponents`` is the whole, finite exponent
    support {j: e_j != 0} they were read from. An incomplete result records
    no factors and no exponents, not a greatest cyclotomic divisor.
    """

    factors: dict[int, int]
    complete: bool
    exponents: dict[int, int]


def _check_constant_term(coeffs: Sequence[int]) -> list[int]:
    coeffs = list(coeffs)
    if not coeffs or coeffs[0] != 1:
        raise BadConstantTermError("constant coefficient must be 1")
    return coeffs


def power_sums(poly: Sequence[int], count: int) -> list[int]:
    """Sums of the k-th powers of the inverse roots, k = 1..count.

    For ``f = 1 + a_1 x + ... + a_d x^d`` the values satisfy the Newton
    recursion ``s(k) + a_1 s(k-1) + ... + a_{k-1} s(1) + k a_k = 0`` and, past
    the degree, the linear recurrence with coefficients -a_1..-a_d. The
    recursion runs over the non-zero a_i only, so its cost per term is the
    number of terms of f, not its degree: semigroup polynomials are sparse,
    and the cyclotomic test runs it well past the degree.
    """
    coeffs = intpoly.trim(_check_constant_term(poly))
    d = len(coeffs) - 1
    terms = [(i, a) for i, a in enumerate(coeffs) if i and a]
    sums = [0]  # 1-indexed
    for k in range(1, count + 1):
        acc = k * coeffs[k] if k <= d else 0
        for i, a in terms:
            if i >= k:
                break
            acc += a * sums[k - i]
        sums.append(-acc)
    return sums[1:]


def witt_expand_moebius(poly: Sequence[int], bound: int) -> ExponentSequence:
    """Exponents of a polynomial via Moebius inversion of its power sums.

    Taking logarithmic derivatives of ``f = prod_k (1 - x^k)^(e_k)`` gives
    the divisor-sum identity ``s_f(n) = sum_{k | n} k * e_k``. One sweep
    inverts it in place: for k = 1, 2, ... the value left at k is k * e_k,
    and it is subtracted from every proper multiple of k. The division by k
    is exact by construction and checked.
    """
    sums = [0] + power_sums(poly, bound)  # 1-indexed
    entries = []
    for k in range(1, bound + 1):
        total = sums[k]
        if total % k != 0:
            raise IntegralityError(f"exponent sum {total} not divisible by {k}")
        entries.append(total // k)
        if total:
            for multiple in range(2 * k, bound + 1, k):
                sums[multiple] -= total
    return ExponentSequence(tuple(entries), bound)


def exponent_sequence(S: NumericalSemigroup, bound: int | None = None) -> ExponentSequence:
    """The cyclotomic exponent sequence of a numerical semigroup.

    Default truncation frobenius + 2*max(generators) + 1 covers every Betti
    element. The trivial semigroup has the all-zero sequence.
    """
    if bound is None:
        bound = S.default_bound
    return witt_expand_moebius(S.polynomial(), bound)


def cyclotomic_polynomial(n: int) -> list[int]:
    """The n-th cyclotomic polynomial via exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_cyclotomic(n))


@lru_cache(maxsize=256)  # above the 85 polynomials a ci-frobenius benchmark run holds
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    quotient = intpoly.sub([0] * n + [1], intpoly.ONE)  # x^n - 1
    for d in divisors(n):
        if d < n:
            quotient = intpoly.divexact(quotient, _cyclotomic(d))
    return tuple(quotient)


def _index_bound(deg: int) -> int:
    """A bound N such that phi(n) <= deg only for n <= N.

    ``n = phi(n) * prod p/(p-1)`` and ``phi(n) >= prod (p-1)`` over the primes
    p | n, both extreme on the first primes; so N = deg * prod p/(p-1) over
    the longest run of first primes with ``prod (p-1) <= deg``.
    """
    primes, phi_floor, p = [], 1, 2
    while True:
        if all(p % q for q in primes):
            if phi_floor * (p - 1) > deg:
                return deg * prod(primes) // phi_floor
            primes.append(p)
            phi_floor *= p - 1
        p += 1


def factor_into_cyclotomics(poly: Sequence[int]) -> CyclotomicFactorization:
    """Read the cyclotomic factors of a polynomial with f(0) = 1 off its exponents.

    If ``f = prod_n Phi_n^(h_n)``, each such n has phi(n) <= deg f, so n <= N =
    :func:`_index_bound` (deg f); as ``Phi_n = prod_{j | n} (1 - x^j)^(mu(n/j))``,
    every non-zero exponent e_j of f has j <= N too. So one sweep to N holds the
    whole support, and ``h_n = sum_{n | m <= N} e_m`` inverts the map. The
    result is complete only when every non-zero h_n is positive, their degrees
    add up to deg f and their product is f exactly.
    """
    coeffs = intpoly.trim(_check_constant_term(poly))
    if abs(coeffs[-1]) != 1:
        raise ValueError("polynomial must be monic up to sign")
    deg = len(coeffs) - 1
    bound = _index_bound(deg)
    entries = (0,) + witt_expand_moebius(coeffs, bound).entries  # 1-indexed
    factors = {n: h for n in range(2, bound + 1) if (h := sum(entries[n::n]))}
    positive = all(h > 0 for h in factors.values())
    if positive and deg == sum(h * euler_phi(n) for n, h in factors.items()):
        product = intpoly.ONE
        for n, h in factors.items():  # at most deg factors
            for _ in range(h):
                product = intpoly.mul(product, _cyclotomic(n))
        if product == coeffs:
            exponents = {j: e for j, e in enumerate(entries) if e}
            return CyclotomicFactorization(factors, True, exponents)
    return CyclotomicFactorization({}, False, {})


def cyclotomic_factorization(S: NumericalSemigroup) -> CyclotomicFactorization | None:
    """The cyclotomic part of the semigroup polynomial; None if S is not symmetric.

    A product of cyclotomic polynomials of index >= 2 is self-reciprocal, so
    non-symmetric semigroups are rejected before the factor search.
    """
    if not S.is_symmetric():
        return None
    return factor_into_cyclotomics(S.polynomial())


def is_cyclotomic(S: NumericalSemigroup) -> bool:
    """Whether the semigroup polynomial is a product of cyclotomic polynomials.

    Equivalent to the exponent sequence having finite support.
    """
    factorization = cyclotomic_factorization(S)
    return factorization is not None and factorization.complete
