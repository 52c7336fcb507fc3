"""Product expansions of integer series into powers of (1 - x^k).

Any integer power series f with constant term 1 factors uniquely as
``f = prod_k (1 - x^k)^(e_k)`` with integer exponents e_k. For a polynomial
an :class:`ExponentSweep` computes them: it runs the Newton recursion for
the power sums of the inverse roots and Moebius-inverts them in one
divisor-sum sweep, which extends on demand and never recomputes an entry.
That is the one route here; the tests hold it to an independent oracle that
eliminates one factor (1 - x^m) per degree, directly following the
uniqueness argument.

Applied to the semigroup polynomial this yields the cyclotomic exponent
sequence of a numerical semigroup. Whether that sequence has finite support
is settled as the sweep goes: from the degree on, the cyclotomic
multiplicities are its sums over multiples, and right signs and degree
prove their product equal to the polynomial; a power sum larger than the
degree refutes it. Cyclotomic products have exponents only up to an index N
fixed by the degree, so the sweep stops by N at the latest.

Exponents grow exponentially for non-cyclotomic semigroups (they track the
inverse powers of the smallest root modulus), so every value here is an exact
Python integer and nothing here uses floating point. The tests hold that
growth to its root-modulus envelope with numpy, which the package does not
import.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import NamedTuple, Sequence

from . import intpoly
from .arith import divisors
from .errors import BadConstantTermError, IntegralityError
from .records import FrozenRecord
from .semigroup import NumericalSemigroup


class ExponentSequence(FrozenRecord):
    """Exponents e_1..e_bound of the (1 - x^k)-product expansion."""

    __slots__ = ("entries", "bound")

    def __init__(self, entries: tuple[int, ...], bound: int):
        assert len(entries) == bound
        self._init(entries, bound)

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


class CyclotomicFactorization(NamedTuple):
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


class ExponentSweep:
    """The exponents e_1, e_2, ... of one polynomial f, f(0) = 1, swept as far as asked.

    It keeps the power sums s(k) of the inverse roots and the divisor sums
    partly inverted past the sweep, so it extends on demand and computes no
    entry twice. The power sums follow the Newton recursion
    ``s(k) + a_1 s(k-1) + ... + k a_k = 0`` (past the degree, the linear
    recurrence) over the non-zero a_i only: semigroup polynomials are sparse.
    As ``s(n) = sum_{k | n} k * e_k``, the value left at k is k * e_k, and it
    is subtracted from every later multiple of k; the division is checked.
    """

    def __init__(self, poly: Sequence[int]):
        self.coeffs = intpoly.trim(_check_constant_term(poly))
        self.degree = len(self.coeffs) - 1
        self._terms = [(i, a) for i, a in enumerate(self.coeffs) if i and a]
        self.sums, self.entries = [0], [0]  # s(k) and e_k at index k
        self._pending = [0]  # minus k * e_k of the swept proper divisors k of each index

    def extend(self, bound: int) -> None:
        """Sweep on to e_bound, keeping every entry already swept."""
        sums, entries, pending = self.sums, self.entries, self._pending
        if bound >= len(pending):  # room past the sweep: at least double
            start, size = len(pending), max(bound + 1, 2 * len(pending))
            pending.extend([0] * (size - start))
            for k, e in enumerate(entries):
                if e:
                    for multiple in range(-(-start // k) * k, size, k):
                        pending[multiple] -= k * e
        coeffs, d, terms = self.coeffs, self.degree, self._terms
        for k in range(len(entries), bound + 1):
            acc = k * coeffs[k] if k <= d else 0
            for i, a in terms:
                if i >= k:
                    break
                acc += a * sums[k - i]
            sums.append(-acc)
            total = pending[k] - acc
            if total % k != 0:
                raise IntegralityError(f"exponent sum {total} not divisible by {k}")
            entries.append(total // k)
            if total:
                for multiple in range(2 * k, len(pending), k):
                    pending[multiple] -= total

    def prefix(self, bound: int) -> ExponentSequence:
        """e_1..e_bound."""
        self.extend(bound)
        return ExponentSequence(tuple(self.entries[1 : bound + 1]), bound)

    def cyclotomic_factors(self) -> CyclotomicFactorization:
        """The cyclotomic factors of f, swept one entry at a time until they are settled.

        With ``h_n = sum_{n | m <= k} e_m``, e_1..e_k prove f cyclotomic when
        k >= deg f, h_1 = 0, every non-zero h_n is positive and
        ``sum h_n * phi(n) = deg f``: as ``Phi_n = prod_{j | n} (1 -
        x^j)^(mu(n/j))``, ``g = prod_n Phi_n^(h_n)`` has exactly the exponents
        e_1..e_k and none above k, so g = f mod x^(k+1), and both have degree
        deg f <= k. As ``sum_{n | m} phi(n) = m``, the degree sum is
        ``sum_{m <= k} m * e_m``; with h_1 it costs O(1) per entry, and the h_n
        are summed only where h_1 = 0 and it is deg f. A power sum ``|s(k)| > deg f``
        refutes, as roots of unity cannot give it. So does k = N =
        :func:`_index_bound` (deg f) uncertified: each Phi_n of a cyclotomic f
        has phi(n) <= deg f, so n <= N.
        """
        if abs(self.coeffs[-1]) != 1:
            raise ValueError("polynomial must be monic up to sign")
        deg, top = self.degree, _index_bound(self.degree)
        sums, entries = self.sums, self.entries
        k = h_1 = weight = 0
        while True:
            if k >= deg and h_1 == 0 and weight == deg:
                factors = {n: h for n in range(2, k + 1) if (h := sum(entries[n : k + 1 : n]))}
                if all(h > 0 for h in factors.values()):
                    exponents = {j: e for j, e in enumerate(entries[: k + 1]) if e}
                    return CyclotomicFactorization(factors, True, exponents)
            if k == top:
                break
            k += 1
            if k == len(entries):
                self.extend(k)
            if abs(sums[k]) > deg:
                break
            h_1 += entries[k]
            weight += k * entries[k]
        return CyclotomicFactorization({}, False, {})


def exponent_sequence(S: NumericalSemigroup, bound: int | None = None) -> ExponentSequence:
    """The cyclotomic exponent sequence of a numerical semigroup.

    Default truncation frobenius + 2*max(generators) + 1 covers every Betti
    element. The trivial semigroup has the all-zero sequence.
    """
    if bound is None:
        bound = S.default_bound
    return ExponentSweep(S.polynomial()).prefix(bound)


def cyclotomic_polynomial(n: int) -> list[int]:
    """The n-th cyclotomic polynomial via exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_cyclotomic(n))


@lru_cache(maxsize=256)  # serves cyclotomic_polynomial only; the factor reading builds none
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
    """The cyclotomic factors of f, f(0) = 1; see :meth:`ExponentSweep.cyclotomic_factors`."""
    return ExponentSweep(poly).cyclotomic_factors()


def is_cyclotomic(S: NumericalSemigroup) -> bool:
    """Whether the semigroup polynomial is a product of cyclotomic polynomials.

    Equivalent to the exponent sequence having finite support. A product of
    cyclotomic polynomials of index >= 2 is self-reciprocal, so a
    non-symmetric semigroup is rejected before the factor search.
    """
    return S.is_symmetric() and factor_into_cyclotomics(S.polynomial()).complete
