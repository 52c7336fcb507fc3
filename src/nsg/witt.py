"""Product expansions of integer series into powers of (1 - x^k).

Any integer power series f with constant term 1 factors uniquely as
``f = prod_k (1 - x^k)^(e_k)`` with integer exponents e_k. Two independent
routes compute the exponents:

* :func:`witt_expand_iterative` eliminates one factor per degree, directly
  following the uniqueness argument;
* :func:`witt_expand_moebius` runs the Newton recursion for the power sums of
  the inverse roots and Moebius-inverts them, which is much faster for
  polynomial input.

Applied to the semigroup polynomial this yields the cyclotomic exponent
sequence of a numerical semigroup; the remaining operations decide whether
that sequence has finite support by factoring the polynomial into cyclotomic
polynomials.

Exponents grow exponentially for non-cyclotomic semigroups (they track the
inverse powers of the smallest root modulus), so every value here is an exact
Python integer; floating point appears only in the root-modulus estimates of
:func:`growth_envelope_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import intpoly
from .arith import divisor_count, divisors, euler_phi, mobius
from .errors import BadConstantTermError, IntegralityError, RootSeparationError
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
    """Multiplicities of the cyclotomic polynomials dividing a polynomial.

    ``complete`` means the product of the recorded factors equals the input
    exactly; the index 1 never appears.
    """

    factors: dict[int, int]
    complete: bool


def _check_constant_term(coeffs: Sequence[int]) -> list[int]:
    coeffs = list(coeffs)
    if not coeffs or coeffs[0] != 1:
        raise BadConstantTermError("constant coefficient must be 1")
    return coeffs


def witt_expand_iterative(prefix: Sequence[int], bound: int | None = None) -> ExponentSequence:
    """Expand a series prefix by successive elimination.

    Maintains ``h = f * prod_{k<=m} (1 - x^k)^(-e_k)``; at step m the series
    h is congruent to ``1 - e_m x^m`` modulo ``x^(m+1)``, which reads off e_m.
    """
    coeffs = _check_constant_term(prefix)
    if bound is None:
        bound = len(coeffs) - 1
    if bound > len(coeffs) - 1:
        raise ValueError(f"bound {bound} exceeds prefix length {len(coeffs) - 1}")
    h = coeffs[: bound + 1] + [0] * (bound + 1 - len(coeffs))
    entries = []
    for m in range(1, bound + 1):
        e = -h[m]
        entries.append(e)
        if e:
            h = intpoly.mul_one_minus_xk_pow(h, m, -e, bound)
    return ExponentSequence(tuple(entries), bound)


def power_sums(poly: Sequence[int], count: int) -> list[int]:
    """Sums of the k-th powers of the inverse roots, k = 1..count.

    For ``f = 1 + a_1 x + ... + a_d x^d`` the values satisfy the Newton
    recursion ``s(k) + a_1 s(k-1) + ... + a_{k-1} s(1) + k a_k = 0`` and, past
    the degree, the linear recurrence with coefficients -a_1..-a_d.
    """
    coeffs = intpoly.trim(_check_constant_term(poly))
    d = len(coeffs) - 1
    sums: list[int] = []
    for k in range(1, count + 1):
        acc = k * coeffs[k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += coeffs[i] * sums[k - i - 1]
        sums.append(-acc)
    return sums


def witt_expand_moebius(poly: Sequence[int], bound: int) -> ExponentSequence:
    """Exponents of a polynomial via Moebius inversion of its power sums.

    ``e_f(k) = (1/k) * sum_{j | k} s_f(j) mu(k/j)``; the division is exact by
    construction and asserted.
    """
    sums = power_sums(poly, bound)
    entries = []
    for k in range(1, bound + 1):
        total = sum(sums[j - 1] * mobius(k // j) for j in divisors(k))
        if total % k != 0:
            raise IntegralityError(f"exponent sum {total} not divisible by {k}")
        entries.append(total // k)
    return ExponentSequence(tuple(entries), bound)


def exponent_sequence(S: NumericalSemigroup, bound: int | None = None) -> ExponentSequence:
    """The cyclotomic exponent sequence of a numerical semigroup.

    Default truncation frobenius + 2*max(generators) + 1 covers every Betti
    element. The trivial semigroup has the all-zero sequence.
    """
    if bound is None:
        bound = S.default_bound
    return witt_expand_moebius(S.polynomial(), bound)


def reconstruct_prefix(entries: Sequence[int], bound: int) -> list[int]:
    """Prefix of ``prod_k (1 - x^k)^(e_k)``, inverse of the expansions."""
    prefix = [1] + [0] * bound
    for k, e in enumerate(entries, start=1):
        if k > bound:
            break
        if e:
            prefix = intpoly.mul_one_minus_xk_pow(prefix, k, e, bound)
    return prefix


def cyclotomic_polynomial(n: int) -> list[int]:
    """The n-th cyclotomic polynomial via exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_cyclotomic(n))


@lru_cache(maxsize=256)  # above the 137 polynomials a ci-frobenius benchmark run holds
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    quotient = intpoly.sub([0] * n + [1], intpoly.ONE)  # x^n - 1
    for d in divisors(n):
        if d < n:
            quotient = intpoly.divexact(quotient, _cyclotomic(d))
    return tuple(quotient)


def factor_into_cyclotomics(poly: Sequence[int]) -> CyclotomicFactorization:
    """Greatest cyclotomic divisor of a monic-up-to-sign polynomial with f(0)=1.

    Cyclotomic polynomials are irreducible and pairwise coprime, so greedy
    exact division finds the full cyclotomic part. Candidate indices d need
    phi(d) <= deg f, which confines the search to d <= 2 * (deg f)^2 because
    phi(d) >= sqrt(d/2).
    """
    coeffs = intpoly.trim(_check_constant_term(poly))
    if abs(coeffs[-1]) != 1:
        raise ValueError("polynomial must be monic up to sign")
    remaining = coeffs
    factors: dict[int, int] = {}
    cap = 2 * (len(coeffs) - 1) ** 2
    for d in range(2, cap + 1):
        deg_left = len(remaining) - 1
        if deg_left == 0:
            break
        if euler_phi(d) > deg_left:
            continue
        phi_d = cyclotomic_polynomial(d)
        while intpoly.divides(phi_d, remaining):
            remaining = intpoly.divexact(remaining, phi_d)
            factors[d] = factors.get(d, 0) + 1
    return CyclotomicFactorization(factors, complete=remaining == intpoly.ONE)


def exponents_from_cyclotomic_factors(factors: dict[int, int]) -> dict[int, int]:
    """Full exponent support of ``prod_d Phi_d^(h_d)``.

    Uses ``Phi_d = prod_{j | d} (1 - x^j)^(mu(d/j))`` for d >= 2, giving
    ``e_j = sum_{j | d} h_d * mu(d/j)``; only non-zero entries are returned.
    """
    exponents: dict[int, int] = {}
    for d, multiplicity in factors.items():
        for j in divisors(d):
            exponents[j] = exponents.get(j, 0) + multiplicity * mobius(d // j)
    return {j: e for j, e in sorted(exponents.items()) if e != 0}


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


def necklace_coefficient(alpha: int, k: int) -> int:
    """``(1/k) * sum_{j | k} mu(k/j) alpha^j``, the expansion exponents of 1 - alpha*x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = sum(mobius(k // j) * alpha**j for j in divisors(k))
    if total % k != 0:
        raise IntegralityError(f"necklace sum {total} not divisible by {k}")
    return total // k


@dataclass(frozen=True)
class GrowthCheck:
    k: int
    passed: bool
    deviation: float
    allowance: float


@dataclass(frozen=True)
class GrowthReport:
    checks: tuple[GrowthCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


_SEPARATION_TOL = 1e-9


def growth_envelope_check(poly: Sequence[int], ks: Sequence[int]) -> GrowthReport:
    """Verify the divisor-bounded envelope around e_f(k).

    With the roots ordered by modulus and |alpha_1| < |alpha_2|, the exponent
    e_f(k) stays within ``(d(k)/k) * (|alpha_1|^(-k/2) + deg(f)*|alpha_2|^(-k))``
    of the main term ``alpha_1^(-k)/k``; for linear f the alpha_2 term drops.
    Exponents are exact; only the root moduli are floating point.
    """
    try:
        import numpy as np  # only needed here; importing nsg stays numpy-free
    except ImportError as exc:
        raise ImportError(
            "growth_envelope_check needs numpy; install the nsg[growth] extra"
        ) from exc

    coeffs = intpoly.trim(_check_constant_term(poly))
    deg = len(coeffs) - 1
    if deg == 0:
        raise ValueError("need a non-constant polynomial")
    roots = sorted(np.roots(list(reversed(coeffs))), key=abs)
    r1 = abs(roots[0])
    if deg >= 2:
        r2 = abs(roots[1])
        if r2 - r1 <= _SEPARATION_TOL:
            raise RootSeparationError(
                f"smallest root moduli {r1!r} and {r2!r} are not separated"
            )
    alpha1 = roots[0].real  # strict modulus gap forces a real smallest root
    entries = witt_expand_moebius(coeffs, max(ks))
    checks = []
    for k in ks:
        deviation = abs(entries[k] - alpha1 ** (-k) / k)
        allowance = divisor_count(k) / k * (r1 ** (-k / 2) + (deg * abs(roots[1]) ** (-k) if deg >= 2 else 0.0))
        checks.append(GrowthCheck(k, deviation <= allowance, deviation, allowance))
    return GrowthReport(tuple(checks))
