"""Product expansions of integer series into powers of (1 - x^k).

Any integer power series f with constant term 1 factors uniquely as
``f = prod_k (1 - x^k)^(e_k)`` with integer exponents e_k. For
``f = (1 - x) * a(x) / (1 - x^m)``, a polynomial a and a period m (m = 1:
f = a), an :class:`ExponentSweep` computes them: it runs the Newton
recursion for the power sums of a's inverse roots, adds the known ones of
1 - x and 1 - x^m, and Moebius-inverts the sums in one divisor-sum sweep,
which extends on demand and never recomputes an entry. That is the one
route here; the tests hold it to an independent oracle that eliminates one
factor (1 - x^m) per degree, directly following the uniqueness argument.

Applied to a numerical semigroup S this yields its cyclotomic exponent
sequence, the exponents of the semigroup polynomial
``P = (1 - x) * sum_{s in S} x^s``. The Hilbert series of S is
``A(x) / (1 - x^m)`` for m the multiplicity and A the 0/1 polynomial of the
Apery set Ap(S, m) (Rosales & Garcia-Sanchez, *Numerical Semigroups*, 2009):
each s in S is w + j*m for exactly one w in Ap(S, m) and j >= 0. So
``P = (1 - x) * A(x) / (1 - x^m)``, and the sweep runs over A's m terms
instead of P's two per run of consecutive gaps. Whether the sequence has
finite support is settled as the sweep goes: from the degree on, the
cyclotomic multiplicities are its sums over multiples, and right signs and
degree prove their product equal to the polynomial; a power sum larger than
the degree refutes it. Cyclotomic products have exponents only up to an index N
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
from .errors import BadConstantTermError, IntegralityError, require_int
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
    """The exponents e_1, e_2, ... of f = (1 - x) * a / (1 - x^m), swept as far as asked.

    ``a`` is the numerator, a(0) = 1, and m >= 1 the period; f must be a
    polynomial, that is, (1 - x^m) divides (1 - x) * a. With m = 1, f is a.
    It keeps the power sums s(k) of a's inverse roots and the divisor sums
    partly inverted past the sweep, so it extends on demand and computes no
    entry twice. The power sums follow the Newton recursion
    ``s(k) + a_1 s(k-1) + ... + k a_k = 0`` (past the degree, the linear
    recurrence) over the non-zero a_i only. Power sums add over products
    and quotients, and the inverse roots of ``1 - x^j`` are the j-th roots
    of unity, whose n-th powers sum to j*[j | n]; so f's power sums are
    ``s_f(n) = s(n) + 1 - m*[m | n]``. That known part seeds the pending
    sums as their room grows (+1 at every index, -m at each multiple of m,
    nothing net when m = 1). As ``s_f(n) = sum_{k | n} k * e_k``, the value
    left at k is k * e_k, and it is subtracted from every later multiple of
    k; the division is checked.
    """

    def __init__(self, numerator: Sequence[int], period: int = 1):
        self.numerator = intpoly.trim(_check_constant_term(numerator))
        require_int(period, "period must be >= 1", 1)
        # (1 - x^m) | (1 - x) a iff a vanishes at every m-th root of unity but 1,
        # iff a's coefficient sums over the m residue classes are equal
        if len({sum(self.numerator[r::period]) for r in range(period)}) != 1:
            raise ValueError(f"1 - x^{period} does not divide (1 - x) times the numerator")
        self.period = period
        self.degree = len(self.numerator) - period  # of f: deg a + 1 - m
        self._terms = [(i, a) for i, a in enumerate(self.numerator) if i and a]
        self.sums, self.entries = [0], [0]  # a's s(k) and f's e_k at index k
        self._pending = [0]  # s_f(n) - s(n) minus k * e_k of the swept proper divisors k of n

    @classmethod
    def of_semigroup(cls, S: NumericalSemigroup) -> "ExponentSweep":
        """The sweep of S's polynomial P = (1 - x) * A / (1 - x^m), from its Apery numerator.

        A has a 1 at each element of Ap(S, m), m the multiplicity: m terms,
        degree frobenius + m. It reads S's membership bits only.
        """
        m = S.multiplicity
        numerator = [0] * (S.frobenius + m + 1)
        for w in S.apery_set(m):
            numerator[w] = 1
        return cls(numerator, m)

    def extend(self, bound: int, limit: int | None = None) -> None:
        """Sweep on to e_bound, keeping every entry already swept.

        With a ``limit``, stop early after the first entry k whose power sum
        of f, ``s_f(k) = s(k) + 1 - m*[m | k]``, exceeds it in absolute value.
        """
        sums, entries, pending, m = self.sums, self.entries, self._pending, self.period
        if bound >= len(pending):  # room past the sweep: at least double
            start, size = len(pending), max(bound + 1, 2 * len(pending))
            pending.extend([1 - m if n % m == 0 else 1 for n in range(start, size)])
            for k, e in enumerate(entries):
                if e:
                    for multiple in range(-(-start // k) * k, size, k):
                        pending[multiple] -= k * e
        numerator, d, terms = self.numerator, len(self.numerator) - 1, self._terms
        for k in range(len(entries), bound + 1):
            acc = k * numerator[k] if k <= d else 0
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
            if limit is not None and abs(1 - acc - (m if k % m == 0 else 0)) > limit:
                break

    def prefix(self, bound: int) -> ExponentSequence:
        """e_1..e_bound, for an int bound >= 0."""
        require_int(bound, "bound must be an int >= 0", 0)
        self.extend(bound)
        return ExponentSequence(tuple(self.entries[1 : bound + 1]), bound)

    def cyclotomic_factors(self) -> CyclotomicFactorization:
        """The cyclotomic factors of f, swept until they are settled and no further.

        With ``h_n = sum_{n | j <= k} e_j``, e_1..e_k prove f cyclotomic when
        k >= deg f, h_1 = 0, every non-zero h_n is positive and
        ``sum h_n * phi(n) = deg f``: as ``Phi_n = prod_{j | n} (1 -
        x^j)^(mu(n/j))``, ``g = prod_n Phi_n^(h_n)`` has exactly the exponents
        e_1..e_k and none above k, so g = f mod x^(k+1), and both have degree
        deg f <= k. As ``sum_{n | j} phi(n) = j``, the degree sum is
        ``sum_{j <= k} j * e_j``; with h_1 it costs O(1) per entry, and the h_n
        are summed only where h_1 = 0 and it is deg f. A power sum ``|s_f(k)| > deg f``
        refutes, as roots of unity cannot give it. So does k = N =
        :func:`_index_bound` (deg f) uncertified: each Phi_n of a cyclotomic f
        has phi(n) <= deg f, so n <= N. No certificate holds below deg f, so
        the sweep runs there in one call that stops at a refuting power sum,
        and on from there one entry at a time.
        """
        if abs(self.numerator[-1]) != 1:  # f's leading coefficient
            raise ValueError("polynomial must be monic up to sign")
        deg, top, m = self.degree, _index_bound(self.degree), self.period
        sums, entries = self.sums, self.entries
        self.extend(deg - 1, deg)
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
            if abs(sums[k] + 1 - (m if k % m == 0 else 0)) > deg:
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
    return ExponentSweep.of_semigroup(S).prefix(bound)


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
    return S.is_symmetric() and ExponentSweep.of_semigroup(S).cyclotomic_factors().complete
