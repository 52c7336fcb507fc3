"""Membership, polynomial, series and factorization oracles shared by several test files.

None of these is on a route ``nsg`` takes to a verdict: they rebuild series
from exponents, build semigroups by closure and state properties in their
textbook form, so the tests can check the package's one route against them.
:func:`semigroup_from_gaps` closes a gap set's complement: the oracle for the
tree path that ``NumericalSemigroup.from_gaps`` walks by ``remove_generator``.
A polynomial or series prefix is a ``list[int]`` indexed by degree, as in
:mod:`nsg.intpoly`; a series prefix has the fixed length ``bound + 1``.

The factorization listings at the end (minimal presentations, restricted
factorizations) are no second route to anything the package computes: they
are the objects the paper's lemmas speak about, listed vector by vector from
:func:`nsg.factorization.factorization_graph` so the tests can state those
lemmas (Rosales & García-Sánchez, *Numerical Semigroups*, 2009, ch. 7).
"""

from math import gcd

from nsg import NumericalSemigroup
from nsg.arith import prime_factors
from nsg.factorization import betti_elements, denumerant_series, factorization_graph, factorizations
from nsg.intpoly import divexact, trim


def reachable_sums(values, limit: int) -> set[int]:
    """Every sum of elements of ``values`` up to ``limit``, 0 (the empty sum) included.

    A graph search from 0 along the edges n -> n + v, one per v in ``values``.
    """
    reached, todo = {0}, [0]
    while todo:
        n = todo.pop()
        for v in values:
            if n + v <= limit and n + v not in reached:
                reached.add(n + v)
                todo.append(n + v)
    return reached


def monoid_by_reachability(values) -> tuple[list[bool], int, tuple[int, ...]]:
    """(membership of 0..F, F, minimal generators) of the monoid ``values`` span, gcd 1.

    Brauer's bound (1942) caps F: with d_i the gcd of the first i values,
    ascending, F <= sum over i >= 2 of a_i * d_(i-1) / d_i, minus the sum
    of every a_i. So the sums up to that or max(values), whichever is
    larger, decide F and every generator: a value is a minimal generator
    iff it is no sum of two non-zero members.
    """
    values = sorted(set(values))
    limit, d = -values[0], values[0]
    for v in values[1:]:
        e = gcd(d, v)
        limit += v * (d // e) - v
        d = e
    limit = max(limit, values[-1])
    members = reachable_sums(values, limit)
    frobenius = max((n for n in range(limit + 1) if n not in members), default=-1)
    generators = tuple(
        v for v in values if not any(a in members and v - a in members for a in range(1, v))
    )
    return [n in members for n in range(frobenius + 1)], frobenius, generators


def semigroup_from_gaps(gaps) -> NumericalSemigroup:
    """The semigroup whose gap set is exactly ``gaps``, by closure of its complement.

    Each gap g is tested against every split a + (g - a), ascending in g and
    then in a, and the first split into two members is a ValueError; the
    members up to 2F + 1 then go to the constructor. It shares no step with
    the tree path that ``NumericalSemigroup.from_gaps`` walks.
    """
    gap_set = frozenset(gaps)
    if not gap_set:
        return NumericalSemigroup(1)
    if min(gap_set) < 1:
        raise ValueError("gaps must be positive")
    frobenius = max(gap_set)
    member = [i not in gap_set for i in range(frobenius + 1)]
    for g in sorted(gap_set):
        for a in range(1, g // 2 + 1):
            if member[a] and member[g - a]:
                raise ValueError(f"complement not closed: {a} + {g - a} = {g} is a gap")
    # past F + m every member is a sum ending in m, so the members up to
    # 2F + 1 generate the complement; the constructor keeps the minimal ones
    members = [n for n in range(1, 2 * frobenius + 2) if n > frobenius or member[n]]
    return NumericalSemigroup(members)


def degree(poly: list[int]) -> int:
    """Degree of a polynomial; the zero polynomial has degree -1."""
    return len(trim(poly)) - 1


def euler_phi(n: int) -> int:
    """Euler's phi, ``n * prod (1 - 1/p)`` over the primes p | n."""
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two polynomials, trimmed."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def evaluate(poly: list[int], x: int) -> int:
    result = 0
    for c in reversed(poly):
        result = result * x + c
    return result


def is_self_reciprocal(poly: list[int]) -> bool:
    poly = trim(poly)
    return poly == poly[::-1]


def mul_trunc(a: list[int], b: list[int], bound: int) -> list[int]:
    """Product of two series prefixes, truncated to degree <= bound."""
    out = [0] * (bound + 1)
    for i, ca in enumerate(a[: bound + 1]):
        if ca:
            top = bound - i
            for j, cb in enumerate(b[: top + 1]):
                if cb:
                    out[i + j] += ca * cb
    return out


def binomial_series(exponent: int, k: int, bound: int) -> list[int]:
    """Prefix of (1 - x^k)^exponent for any integer exponent, exact.

    Negative exponents expand into the binomial series with non-negative
    coefficients C(-exponent + j - 1, j).
    """
    out = [0] * (bound + 1)
    out[0] = 1
    coefficient = 1
    j = 0
    if exponent >= 0:
        while (j + 1) * k <= bound and j < exponent:
            # next coefficient of (1 - y)^e: (-1)^(j+1) C(e, j+1)
            coefficient = -coefficient * (exponent - j) // (j + 1)
            j += 1
            out[j * k] = coefficient
    else:
        e = -exponent
        while (j + 1) * k <= bound:
            coefficient = coefficient * (e + j) // (j + 1)
            j += 1
            out[j * k] = coefficient
    return out


def mul_one_minus_xk_pow(series: list[int], k: int, exponent: int, bound: int) -> list[int]:
    """series * (1 - x^k)^exponent truncated at degree bound."""
    if exponent == 0:
        return series[: bound + 1] + [0] * (bound + 1 - len(series))
    return mul_trunc(series, binomial_series(exponent, k, bound), bound)


def elements_up_to(S, bound: int) -> list[int]:
    """All members n of S with 0 <= n <= bound, ascending."""
    return [n for n in range(bound + 1) if n in S]


def hilbert_prefix(S, bound: int) -> list[int]:
    """Coefficients 0..bound of the generating series of membership of S."""
    assert bound >= 0
    return [1 if n in S else 0 for n in range(bound + 1)]


def semigroup_polynomial(S) -> list[int]:
    """The semigroup polynomial ``(1 - x) * sum_{s in S} x^s`` from S's gaps.

    Monic of degree frobenius + 1, equivalently
    ``1 + (x - 1) * sum_{g gap} x^g``; evaluates to 1 at x = 1. The package
    sweeps exponents from the Apery numerator instead
    (:meth:`nsg.witt.ExponentSweep.of_semigroup`).
    """
    coeffs = [0] * (S.frobenius + 2)
    coeffs[0] = 1
    for g in S.gaps:
        coeffs[g + 1] += 1
        coeffs[g] -= 1
    return coeffs


def sweep_polynomial(sweep) -> list[int]:
    """The polynomial f = (1 - x) * numerator / (1 - x^period) an ExponentSweep expands.

    By exact division, so a sweep whose f is no polynomial fails here.
    """
    one_minus_xm = [1] + [0] * (sweep.period - 1) + [-1]
    return divexact(mul([1, -1], sweep.numerator), one_minus_xm)


def minimal_presentation(S) -> dict[int, tuple]:
    """One minimal presentation: Betti element -> its chained pairs of factorizations.

    Per Betti element the lexicographically largest factorization of each
    R-class represents it, and the representatives are chained in order.
    Any other choice would also be minimal; this one is fixed.
    """
    presentation = {}
    for b in betti_elements(S):
        graph = factorization_graph(S, b)
        representatives = [graph.vertices[cls[0]] for cls in graph.r_classes]
        presentation[b] = tuple(zip(representatives, representatives[1:]))
    return presentation


def restricted_factorizations(S, s: int, restriction) -> list[tuple[int, ...]]:
    """Factorizations of s splitting as w + x_1 + ... + x_l.

    Here w is the unique factorization of its value and each x_i is an
    isolated factorization of an element of ``restriction``, each of which
    must be a Betti element with an isolated factorization. With an empty
    restriction the result is all of Z(s) when s factors uniquely, else
    empty.
    """
    assert s in S, s
    pool = []
    for b in sorted(set(restriction)):
        assert b in S, b
        graph = factorization_graph(S, b)
        isolated = graph.isolated()
        assert graph.n_classes >= 2 and isolated, b
        pool.extend(isolated)

    gens = S.generators
    counts = denumerant_series(S, s)
    memo = {}

    def decomposes(z):
        if z not in memo:
            value = sum(e * g for e, g in zip(z, gens))
            memo[z] = counts[value] == 1 or any(
                all(a >= b for a, b in zip(z, x)) and decomposes(tuple(a - b for a, b in zip(z, x)))
                for x in pool
            )
        return memo[z]

    return [z for z in factorizations(S, s) if decomposes(z)]
