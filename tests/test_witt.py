import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nsg import (
    BadConstantTermError,
    NumericalSemigroup,
    ci_with_frobenius,
    cyclotomic_polynomial,
    enumerate_by_frobenius,
    enumerate_by_genus,
    exponent_sequence,
    factor_into_cyclotomics,
    is_cyclotomic,
)
from nsg import CyclotomicFactorization, ExponentSequence, SemigroupAnalysis, intpoly
from nsg.arith import divisors, mobius
from nsg.witt import ExponentSweep, _check_constant_term, _index_bound

from expected import EXPONENTS_3_5_7, EXPONENTS_4_6_9_18
from oracles import (
    cyclotomic_by_division,
    degree,
    euler_phi,
    evaluate,
    mul,
    mul_one_minus_xk_pow,
    semigroup_polynomial,
    sweep_polynomial,
)


def sweep_sums(poly, count):
    """The power sums s(1)..s(count) of the inverse roots, as an ExponentSweep keeps them."""
    sweep = ExponentSweep(poly)
    sweep.extend(count)
    return sweep.sums[1:]


def witt_expand_iterative(prefix, bound=None):
    """The oracle: expand a series prefix by successive elimination.

    Maintains ``h = f * prod_{k<=m} (1 - x^k)^(-e_k)``; at step m the series
    h is congruent to ``1 - e_m x^m`` modulo ``x^(m+1)``, which reads off e_m.
    Independent of the power sums and the divisor sweep of
    :class:`ExponentSweep`.
    """
    coeffs = _check_constant_term(prefix)
    if bound is None:
        bound = len(coeffs) - 1
    if bound > len(coeffs) - 1:
        raise ValueError(f"bound {bound} exceeds prefix length {len(coeffs) - 1}")
    h = coeffs[: bound + 1]
    entries = []
    for m in range(1, bound + 1):
        e = -h[m]
        entries.append(e)
        if e:
            h = mul_one_minus_xk_pow(h, m, -e, bound)
    return ExponentSequence(tuple(entries), bound)


def reconstruct_prefix(entries, bound):
    """The inverse of the expansions: the prefix of ``prod_k (1 - x^k)^(e_k)``."""
    prefix = [1] + [0] * bound
    for k, e in enumerate(entries[:bound], start=1):
        if e:
            prefix = mul_one_minus_xk_pow(prefix, k, e, bound)
    return prefix


def necklace_coefficient(alpha, k):
    """``(1/k) * sum_{j | k} mu(k/j) alpha^j``, the expansion exponents of 1 - alpha*x."""
    total = sum(mobius(k // j) * alpha**j for j in divisors(k))
    assert total % k == 0, f"necklace sum {total} not divisible by {k}"
    return total // k


def assert_growth_envelope(poly, ks):
    """Hold e_f(k) to the divisor-bounded envelope around its main term.

    With the roots ordered by modulus and |alpha_1| < |alpha_2|, the exponent
    e_f(k) stays within ``(d(k)/k) * (|alpha_1|^(-k/2) + deg(f)*|alpha_2|^(-k))``
    of the main term ``alpha_1^(-k)/k``; for linear f the alpha_2 term drops.
    Exponents are exact; only the root moduli are floating point.
    """
    import numpy as np  # the one floating-point oracle; nsg itself never imports numpy

    coeffs = intpoly.trim(_check_constant_term(poly))
    deg = len(coeffs) - 1
    assert deg >= 1, "need a non-constant polynomial"
    roots = sorted(np.roots(list(reversed(coeffs))), key=abs)
    r1 = abs(roots[0])
    if deg >= 2:
        r2 = abs(roots[1])
        assert r2 - r1 > 1e-9, f"smallest root moduli {r1!r} and {r2!r} are not separated"
    alpha1 = roots[0].real  # strict modulus gap forces a real smallest root
    entries = ExponentSweep(coeffs).prefix(max(ks))
    for k in ks:
        deviation = abs(entries[k] - alpha1 ** (-k) / k)
        second = deg * r2 ** (-k) if deg >= 2 else 0.0
        allowance = len(divisors(k)) / k * (r1 ** (-k / 2) + second)
        assert deviation <= allowance, (k, deviation, allowance)


cached_cyclotomic = functools.cache(cyclotomic_polynomial)  # the oracle asks for each Phi_d often


def trial_division_factors(poly):
    """The oracle: the greatest cyclotomic divisor, by greedy trial division.

    Cyclotomic polynomials are irreducible and pairwise coprime, so dividing
    out each Phi_d in turn finds the whole cyclotomic part. A factor Phi_d of
    what is left needs phi(d) <= its degree, and phi(d) >= sqrt(d/2), so the
    scan stops at d = 2 * (degree left)^2. Returns (factors, complete).
    Independent of the exponent sweep.
    """
    remaining = intpoly.trim(list(poly))
    factors = {}
    d = 2
    while d <= 2 * (len(remaining) - 1) ** 2:
        if euler_phi(d) <= len(remaining) - 1:
            phi_d = cached_cyclotomic(d)
            while intpoly.divides(phi_d, remaining):
                remaining = intpoly.divexact(remaining, phi_d)
                factors[d] = factors.get(d, 0) + 1
        d += 1
    return factors, remaining == [1]


def exponents_of_cyclotomic_product(factors):
    """The oracle: full exponent support of ``prod_d Phi_d^(h_d)``.

    ``Phi_d = prod_{j | d} (1 - x^j)^(mu(d/j))`` gives
    ``e_j = sum_{j | d} h_d * mu(d/j)``; only non-zero entries are returned.
    """
    exponents = {}
    for d, multiplicity in factors.items():
        for j in divisors(d):
            exponents[j] = exponents.get(j, 0) + multiplicity * mobius(d // j)
    return {j: e for j, e in sorted(exponents.items()) if e != 0}


def settled_at(poly, result):
    """Where the sweep settles the factors: the top of a finite support, else the first refutation.

    A certificate at k would make the exponents above k zero, so it cannot
    hold below the support's top, nor before the degree; a refutation is the
    first power sum larger than the degree, else the index bound N.
    """
    deg = degree(poly)
    if result.complete:
        return max([deg, *result.exponents])
    top = _index_bound(deg)
    sums = sweep_sums(poly, top)
    return next((k for k in range(1, top + 1) if abs(sums[k - 1]) > deg), top)


def assert_matches_oracles(poly):
    """Factors, completeness and exponents of the one route against both oracles.

    The sweep stops where the factors are settled, and a reader that finds
    a sweep already run to the degree continues it to the same answer.
    """
    sweep = ExponentSweep(poly)
    result = sweep.cyclotomic_factors()
    factors, complete = trial_division_factors(poly)
    assert result.complete == complete
    if complete:
        assert result.factors == factors
        assert result.exponents == exponents_of_cyclotomic_product(factors)
    else:
        assert result.factors == {} and result.exponents == {}
    assert len(sweep.entries) - 1 == settled_at(poly, result)
    continued = ExponentSweep(poly)
    continued.extend(degree(poly))
    assert continued.cyclotomic_factors() == result == factor_into_cyclotomics(poly)
    return result


def assert_semigroup_matches_oracles(S):
    """The oracles on the semigroup polynomial and on the analysis' reading of its prefix.

    The exponents also extend the sequence.
    """
    result = assert_matches_oracles(semigroup_polynomial(S))
    full = SemigroupAnalysis(S).full_exponents
    assert full == (result.exponents if result.complete else None), S.generators
    if result.complete:
        sequence = exponent_sequence(S)
        assert list(sequence) == [
            result.exponents.get(j, 0) for j in range(1, sequence.bound + 1)
        ], S.generators
    return result


def _symmetric_up_to_frobenius(f_max):
    for F in range(1, f_max + 1, 2):
        yield from (S for S in enumerate_by_frobenius(F) if S.is_symmetric())


class TestIterativeExpansion:
    def test_single_factor(self):
        assert list(witt_expand_iterative([1, -1, 0, 0, 0, 0], 5)) == [1, 0, 0, 0, 0]

    def test_geometric(self):
        assert list(witt_expand_iterative([1, -2, 0, 0, 0], 4)) == [2, 1, 2, 3]

    def test_quadratic(self):
        prefix = [1, -1, 1] + [0] * 4
        assert list(witt_expand_iterative(prefix, 6)) == [1, -1, -1, 0, 0, 1]

    def test_bad_constant_term(self):
        with pytest.raises(BadConstantTermError):
            witt_expand_iterative([0, 1], 1)

    def test_bound_exceeds_prefix(self):
        with pytest.raises(ValueError):
            witt_expand_iterative([1, -1], 5)


class TestPowerSums:
    def test_single_root(self):
        assert sweep_sums([1, -1], 6) == [1] * 6

    def test_lucas_numbers(self):
        assert sweep_sums([1, -1, -1], 5) == [1, 3, 4, 7, 11]

    def test_period_six(self):
        assert sweep_sums([1, -1, 1], 6) == [1, -1, -2, -1, 1, 2]

    def test_constant(self):
        assert sweep_sums([1], 4) == [0, 0, 0, 0]


class TestMoebiusExpansion:
    def test_geometric(self):
        assert list(ExponentSweep([1, -2]).prefix(4)) == [2, 1, 2, 3]

    def test_single_factor(self):
        assert list(ExponentSweep([1, -1]).prefix(6)) == [1, 0, 0, 0, 0, 0]

    def test_published_listing(self, s357):
        assert tuple(ExponentSweep(semigroup_polynomial(s357)).prefix(150)) == EXPONENTS_3_5_7

    def test_agrees_with_iterative(self, five_gen):
        for S in (five_gen, NumericalSemigroup(4, 5, 6)):
            bound = S.default_bound
            poly = semigroup_polynomial(S)
            padded = poly + [0] * (bound + 1 - len(poly))
            assert list(ExponentSweep(poly).prefix(bound)) == list(
                witt_expand_iterative(padded, bound)
            )

    @settings(deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=8), st.integers(1, 30))
    def test_random_polynomials_match_iterative(self, tail, bound):
        poly = [1] + tail
        padded = (poly + [0] * bound)[: bound + 1]
        assert ExponentSweep(poly).prefix(bound) == witt_expand_iterative(padded, bound)

    def test_round_trip(self, s469):
        bound = s469.default_bound
        entries = ExponentSweep(semigroup_polynomial(s469)).prefix(bound)
        rebuilt = reconstruct_prefix(list(entries), bound)
        padded = semigroup_polynomial(s469) + [0] * (bound + 1)
        assert rebuilt == padded[: bound + 1]


class TestExponentSequence:
    def test_published_prefix(self, s469):
        assert tuple(exponent_sequence(s469, 18)) == EXPONENTS_4_6_9_18

    def test_trivial_all_zero(self, naturals):
        assert all(e == 0 for e in exponent_sequence(naturals, 40))

    def test_default_bound(self, s357):
        sequence = exponent_sequence(s357)
        assert sequence.bound == s357.frobenius + 2 * 7 + 1

    def test_empty_prefix(self, s357):
        assert exponent_sequence(s357, 0) == ExponentSequence((), 0)

    @pytest.mark.parametrize("bound", [-2, -1, True, False, 2.0])
    def test_bad_bound_raises(self, s357, bound):
        with pytest.raises(ValueError, match=f"bound must be an int >= 0, got {bound!r}"):
            exponent_sequence(s357, bound)

    def test_indexing_and_json(self, s357):
        sequence = exponent_sequence(s357, 10)
        assert sequence[1] == 1 and sequence[10] == 1
        with pytest.raises(IndexError):
            sequence[11]
        assert sequence.to_json() == [str(e) for e in sequence]

    def test_matches_iterative_up_to_genus_10(self):
        for S in enumerate_by_genus(10):
            sequence = exponent_sequence(S)
            padded = semigroup_polynomial(S) + [0] * (sequence.bound + 1)
            assert sequence == witt_expand_iterative(padded, sequence.bound), S.generators

    def test_sum_zero_for_finite_support(self, s469, glued):
        for S in (s469, glued):
            exponents = factor_into_cyclotomics(semigroup_polynomial(S)).exponents
            assert sum(exponents.values()) == 0


class TestCyclotomicPolynomials:
    def test_small(self):
        assert cyclotomic_polynomial(1) == [-1, 1]
        assert cyclotomic_polynomial(6) == [1, -1, 1]

    def test_semigroup_of_two_primes(self):
        assert cyclotomic_polynomial(15) == semigroup_polynomial(NumericalSemigroup(3, 5))

    def test_degree_is_phi(self):
        for n in range(1, 60):
            assert degree(cyclotomic_polynomial(n)) == euler_phi(n)

    def test_value_at_one(self):
        assert evaluate(cyclotomic_polynomial(1), 1) == 0
        for n in range(2, 40):
            assert evaluate(cyclotomic_polynomial(n), 1) != 0

    def test_moebius_product_matches_division(self):
        assert [cyclotomic_polynomial(n) for n in range(1, 401)] == cyclotomic_by_division(400)

    @pytest.mark.parametrize("n", [0, -3, True, 2.0, "6"])
    def test_index_must_be_a_positive_int(self, n):
        # True gave Phi_1 = [-1, 1]; 2.0 reached divisors with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"n must be >= 1, got {n!r}")):
            cyclotomic_polynomial(n)

    def test_product_over_divisors(self):
        for n in (12, 18, 30):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    product = mul(product, cyclotomic_polynomial(d))
            want = [0] * (n + 1)
            want[0], want[n] = -1, 1
            assert product == want


class TestCyclotomicFactorization:
    def test_complete_example(self, s469):
        result = factor_into_cyclotomics(semigroup_polynomial(s469))
        assert result.complete
        assert result.factors == {6: 1, 12: 1, 18: 1}
        product = [1]
        for d, h in result.factors.items():
            for _ in range(h):
                product = mul(product, cyclotomic_polynomial(d))
        assert product == semigroup_polynomial(s469)

    def test_incomplete(self, s357):
        assert not factor_into_cyclotomics(semigroup_polynomial(s357)).complete

    def test_constant(self):
        result = factor_into_cyclotomics([1])
        assert result.complete and result.factors == {} and result.exponents == {}

    def test_repeated_factor(self):
        poly = mul(cyclotomic_polynomial(6), cyclotomic_polynomial(6))
        assert factor_into_cyclotomics(poly).factors == {6: 2}

    def test_incomplete_records_no_factors(self):
        # Phi_6 divides it, but an incomplete result reports no divisor
        poly = mul(cyclotomic_polynomial(6), [1, -3, 1])
        assert factor_into_cyclotomics(poly) == CyclotomicFactorization({}, False, {})

    def test_not_monic_rejected(self):
        with pytest.raises(ValueError):
            factor_into_cyclotomics([1, 1, 2])

    def test_read_off_a_longer_sweep(self, s469, s357):
        # a sweep already run past N is read, not extended
        for S in (s469, s357):
            poly = semigroup_polynomial(S)
            longer = ExponentSweep(poly)
            longer.extend(_index_bound(len(poly) - 1) + 25)
            entries = list(longer.entries)
            assert longer.cyclotomic_factors() == factor_into_cyclotomics(poly)
            assert longer.entries == entries

    def test_sweep_below_the_degree_read_on(self, s469):
        # no certificate holds below the degree, so the reader sweeps on
        poly = semigroup_polynomial(s469)
        short = ExponentSweep(poly)
        short.extend(len(poly) - 2)
        assert short.cyclotomic_factors() == factor_into_cyclotomics(poly)
        assert len(short.entries) - 1 == 18 > len(poly) - 1

    def test_certified_at_the_default_bound(self, s469):
        # the sweep stops at the top of the support, short of the bound and of N
        poly = semigroup_polynomial(s469)
        assert s469.default_bound < _index_bound(len(poly) - 1)
        sweep = ExponentSweep(poly)
        result = sweep.cyclotomic_factors()
        assert result == factor_into_cyclotomics(poly) and result.complete
        assert len(sweep.entries) - 1 == max(result.exponents) == 18 < s469.default_bound

    def test_refuted_at_the_default_bound(self):
        # symmetric, not a complete intersection: a power sum outgrows the degree
        S = NumericalSemigroup(5, 6, 7, 8)
        poly = semigroup_polynomial(S)
        assert S.is_symmetric() and S.default_bound < _index_bound(len(poly) - 1)
        sweep = ExponentSweep(poly)
        assert sweep.cyclotomic_factors() == CyclotomicFactorization({}, False, {})
        k = len(sweep.entries) - 1
        assert abs(sweep.sums[k]) > len(poly) - 1 >= max(map(abs, sweep.sums[:k]))
        assert k <= S.default_bound

    def test_refuted_at_the_first_power_sum_past_the_degree(self):
        # 1 + x - x^2: s(2) = 3 = deg + 1. Its sums over multiples at M = 2,
        # h_2 = 2 = deg, pass the degree test alone; h_1 = 1 fails them
        poly = [1, 1, -1]
        sweep = ExponentSweep(poly)
        assert sweep.cyclotomic_factors() == CyclotomicFactorization({}, False, {})
        assert sweep.sums == [0, -1, 3]

    @pytest.mark.parametrize("indices", [(210,), (210, 330)])
    def test_undecided_below_the_largest_index(self, indices):
        # e_n = 1 at the largest index n, and roots of unity keep every power
        # sum within the degree, so the sweep settles only at n; for Phi_210
        # alone, n is the index bound N itself
        poly = [1]
        for n in indices:
            poly = mul(poly, cyclotomic_polynomial(n))
        deg, top = len(poly) - 1, max(indices)
        assert (top == _index_bound(deg)) == (indices == (210,))
        for bound in {deg, max(deg, 100), top - 1, top}:
            sweep = ExponentSweep(poly)
            sweep.extend(bound)
            result = sweep.cyclotomic_factors()
            assert result.complete and result == factor_into_cyclotomics(poly)
            assert len(sweep.entries) - 1 == top

    def test_factor_support_matches_sequence(self, glued):
        assert assert_semigroup_matches_oracles(glued).complete

    @pytest.mark.parametrize("indices", [(210,), (210, 330)])
    def test_indices_far_above_the_degree(self, indices):
        # phi(210) = 48, so Phi_210 alone needs a sweep past 4 * degree;
        # phi(330) = 80 adds a second index far above its own degree
        poly = [1]
        for n in indices:
            poly = mul(poly, cyclotomic_polynomial(n))
        result = assert_matches_oracles(poly)
        assert result.complete and result.factors == {n: 1 for n in indices}

    def test_symmetric_up_to_genus_12(self):
        symmetric = [S for S in enumerate_by_genus(12) if S.is_symmetric()]
        assert len(symmetric) == 121
        for S in symmetric:
            assert_semigroup_matches_oracles(S)

    def test_complete_intersections_up_to_frobenius_61(self):
        for F in range(1, 62, 2):
            for S in ci_with_frobenius(F):
                assert assert_semigroup_matches_oracles(S).complete, S.generators

    @pytest.mark.stretch
    def test_symmetric_up_to_frobenius_29(self):
        for S in _symmetric_up_to_frobenius(29):
            assert_semigroup_matches_oracles(S)

    @pytest.mark.stretch
    def test_complete_intersections_up_to_frobenius_101(self):
        for F in range(1, 102, 2):
            for S in ci_with_frobenius(F):
                assert assert_semigroup_matches_oracles(S).complete, S.generators

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(2, 60), max_size=5),
        st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=1, max_size=3)),
    )
    def test_random_products_of_cyclotomics(self, indices, middle):
        poly = [1]
        for n in indices:
            poly = mul(poly, cyclotomic_polynomial(n))
        if middle is not None:
            # times 1 + ... + x^k: cyclotomic or not, the oracle decides
            poly = mul(poly, [1] + middle + [1])
        result = assert_matches_oracles(poly)
        if middle is None:
            assert result.complete
            assert result.factors == {n: indices.count(n) for n in sorted(set(indices))}


class TestAnalysisSweep:
    """The sequence and the cyclotomic test extend one sweep, in either order."""

    @pytest.mark.parametrize("generators", [(4, 6, 9), (5, 6, 7, 8), (8, 12, 18, 25)])
    @pytest.mark.parametrize("cyclotomic_first", [False, True])
    def test_readers_share_one_sweep(self, swept, generators, cyclotomic_first):
        S = NumericalSemigroup(*generators)
        poly, analysis = semigroup_polynomial(S), SemigroupAnalysis(S)
        if cyclotomic_first:
            full, sequence = analysis.full_exponents, analysis.sequence
        else:
            sequence, full = analysis.sequence, analysis.full_exponents
        reach = swept.reach(poly)  # before the oracles sweep the polynomial again
        factors, complete = trial_division_factors(poly)
        assert full == (exponents_of_cyclotomic_product(factors) if complete else None)
        assert sequence == ExponentSweep(poly).prefix(S.default_bound)
        assert sequence == witt_expand_iterative(poly + [0] * S.default_bound, S.default_bound)
        settled = settled_at(poly, factor_into_cyclotomics(poly))
        assert reach == max(S.default_bound, settled)

    def test_cyclotomic_alone_stops_at_the_top_of_the_support(self, swept):
        # <2,83>: e = 1, -1, -1, 1 at 1, 2, 83, 166; the default bound is 248
        S = NumericalSemigroup(2, 83)
        assert SemigroupAnalysis(S).cyclotomic
        assert swept.reach(semigroup_polynomial(S)) == 166 < S.default_bound

    def test_non_complete_intersection_stops_at_the_first_large_power_sum(self, swept):
        S = NumericalSemigroup(5, 6, 7, 8)
        poly, deg = semigroup_polynomial(S), S.frobenius + 1
        assert not SemigroupAnalysis(S).cyclotomic
        reach = swept.reach(poly)
        sums = sweep_sums(poly, S.default_bound)
        first = next(k for k, s in enumerate(sums, 1) if abs(s) > deg)
        assert reach == first < S.default_bound

    def test_trivial_certifies_with_nothing(self, swept, naturals):
        assert SemigroupAnalysis(naturals).full_exponents == {}
        assert swept.reach(semigroup_polynomial(naturals)) == 0


def assert_apery_route_matches(S):
    """The sweep of S's Apery numerator against the sweep of its polynomial.

    Same polynomial, degree, entries to the default bound and power sums of
    f (the numerator's plus 1 - m*[m | k]); and, on fresh sweeps, the same
    cyclotomic verdict at the same stopping index.
    """
    poly, m = semigroup_polynomial(S), S.multiplicity
    apery, plain = ExponentSweep.of_semigroup(S), ExponentSweep(poly)
    assert sweep_polynomial(apery) == poly, S.generators
    assert apery.degree == plain.degree == S.frobenius + 1
    assert apery.prefix(S.default_bound) == plain.prefix(S.default_bound), S.generators
    sums = [s + 1 - (m if k % m == 0 else 0) for k, s in enumerate(apery.sums)]
    assert sums[1:] == plain.sums[1:], S.generators
    apery, plain = ExponentSweep.of_semigroup(S), ExponentSweep(poly)
    assert apery.cyclotomic_factors() == plain.cyclotomic_factors(), S.generators
    assert len(apery.entries) == len(plain.entries), S.generators


class TestAperyRoute:
    """``ExponentSweep.of_semigroup`` sweeps (1 - x) * A / (1 - x^m), A the Apery numerator."""

    def test_numerator_is_the_apery_set(self, five_gen, naturals):
        for S in (five_gen, naturals, NumericalSemigroup(2, 83)):
            sweep = ExponentSweep.of_semigroup(S)
            m = S.multiplicity
            assert sweep.period == m and len(sweep.numerator) == S.frobenius + m + 1
            assert [w for w, a in enumerate(sweep.numerator) if a] == S.apery_set(m)

    def test_by_genus_up_to_10(self):
        for S in enumerate_by_genus(10):
            assert_apery_route_matches(S)

    def test_every_frobenius_21_semigroup(self):
        for S in enumerate_by_frobenius(21):
            assert_apery_route_matches(S)

    def test_complete_intersections_up_to_frobenius_81(self):
        for F in range(1, 82, 2):
            for S in ci_with_frobenius(F):
                assert_apery_route_matches(S)

    @pytest.mark.stretch
    def test_complete_intersections_at_frobenius_151(self):
        for S in ci_with_frobenius(151):
            assert_apery_route_matches(S)

    @pytest.mark.parametrize(
        "generators",
        [(1,), (2, 83), *(tuple(range(m, 2 * m)) for m in range(2, 13))],
        ids=lambda generators: ",".join(map(str, generators)),
    )
    def test_edge_cases_against_elimination(self, generators):
        # <1> has m = 1 and A = 1; <m, ..., 2m - 1> has P = 1 - x + x^m,
        # 3 terms, against A's m
        S = NumericalSemigroup(*generators)
        assert_apery_route_matches(S)
        bound = S.default_bound
        padded = semigroup_polynomial(S) + [0] * bound
        expected = witt_expand_iterative(padded, bound)
        assert ExponentSweep.of_semigroup(S).prefix(bound) == expected == exponent_sequence(S)

    @pytest.mark.parametrize(
        "generators", [(5, 6, 7, 8), (3, 5, 7), (4, 6, 9), (3, 4, 5), (5, 7, 11)]
    )
    def test_limit_stops_after_the_first_larger_power_sum(self, generators):
        # the limit reads f's power sums, not the numerator's: at <3,4,5> the
        # numerator's pass the degree first, at <5,7,11> f's do
        S = NumericalSemigroup(*generators)
        poly, deg, bound = semigroup_polynomial(S), S.frobenius + 1, S.default_bound
        sums = sweep_sums(poly, bound)
        first = next((k for k, s in enumerate(sums, 1) if abs(s) > deg), bound)
        for sweep in (ExponentSweep(poly), ExponentSweep.of_semigroup(S)):
            sweep.extend(bound, deg)
            assert len(sweep.entries) - 1 == first
            assert sweep.prefix(bound) == ExponentSweep(poly).prefix(bound)

    @pytest.mark.parametrize("numerator, period", [([1, 1], 0), ([1], 2), ([1, 0, 1], 3)])
    def test_no_polynomial_rejected(self, numerator, period):
        with pytest.raises(ValueError):
            ExponentSweep(numerator, period)

    def test_a_numerator_of_mixed_signs(self):
        # (1 - x) * (1 - x + x^2 + x^3 - x^4 + x^5) / (1 - x^2) = Phi_6^2
        poly = mul(cyclotomic_polynomial(6), cyclotomic_polynomial(6))
        sweep = ExponentSweep([1, -1, 1, 1, -1, 1], 2)
        assert sweep_polynomial(sweep) == poly
        assert list(sweep.prefix(8)) == [2, -2, -2, 0, 0, 2, 0, 0]
        result = sweep.cyclotomic_factors()
        assert result == factor_into_cyclotomics(poly) and result.factors == {6: 2}


class TestIndexBound:
    def test_covers_every_index_with_small_phi(self):
        top = 300
        largest = [0] * (top + 1)  # largest[d] = max{n : phi(n) = d}
        for n in range(1, 2 * top**2 + 1):  # phi(n) >= sqrt(n / 2)
            phi = euler_phi(n)
            if phi <= top:
                largest[phi] = max(largest[phi], n)
        best = 0
        for d in range(top + 1):
            best = max(best, largest[d])
            assert _index_bound(d) >= best, d

    def test_values(self):
        assert [_index_bound(d) for d in (0, 1, 82, 1560)] == [0, 2, 358, 7507]


class TestIsCyclotomic:
    def test_examples(self, s469, s357, naturals):
        assert is_cyclotomic(s469)
        assert not is_cyclotomic(s357)
        assert is_cyclotomic(naturals)

    def test_two_generators_always(self):
        for a, b in ((2, 3), (3, 5), (4, 7), (5, 9)):
            assert is_cyclotomic(NumericalSemigroup(a, b))

    def test_symmetric_but_not_cyclotomic_exists(self):
        # embedding dimension 4 instance: symmetric yet not cyclotomic
        S = NumericalSemigroup(5, 6, 7, 8)
        assert S.is_symmetric() and not is_cyclotomic(S)

    def test_factorization_gated_on_symmetry(self, monkeypatch, s469, s357, naturals):
        searched, search = [], ExponentSweep.cyclotomic_factors
        monkeypatch.setattr(
            ExponentSweep,
            "cyclotomic_factors",
            lambda sweep: searched.append(sweep_polynomial(sweep)) or search(sweep),
        )
        assert not is_cyclotomic(s357) and searched == []  # not symmetric: no search
        assert is_cyclotomic(naturals) and is_cyclotomic(s469)
        assert searched == [semigroup_polynomial(naturals), semigroup_polynomial(s469)]
        assert factor_into_cyclotomics(semigroup_polynomial(naturals)).factors == {}
        assert factor_into_cyclotomics(semigroup_polynomial(s469)).complete
        assert not factor_into_cyclotomics(semigroup_polynomial(NumericalSemigroup(5, 6, 7, 8))).complete


class TestNecklace:
    def test_values(self):
        assert necklace_coefficient(2, 1) == 2
        assert necklace_coefficient(2, 4) == 3
        assert all(necklace_coefficient(1, k) == 0 for k in range(2, 9))

    def test_matches_expansion(self):
        for alpha in (2, 3, 5):
            entries = ExponentSweep([1, -alpha]).prefix(8)
            assert list(entries) == [necklace_coefficient(alpha, k) for k in range(1, 9)]

    def test_prime_divisibility(self):
        # integrality at prime index encodes alpha^p = alpha mod p
        for p in (2, 3, 5, 7, 11):
            for alpha in range(2, 12):
                assert (alpha**p - alpha) % p == 0
                necklace_coefficient(alpha, p)


class TestGrowthEnvelope:
    def test_geometric(self):
        assert_growth_envelope([1, -2], range(1, 21))

    def test_published_range(self, s357):
        assert_growth_envelope(semigroup_polynomial(s357), range(30, 101))

    def test_single_root_one(self):
        assert_growth_envelope([1, -1], range(1, 11))

    @pytest.mark.parametrize("module", ["numpy", "multiprocessing"])
    def test_numpy_loaded_only_by_the_envelope_check(self, module):
        # the envelope oracle above is the only numpy user; the CLI loads neither
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = f"import nsg.cli, sys; assert {module!r} not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
