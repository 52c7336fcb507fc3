import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nsg import (
    BadConstantTermError,
    NumericalSemigroup,
    ci_with_frobenius,
    cyclotomic_factorization,
    cyclotomic_polynomial,
    enumerate_by_frobenius,
    enumerate_by_genus,
    exponent_sequence,
    factor_into_cyclotomics,
    is_cyclotomic,
    power_sums,
    witt_expand_moebius,
)
from nsg import CyclotomicFactorization, ExponentSequence, intpoly
from nsg.arith import divisors, euler_phi, mobius
from nsg.witt import _check_constant_term, _index_bound

from expected import EXPONENTS_3_5_7, EXPONENTS_4_6_9_18
from oracles import degree, evaluate, mul_one_minus_xk_pow


def witt_expand_iterative(prefix, bound=None):
    """The oracle: expand a series prefix by successive elimination.

    Maintains ``h = f * prod_{k<=m} (1 - x^k)^(-e_k)``; at step m the series
    h is congruent to ``1 - e_m x^m`` modulo ``x^(m+1)``, which reads off e_m.
    Independent of the power sums and the divisor sweep of
    :func:`witt_expand_moebius`.
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
    entries = witt_expand_moebius(coeffs, max(ks))
    for k in ks:
        deviation = abs(entries[k] - alpha1 ** (-k) / k)
        second = deg * r2 ** (-k) if deg >= 2 else 0.0
        allowance = len(divisors(k)) / k * (r1 ** (-k / 2) + second)
        assert deviation <= allowance, (k, deviation, allowance)


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
            phi_d = cyclotomic_polynomial(d)
            while intpoly.divides(phi_d, remaining):
                remaining = intpoly.divexact(remaining, phi_d)
                factors[d] = factors.get(d, 0) + 1
        d += 1
    return factors, remaining == intpoly.ONE


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


def assert_matches_oracles(poly):
    """Factors, completeness and exponents of the one route against both oracles."""
    result = factor_into_cyclotomics(poly)
    factors, complete = trial_division_factors(poly)
    assert result.complete == complete
    if complete:
        assert result.factors == factors
        assert result.exponents == exponents_of_cyclotomic_product(factors)
    else:
        assert result.factors == {} and result.exponents == {}
    return result


def assert_semigroup_matches_oracles(S):
    """The oracles on the semigroup polynomial; the exponents extend the sequence."""
    result = assert_matches_oracles(S.polynomial())
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
        assert power_sums([1, -1], 6) == [1] * 6

    def test_lucas_numbers(self):
        assert power_sums([1, -1, -1], 5) == [1, 3, 4, 7, 11]

    def test_period_six(self):
        assert power_sums([1, -1, 1], 6) == [1, -1, -2, -1, 1, 2]

    def test_constant(self):
        assert power_sums([1], 4) == [0, 0, 0, 0]


class TestMoebiusExpansion:
    def test_geometric(self):
        assert list(witt_expand_moebius([1, -2], 4)) == [2, 1, 2, 3]

    def test_single_factor(self):
        assert list(witt_expand_moebius([1, -1], 6)) == [1, 0, 0, 0, 0, 0]

    def test_published_listing(self, s357):
        assert tuple(witt_expand_moebius(s357.polynomial(), 150)) == EXPONENTS_3_5_7

    def test_agrees_with_iterative(self, five_gen):
        for S in (five_gen, NumericalSemigroup(4, 5, 6)):
            bound = S.default_bound
            poly = S.polynomial()
            padded = poly + [0] * (bound + 1 - len(poly))
            assert list(witt_expand_moebius(poly, bound)) == list(
                witt_expand_iterative(padded, bound)
            )

    @settings(deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=8), st.integers(1, 30))
    def test_random_polynomials_match_iterative(self, tail, bound):
        poly = [1] + tail
        padded = (poly + [0] * bound)[: bound + 1]
        assert witt_expand_moebius(poly, bound) == witt_expand_iterative(padded, bound)

    def test_round_trip(self, s469):
        bound = s469.default_bound
        entries = witt_expand_moebius(s469.polynomial(), bound)
        rebuilt = reconstruct_prefix(list(entries), bound)
        padded = s469.polynomial() + [0] * (bound + 1)
        assert rebuilt == padded[: bound + 1]


class TestExponentSequence:
    def test_published_prefix(self, s469):
        assert tuple(exponent_sequence(s469, 18)) == EXPONENTS_4_6_9_18

    def test_trivial_all_zero(self, naturals):
        assert all(e == 0 for e in exponent_sequence(naturals, 40))

    def test_default_bound(self, s357):
        sequence = exponent_sequence(s357)
        assert sequence.bound == s357.frobenius + 2 * 7 + 1

    def test_indexing_and_json(self, s357):
        sequence = exponent_sequence(s357, 10)
        assert sequence[1] == 1 and sequence[10] == 1
        with pytest.raises(IndexError):
            sequence[11]
        assert sequence.to_json() == [str(e) for e in sequence]

    def test_matches_iterative_up_to_genus_10(self):
        for S in enumerate_by_genus(10):
            sequence = exponent_sequence(S)
            padded = S.polynomial() + [0] * (sequence.bound + 1)
            assert sequence == witt_expand_iterative(padded, sequence.bound), S.generators

    def test_sum_zero_for_finite_support(self, s469, glued):
        for S in (s469, glued):
            exponents = factor_into_cyclotomics(S.polynomial()).exponents
            assert sum(exponents.values()) == 0


class TestCyclotomicPolynomials:
    def test_small(self):
        assert cyclotomic_polynomial(1) == [-1, 1]
        assert cyclotomic_polynomial(6) == [1, -1, 1]

    def test_semigroup_of_two_primes(self):
        assert cyclotomic_polynomial(15) == NumericalSemigroup(3, 5).polynomial()

    def test_degree_is_phi(self):
        for n in range(1, 60):
            assert degree(cyclotomic_polynomial(n)) == euler_phi(n)

    def test_value_at_one(self):
        assert evaluate(cyclotomic_polynomial(1), 1) == 0
        for n in range(2, 40):
            assert evaluate(cyclotomic_polynomial(n), 1) != 0

    def test_product_over_divisors(self):
        for n in (12, 18, 30):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    product = intpoly.mul(product, cyclotomic_polynomial(d))
            want = [0] * (n + 1)
            want[0], want[n] = -1, 1
            assert product == want


class TestCyclotomicFactorization:
    def test_complete_example(self, s469):
        result = factor_into_cyclotomics(s469.polynomial())
        assert result.complete
        assert result.factors == {6: 1, 12: 1, 18: 1}
        product = [1]
        for d, h in result.factors.items():
            for _ in range(h):
                product = intpoly.mul(product, cyclotomic_polynomial(d))
        assert product == s469.polynomial()

    def test_incomplete(self, s357):
        assert not factor_into_cyclotomics(s357.polynomial()).complete

    def test_constant(self):
        result = factor_into_cyclotomics([1])
        assert result.complete and result.factors == {} and result.exponents == {}

    def test_repeated_factor(self):
        poly = intpoly.mul(cyclotomic_polynomial(6), cyclotomic_polynomial(6))
        assert factor_into_cyclotomics(poly).factors == {6: 2}

    def test_incomplete_records_no_factors(self):
        # Phi_6 divides it, but an incomplete result reports no divisor
        poly = intpoly.mul(cyclotomic_polynomial(6), [1, -3, 1])
        assert factor_into_cyclotomics(poly) == CyclotomicFactorization({}, False, {})

    def test_not_monic_rejected(self):
        with pytest.raises(ValueError):
            factor_into_cyclotomics([1, 1, 2])

    def test_factor_support_matches_sequence(self, glued):
        assert assert_semigroup_matches_oracles(glued).complete

    @pytest.mark.parametrize("indices", [(210,), (210, 330)])
    def test_indices_far_above_the_degree(self, indices):
        # phi(210) = 48, so Phi_210 alone needs a sweep past 4 * degree;
        # phi(330) = 80 adds a second index far above its own degree
        poly = [1]
        for n in indices:
            poly = intpoly.mul(poly, cyclotomic_polynomial(n))
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
            poly = intpoly.mul(poly, cyclotomic_polynomial(n))
        if middle is not None:
            # times 1 + ... + x^k: cyclotomic or not, the oracle decides
            poly = intpoly.mul(poly, [1] + middle + [1])
        result = assert_matches_oracles(poly)
        if middle is None:
            assert result.complete
            assert result.factors == {n: indices.count(n) for n in sorted(set(indices))}


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

    def test_factorization_gated_on_symmetry(self, s469, s357, naturals):
        assert cyclotomic_factorization(s357) is None
        assert cyclotomic_factorization(naturals).factors == {}
        factorization = cyclotomic_factorization(s469)
        assert factorization.complete
        assert factorization == factor_into_cyclotomics(s469.polynomial())
        assert not cyclotomic_factorization(NumericalSemigroup(5, 6, 7, 8)).complete


class TestNecklace:
    def test_values(self):
        assert necklace_coefficient(2, 1) == 2
        assert necklace_coefficient(2, 4) == 3
        assert all(necklace_coefficient(1, k) == 0 for k in range(2, 9))

    def test_matches_expansion(self):
        for alpha in (2, 3, 5):
            entries = witt_expand_moebius([1, -alpha], 8)
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
        assert_growth_envelope(s357.polynomial(), range(30, 101))

    def test_single_root_one(self):
        assert_growth_envelope([1, -1], range(1, 11))

    @pytest.mark.parametrize("module", ["numpy", "multiprocessing"])
    def test_numpy_loaded_only_by_the_envelope_check(self, module):
        # the envelope oracle above is the only numpy user; the CLI loads neither
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = f"import nsg.cli, sys; assert {module!r} not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
