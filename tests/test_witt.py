import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsg import (
    BadConstantTermError,
    NumericalSemigroup,
    RootSeparationError,
    cyclotomic_factorization,
    cyclotomic_polynomial,
    exponent_sequence,
    exponents_from_cyclotomic_factors,
    factor_into_cyclotomics,
    growth_envelope_check,
    is_cyclotomic,
    necklace_coefficient,
    power_sums,
    reconstruct_prefix,
    witt_expand_iterative,
    witt_expand_moebius,
)
from nsg import intpoly
from nsg.arith import euler_phi

from expected import EXPONENTS_3_5_7, EXPONENTS_4_6_9_18


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

    def test_sum_zero_for_finite_support(self, s469, glued):
        for S in (s469, glued):
            factors = factor_into_cyclotomics(S.polynomial())
            exponents = exponents_from_cyclotomic_factors(factors.factors)
            assert sum(exponents.values()) == 0


class TestCyclotomicPolynomials:
    def test_small(self):
        assert cyclotomic_polynomial(1) == [-1, 1]
        assert cyclotomic_polynomial(6) == [1, -1, 1]

    def test_semigroup_of_two_primes(self):
        assert cyclotomic_polynomial(15) == NumericalSemigroup(3, 5).polynomial()

    def test_degree_is_phi(self):
        for n in range(1, 60):
            assert intpoly.degree(cyclotomic_polynomial(n)) == euler_phi(n)

    def test_value_at_one(self):
        assert intpoly.evaluate(cyclotomic_polynomial(1), 1) == 0
        for n in range(2, 40):
            assert intpoly.evaluate(cyclotomic_polynomial(n), 1) != 0

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
        assert result.complete and result.factors == {}

    def test_repeated_factor(self):
        poly = intpoly.mul(cyclotomic_polynomial(6), cyclotomic_polynomial(6))
        assert factor_into_cyclotomics(poly).factors == {6: 2}

    def test_factor_support_matches_sequence(self, glued):
        factors = factor_into_cyclotomics(glued.polynomial())
        exponents = exponents_from_cyclotomic_factors(factors.factors)
        sequence = exponent_sequence(glued)
        for j in range(1, sequence.bound + 1):
            assert sequence[j] == exponents.get(j, 0)


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
        assert growth_envelope_check([1, -2], range(1, 21)).all_pass

    def test_published_range(self, s357):
        report = growth_envelope_check(s357.polynomial(), range(30, 101))
        assert report.all_pass

    def test_single_root_one(self):
        assert growth_envelope_check([1, -1], range(1, 11)).all_pass

    def test_unseparated_moduli(self):
        with pytest.raises(RootSeparationError):
            growth_envelope_check([1, -1, 1], range(1, 5))

    @pytest.mark.parametrize("module", ["numpy", "multiprocessing"])
    def test_numpy_loaded_only_by_the_envelope_check(self, module):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = f"import nsg.cli, sys; assert {module!r} not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_missing_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError, match=r"nsg\[growth\]"):
            growth_envelope_check([1, -1], range(1, 11))
