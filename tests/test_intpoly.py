from math import comb

import pytest
from hypothesis import given, strategies as st

from nsg import IntegralityError
from nsg import intpoly

from oracles import (
    binomial_series,
    degree,
    evaluate,
    is_self_reciprocal,
    mul,
    mul_one_minus_xk_pow,
    mul_trunc,
)

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=8)


class TestBasics:
    def test_trim_and_degree(self):
        assert intpoly.trim([1, 2, 0, 0]) == [1, 2]
        assert degree([0, 0]) == -1
        assert degree([5]) == 0

    def test_mul(self):
        assert mul([1, 1], [1, -1]) == [1, 0, -1]
        assert mul([], [1, 2]) == []

    def test_evaluate(self):
        assert evaluate([1, -1, 1], 2) == 3


class TestDivision:
    def test_exact(self):
        q = intpoly.divexact([-1, 0, 0, 0, 0, 0, 1], [-1, 0, 1])  # (x^6-1)/(x^2-1)
        assert q == [1, 0, 1, 0, 1]

    def test_inexact_raises(self):
        with pytest.raises(IntegralityError):
            intpoly.divexact([1, 1, 1], [1, 1])

    def test_divides(self):
        assert intpoly.divides([1, 1], [1, 2, 1])
        assert not intpoly.divides([1, 1], [1, 0, 1])

    @given(small_polys, small_polys)
    def test_mul_then_divide_roundtrips(self, a, b):
        a, b = intpoly.trim(a), intpoly.trim(b)
        if not a or not b:
            return
        product = mul(a, b)
        assert intpoly.divexact(product, a) == b
        assert intpoly.divexact(product, b) == a


class TestSeries:
    def test_mul_trunc_agrees_with_mul(self):
        a, b = [1, 2, 3], [4, 5]
        assert mul_trunc(a, b, 2) == mul(a, b)[:3]

    @pytest.mark.parametrize("exponent", [-4, -1, 0, 1, 2, 5])
    def test_binomial_series(self, exponent):
        series = binomial_series(exponent, 3, 20)
        for j in range(7):
            if exponent >= 0:
                want = (-1) ** j * comb(exponent, j)
            else:
                want = comb(-exponent + j - 1, j)
            assert series[3 * j] == want
        assert all(c == 0 for i, c in enumerate(series) if i % 3)

    def test_pow_and_inverse_cancel(self):
        bound = 24
        one = [1] + [0] * bound
        forward = mul_one_minus_xk_pow(one, 4, 3, bound)
        back = mul_one_minus_xk_pow(forward, 4, -3, bound)
        assert back == one

    def test_self_reciprocal(self):
        assert is_self_reciprocal([1, -1, 1])
        assert not is_self_reciprocal([1, -1, 0, 1])
