"""Number-theoretic helpers against brute-force definitions."""

from math import gcd

import pytest

from nsg import arith

from oracles import euler_phi

N_MAX = 2000


def _brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _brute_prime_factors(n):
    factors, p = {}, 2
    while n > 1:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    return factors


def _brute_mobius(n):
    factors = _brute_prime_factors(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return (-1) ** len(factors)


def _brute_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_against_brute_force():
    for n in range(1, N_MAX + 1):
        divisors = _brute_divisors(n)
        assert arith.prime_factors(n) == _brute_prime_factors(n), n
        assert arith.mobius(n) == _brute_mobius(n), n
        assert euler_phi(n) == _brute_phi(n), n
        assert arith.divisors(n) == divisors, n


def test_large_query_then_small():
    assert arith.prime_factors(N_MAX) == {2: 4, 5: 3}
    for n in range(1, 200):
        assert arith.prime_factors(n) == _brute_prime_factors(n)


@pytest.mark.parametrize(
    "n, factors, mu, divisor_count",
    [
        (2**31 - 1, {2**31 - 1: 1}, -1, 2),  # a Mersenne prime
        (10**12, {2: 12, 5: 12}, 0, 169),
        (2 * 65521**2, {2: 1, 65521: 2}, 0, 6),  # the square of a prime near 2**16
    ],
)
def test_large_queries(n, factors, mu, divisor_count):
    assert arith.prime_factors(n) == factors
    assert arith.mobius(n) == mu
    assert len(arith.divisors(n)) == divisor_count


@pytest.mark.parametrize("n", [0, -1, -12])
def test_prime_factors_below_1_raises(n):
    with pytest.raises(ValueError):
        arith.prime_factors(n)
