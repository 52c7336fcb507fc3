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


@pytest.fixture
def cold_sieve(monkeypatch):
    """A fresh sieve, so ascending queries regrow it several times."""
    monkeypatch.setattr(arith, "_spf", [0, 1])


def test_against_brute_force_across_regrowths(cold_sieve):
    sizes = set()
    for n in range(1, N_MAX + 1):
        divisors = _brute_divisors(n)
        assert arith.prime_factors(n) == _brute_prime_factors(n), n
        assert arith.mobius(n) == _brute_mobius(n), n
        assert euler_phi(n) == _brute_phi(n), n
        assert arith.divisors(n) == divisors, n
        sizes.add(len(arith._spf))
    assert len(sizes) > 5  # the sieve grew many times along the way


def test_large_query_then_small(cold_sieve):
    assert arith.prime_factors(N_MAX) == {2: 4, 5: 3}
    assert len(arith._spf) > N_MAX
    for n in range(1, 200):
        assert arith.prime_factors(n) == _brute_prime_factors(n)


def test_sieve_holds_at_most_twice_the_largest_query(cold_sieve):
    largest = 0
    for n in [1, 2, 3, 5, 4, 9, 17, 16, 100, 101, 50, 257, 1000, 1999, 2000, 4001]:
        arith.prime_factors(n)
        largest = max(largest, n)
        assert len(arith._spf) <= 2 * largest, n
    assert len(arith._spf) > largest


@pytest.mark.parametrize("n", [0, -1, -12])
def test_prime_factors_below_1_raises(n):
    with pytest.raises(ValueError):
        arith.prime_factors(n)
