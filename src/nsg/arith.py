"""Small number-theoretic helpers: divisors, Euler phi, Moebius mu.

All three are backed by a shared smallest-prime-factor sieve that grows on
demand, so repeated queries stay cheap.
"""

_spf: list[int] = [0, 1]  # smallest prime factor; _spf[1] = 1 by convention
"""The sieve behind every helper here, bounded by the queries made.

It grows only when a query n is past its end, to max(n + 1, twice its old
length); since the old length is at most n, it never holds more than twice
the largest query.
"""


def _ensure_sieve(n: int) -> None:
    if n < len(_spf):
        return
    size = max(n + 1, 2 * len(_spf))
    sieve = list(range(size))
    for p in range(2, int(size**0.5) + 1):
        if sieve[p] == p:  # p prime
            for multiple in range(p * p, size, p):
                if sieve[multiple] == multiple:
                    sieve[multiple] = p
    sieve[1] = 1
    _spf.clear()
    _spf.extend(sieve)


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, n >= 1."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    _ensure_sieve(n)
    factors: dict[int, int] = {}
    while n > 1:
        p = _spf[n]
        factors[p] = factors.get(p, 0) + 1
        n //= p
    return factors


def mobius(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors).

    Kept only because ``perfbench/trace.py`` counts its calls, which now read
    0; it goes with the next benchmark change.
    """
    factors = prime_factors(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in prime_factors(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
