"""Prime factors, divisors and Moebius mu, all by trial division.

No state is kept between calls, and a query n takes O(sqrt(n)) steps.
"""


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, n >= 1."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:  # what is left has no factor up to its square root
        factors[n] = 1
    return factors


def mobius(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    factors = prime_factors(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in prime_factors(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
