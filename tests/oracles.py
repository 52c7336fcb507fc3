"""Polynomial and series oracles shared by several test files.

None of these is on a route ``nsg`` takes to a verdict: they rebuild series
from exponents and state properties in their textbook form, so the tests can
check the package's one route against them. A polynomial or series prefix is
a ``list[int]`` indexed by degree, as in :mod:`nsg.intpoly`; a series prefix
has the fixed length ``bound + 1``.
"""

from nsg.arith import prime_factors
from nsg.intpoly import divexact, mul, trim


def degree(poly: list[int]) -> int:
    """Degree of a polynomial; the zero polynomial has degree -1."""
    return len(trim(poly)) - 1


def euler_phi(n: int) -> int:
    """Euler's phi, ``n * prod (1 - 1/p)`` over the primes p | n."""
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


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
