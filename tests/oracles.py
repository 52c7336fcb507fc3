"""Polynomial and series oracles shared by several test files.

None of these is on a route ``nsg`` takes to a verdict: they rebuild series
from exponents and state properties in their textbook form, so the tests can
check the package's one route against them. A polynomial or series prefix is
a ``list[int]`` indexed by degree, as in :mod:`nsg.intpoly`; a series prefix
has the fixed length ``bound + 1``.
"""

from nsg.intpoly import trim


def degree(poly: list[int]) -> int:
    """Degree of a polynomial; the zero polynomial has degree -1."""
    return len(trim(poly)) - 1


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
