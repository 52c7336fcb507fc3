"""Dense polynomials and truncated power series over the integers.

A polynomial or series prefix is a plain ``list[int]`` whose index is the
degree. Polynomials are kept trimmed (no trailing zeros, ``[]`` is the zero
polynomial); series prefixes have a fixed length ``bound + 1``. Everything
here is exact: Python integers never overflow and divisions assert their own
exactness.
"""

from .errors import IntegralityError

ONE = [1]


def trim(coeffs: list[int]) -> list[int]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def degree(poly: list[int]) -> int:
    """Degree of a trimmed polynomial; the zero polynomial has degree -1."""
    return len(trim(poly)) - 1


def sub(a: list[int], b: list[int]) -> list[int]:
    out = a[:] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return trim(out)


def mul(a: list[int], b: list[int]) -> list[int]:
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


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


def divexact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b when b divides a over the integers.

    Raises IntegralityError on a non-zero remainder or a non-exact leading
    division step.
    """
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if len(a) < len(b):
        raise IntegralityError("division is not exact: degree too small")
    rem = a[:]
    lead = b[-1]
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        coefficient = rem[shift + len(b) - 1]
        if coefficient % lead != 0:
            raise IntegralityError("division is not exact: leading step")
        q = coefficient // lead
        out[shift] = q
        if q:
            for i, cb in enumerate(b):
                rem[shift + i] -= q * cb
    if any(rem):
        raise IntegralityError("division is not exact: non-zero remainder")
    return trim(out)


def divides(b: list[int], a: list[int]) -> bool:
    """True iff polynomial b divides a exactly over the integers."""
    try:
        divexact(a, b)
    except IntegralityError:
        return False
    return True


def one_minus_xk(k: int) -> list[int]:
    out = [0] * (k + 1)
    out[0] = 1
    out[k] = -1
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


def evaluate(poly: list[int], x: int) -> int:
    result = 0
    for c in reversed(poly):
        result = result * x + c
    return result


def is_self_reciprocal(poly: list[int]) -> bool:
    poly = trim(poly)
    return poly == poly[::-1]
