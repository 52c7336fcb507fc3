"""Dense polynomials over the integers.

A polynomial is a plain ``list[int]`` whose index is the degree, kept trimmed
(no trailing zeros, ``[]`` is the zero polynomial). Everything here is exact:
Python integers never overflow and divisions assert their own exactness.

The verdict path reads only :func:`trim`, for the exponent sweep's numerator.
:func:`divexact` divides the factors x^d - 1 with mu(n/d) = -1 out of
:func:`~nsg.witt.cyclotomic_polynomial`'s Moebius product, and
:func:`divides` has no caller in the package; it stays because
``perfbench/trace.py`` binds it by name. The product of two polynomials is a
test oracle only.
"""

from .errors import IntegralityError


def trim(coeffs: list[int]) -> list[int]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


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
    """True iff polynomial b divides a exactly over the integers.

    Kept only because ``perfbench/trace.py`` counts its calls, which now read
    0; it goes with the next benchmark change.
    """
    try:
        divexact(a, b)
    except IntegralityError:
        return False
    return True
