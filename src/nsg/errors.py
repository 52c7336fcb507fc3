"""Exception types raised across the package."""


class NsgError(Exception):
    """Base class for all package-specific errors."""


class EmptyGeneratorsError(NsgError, ValueError):
    """A semigroup needs at least one generator."""


class NonCoprimeGeneratorsError(NsgError, ValueError):
    """gcd of the generators exceeds 1, so the complement would be infinite."""


class NotAMemberError(NsgError, ValueError):
    """An operation required an element of the semigroup and got a non-member."""


class BadConstantTermError(NsgError, ValueError):
    """Series/polynomial input must have constant coefficient 1."""


class IntegralityError(NsgError, ArithmeticError):
    """A division that is provably exact failed; signals an implementation bug."""


def require_int(value, what: str, least: float = float("-inf")) -> None:
    """A ValueError ``"{what}, got {value!r}"`` unless value is an int >= least, and no bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{what}, got {value!r}")
