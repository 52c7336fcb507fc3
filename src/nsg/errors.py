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


class RootSeparationError(NsgError, ValueError):
    """The two smallest root moduli could not be numerically separated."""


class NotInSubsetError(NsgError, KeyError):
    """The element is not part of the ordered subset."""


class BoundTooSmallError(NsgError, ValueError):
    """The requested truncation bound is below the minimum this operation needs."""


class ChainNotSortedError(NsgError, ValueError):
    """Chain elements must be pairwise comparable and given in ascending order."""


class NotIsolatedBettiError(NsgError, ValueError):
    """Restriction sets must consist of Betti elements with isolated factorizations."""


class NotCompleteIntersectionError(NsgError, ValueError):
    """The operation is only defined for complete intersection semigroups."""
