"""Exact arithmetic for numerical semigroups.

Construction and invariants live on :class:`NumericalSemigroup`; the
surrounding modules compute product expansions of the semigroup polynomial,
factorization structure (Betti elements and their R-classes),
the member-difference order on them, complete intersections with their
gluing trees, exhaustive enumeration drivers, and batch verification of the
paper's claims over those families.
"""

from .bettiposet import (
    Classification,
    ExponentSupport,
    HasseDiagram,
    OrderedSubset,
    SemigroupAnalysis,
    TheoremReport,
    classify,
    exponent_support,
    leq,
    verify_theorems,
)
from .ci import (
    Gluing,
    GluingTree,
    LEAF,
    Leaf,
    gluing_decompose,
    is_complete_intersection,
)
from .enumeration import (
    ci_with_frobenius,
    enumerate_by_frobenius,
    enumerate_by_genus,
)
from .errors import (
    BadConstantTermError,
    BoundTooSmallError,
    EmptyGeneratorsError,
    IntegralityError,
    NonCoprimeGeneratorsError,
    NotAMemberError,
    NsgError,
)
from .factorization import (
    BettiData,
    FactorizationGraph,
    betti_elements,
    denumerant_series,
    factorization_graph,
    factorizations,
    presentation_size,
)
from .semigroup import NumericalSemigroup
from .verification import (
    CHECKS,
    FILTERS,
    EnumerationJob,
    ReportRecord,
    VerificationSummary,
    build_report,
    enumerate_job,
    run_verification,
)
from .witt import (
    CyclotomicFactorization,
    ExponentSequence,
    cyclotomic_polynomial,
    exponent_sequence,
    factor_into_cyclotomics,
    is_cyclotomic,
)

__version__ = "0.1.0"
