"""Exact arithmetic for numerical semigroups.

Construction and invariants live on :class:`NumericalSemigroup`; the
surrounding modules compute product expansions of the semigroup polynomial,
factorization structure (Betti elements, R-classes, minimal presentations),
the member-difference order on them, complete intersections with their
gluing trees, exhaustive enumeration drivers, and batch verification of the
paper's claims over those families.
"""

from .analysis import SemigroupAnalysis
from .bettiposet import (
    Classification,
    ExponentSupport,
    HasseDiagram,
    OrderedSubset,
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
    walk_genus_tree,
)
from .errors import (
    BadConstantTermError,
    BoundTooSmallError,
    EmptyGeneratorsError,
    IntegralityError,
    NonCoprimeGeneratorsError,
    NotAMemberError,
    NotIsolatedBettiError,
    NsgError,
)
from .factorization import (
    BettiData,
    FactorizationGraph,
    MinimalPresentation,
    betti_elements,
    betti_search_bound,
    denumerant,
    denumerant_series,
    factorization_graph,
    factorizations,
    isolated_factorizations,
    minimal_presentation,
    presentation_size,
    restricted_factorizations,
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
    cyclotomic_factorization,
    cyclotomic_polynomial,
    exponent_sequence,
    factor_into_cyclotomics,
    is_cyclotomic,
    power_sums,
    witt_expand_moebius,
)

__version__ = "0.1.0"
