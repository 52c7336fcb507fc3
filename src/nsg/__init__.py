"""Exact arithmetic for numerical semigroups.

Construction and invariants live on :class:`NumericalSemigroup`; the
surrounding modules compute product expansions of the semigroup polynomial,
factorization structure (Betti elements, R-classes, minimal presentations),
the member-difference order on them, complete-intersection witnesses, and
exhaustive enumeration drivers.
"""

from .analysis import SemigroupAnalysis
from .bettiposet import (
    Classification,
    ExponentSupport,
    HasseDiagram,
    OrderedSubset,
    ResidualSeries,
    TheoremReport,
    classify,
    exponent_support,
    leq,
    residual_coefficients,
    verify_theorems,
)
from .ci import (
    Gluing,
    GluingTree,
    LEAF,
    Leaf,
    gluing_decompose,
    is_complete_intersection,
    verify_ci_identities,
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
    ChainNotSortedError,
    EmptyGeneratorsError,
    IntegralityError,
    NonCoprimeGeneratorsError,
    NotAMemberError,
    NotCompleteIntersectionError,
    NotInSubsetError,
    NotIsolatedBettiError,
    NsgError,
    RootSeparationError,
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
    GrowthReport,
    cyclotomic_factorization,
    cyclotomic_polynomial,
    exponent_sequence,
    factor_into_cyclotomics,
    growth_envelope_check,
    is_cyclotomic,
    necklace_coefficient,
    power_sums,
    reconstruct_prefix,
    witt_expand_moebius,
)

__version__ = "0.1.0"
