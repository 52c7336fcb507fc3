"""Everything derived from one semigroup, each part computed at most once.

The statements at gaps, at unique-factorization elements and at Betti
elements all read the same few objects: the exponent sequence, the
denumerants, the Betti catalog and the exponent support. A
:class:`SemigroupAnalysis` computes each of them on first use, by the
module-level function that owns it, and keeps it, so every check, filter
and report on one semigroup shares a single copy.

An analysis holds its semigroup and nothing else across calls; callers
create one per semigroup and drop it when done, so no cache outlives the
semigroup it describes. :func:`~nsg.bettiposet.verify_theorems`,
:func:`~nsg.bettiposet.classify`, :func:`~nsg.bettiposet.exponent_support`
and :func:`~nsg.ci.is_complete_intersection` are entry points onto a fresh
analysis.
"""

from __future__ import annotations

from functools import cached_property

from .bettiposet import (
    CheckResult,
    Classification,
    ExponentSupport,
    OrderedSubset,
    TheoremReport,
    leq,
)
from .errors import BoundTooSmallError
from .factorization import BettiData, betti_elements, denumerant_series
from .semigroup import NumericalSemigroup
from .witt import (
    CyclotomicFactorization,
    ExponentSequence,
    cyclotomic_factorization,
    exponent_sequence,
    exponents_from_cyclotomic_factors,
)


class SemigroupAnalysis:
    """Lazily cached invariants of one semigroup at one truncation bound.

    ``bound`` defaults to ``S.default_bound``, which covers every Betti
    element; a smaller bound raises :class:`BoundTooSmallError`.
    """

    def __init__(self, S: NumericalSemigroup, bound: int | None = None):
        if bound is None:
            bound = S.default_bound
        if bound < S.default_bound:
            raise BoundTooSmallError(
                f"bound {bound} is below the default truncation {S.default_bound}"
            )
        self.semigroup = S
        self.bound = bound

    @cached_property
    def sequence(self) -> ExponentSequence:
        return exponent_sequence(self.semigroup, self.bound)

    @cached_property
    def denumerants(self) -> list[int]:
        """Factorization counts of 0..bound."""
        return denumerant_series(self.semigroup, self.bound)

    @cached_property
    def betti(self) -> dict[int, BettiData]:
        return betti_elements(self.semigroup)

    @cached_property
    def complete_intersection(self) -> bool:
        """Whether a minimal presentation has embedding dimension - 1 relations.

        Complete intersections are symmetric (Herzog 1970), so the Betti
        catalog is read only behind the symmetry gate. The trivial semigroup
        is symmetric with an empty catalog and embedding dimension 1, so it
        is a complete intersection by the same sum.
        """
        S = self.semigroup
        if not S.is_symmetric():
            return False
        size = sum(data.nc - 1 for data in self.betti.values())
        return size == S.embedding_dimension - 1

    @cached_property
    def cyclotomic_factorization(self) -> CyclotomicFactorization | None:
        """None when the semigroup is not symmetric."""
        return cyclotomic_factorization(self.semigroup)

    @cached_property
    def full_exponents(self) -> dict[int, int] | None:
        """The whole (finite) exponent support when the polynomial is cyclotomic, else None."""
        factorization = self.cyclotomic_factorization
        if factorization is None or not factorization.complete:
            return None
        return exponents_from_cyclotomic_factors(factorization.factors)

    @property
    def cyclotomic(self) -> bool:
        return self.full_exponents is not None

    @cached_property
    def support(self) -> ExponentSupport:
        S, bound = self.semigroup, self.bound
        generators = set(S.generators)
        sequence = self.sequence
        prefix_members = tuple(
            j for j in range(2, bound + 1) if sequence[j] != 0 and j not in generators
        )
        full = self.full_exponents
        if full is None:
            return ExponentSupport(prefix_members, bound, False)
        members = tuple(
            sorted(j for j, e in full.items() if j >= 2 and e != 0 and j not in generators)
        )
        assert prefix_members == tuple(j for j in members if j <= bound)
        assert all(j in S for j in members)
        return ExponentSupport(members, bound, True)

    @cached_property
    def betti_order(self) -> OrderedSubset:
        return OrderedSubset(self.semigroup, self.betti)

    @cached_property
    def support_order(self) -> OrderedSubset:
        """The order on the whole support when it is exact, else on its prefix."""
        return OrderedSubset(self.semigroup, self.support.members)

    @cached_property
    def prefix_support_order(self) -> OrderedSubset:
        """The order on the support indices up to the bound."""
        members = self.support.members
        prefix = [j for j in members if j <= self.bound]
        if len(prefix) == len(members):
            return self.support_order
        return OrderedSubset(self.semigroup, prefix)

    @cached_property
    def classification(self) -> Classification:
        """What :func:`~nsg.bettiposet.classify` reports."""
        betti = self.betti_order
        betti_sorted = betti.is_totally_ordered()
        betti_divisible = _totally_ordered_by_divisibility(betti.elements)
        unique_betti = len(betti) == 1
        betti_forest = betti.hasse().is_forest

        support = self.support
        support_set = self.support_order
        if not support_set.is_totally_ordered():
            assert not betti_sorted, "incomparable support pair on a sorted Betti set"
        if support.exact:
            assert betti_sorted == support_set.is_totally_ordered()
            assert betti_divisible == _totally_ordered_by_divisibility(support.members)
            assert unique_betti == (len(support.members) == 1)
            e_forest = support_set.hasse().is_forest
        else:
            prefix_forest = support_set.hasse().is_forest
            e_forest = None if prefix_forest else False
        return Classification(
            betti_sorted, betti_divisible, unique_betti, betti_forest, e_forest
        )

    @cached_property
    def theorem_report(self) -> TheoremReport:
        """What :func:`~nsg.bettiposet.verify_theorems` reports at the bound."""
        S, bound = self.semigroup, self.bound
        if S.is_trivial:
            checks = tuple(
                CheckResult(check_id, "vacuous for the trivial semigroup", True)
                for check_id in (
                    "exponent-values-at-generators-and-gaps",
                    "minimal-betti-vs-minimal-support",
                    "chain-betti-vs-chain-support",
                    "support-below-every-multifactor-element",
                )
            )
            return TheoremReport(S.generators, bound, checks)

        sequence = self.sequence
        counts = self.denumerants
        catalog = self.betti
        betti = self.betti_order
        support_set = self.prefix_support_order
        prefix_members = support_set.elements

        checks = [_check_exponent_values(S, sequence, counts)]

        witness = None
        betti_minimals = betti.minimals()
        support_minimals = support_set.minimals()
        if set(betti_minimals) != set(support_minimals):
            witness = f"minimals differ: {betti_minimals} vs {support_minimals}"
        else:
            for alpha in betti_minimals:
                isolated = catalog[alpha].isolated_count
                if not (sequence[alpha] == counts[alpha] - 1 == isolated - 1):
                    witness = (
                        f"at {alpha}: e = {sequence[alpha]}, "
                        f"denumerant - 1 = {counts[alpha] - 1}, isolated - 1 = {isolated - 1}"
                    )
                    break
        checks.append(
            CheckResult(
                "minimal-betti-vs-minimal-support",
                "minimal Betti elements = minimal support indices, "
                "with e = denumerant - 1 = isolated count - 1 there",
                witness is None,
                witness,
            )
        )

        witness = None
        betti_u = betti.u_set()
        support_u = support_set.u_set()
        if set(betti_u) != set(support_u):
            witness = f"chain parts differ: {tuple(betti_u)} vs {tuple(support_u)}"
        else:
            for b in betti_u:
                if sequence[b] != catalog[b].nc - 1:
                    witness = f"at {b}: e = {sequence[b]}, classes - 1 = {catalog[b].nc - 1}"
                    break
        checks.append(
            CheckResult(
                "chain-betti-vs-chain-support",
                "Betti elements with chain down-sets = support indices with chain "
                "down-sets, with e = R-class count - 1 there",
                witness is None,
                witness,
            )
        )

        witness = None
        for s in range(bound + 1):
            if counts[s] >= 2 and not any(leq(S, d, s) for d in prefix_members):
                witness = f"{s} has {counts[s]} factorizations but no support index below"
                break
        checks.append(
            CheckResult(
                "support-below-every-multifactor-element",
                "every element with at least two factorizations has a support "
                "index below it",
                witness is None,
                witness,
            )
        )
        return TheoremReport(S.generators, bound, tuple(checks))


def _totally_ordered_by_divisibility(values) -> bool:
    values = sorted(values)
    return all(b % a == 0 for a, b in zip(values, values[1:]))


def _check_exponent_values(
    S: NumericalSemigroup, sequence: ExponentSequence, counts: list[int]
) -> CheckResult:
    check_id = "exponent-values-at-generators-and-gaps"
    statement = (
        "e_1 = 1; e_j = 0 at gaps j >= 2; e_j = -1 at minimal generators; "
        "e_j = 0 at non-generators with a unique factorization"
    )
    generators = set(S.generators)
    witness = None
    if sequence[1] != 1:
        witness = f"e_1 = {sequence[1]}"
    for j in range(2, sequence.bound + 1):
        if witness:
            break
        e = sequence[j]
        if j not in S:
            if e != 0:
                witness = f"gap {j} has e = {e}"
        elif j in generators:
            if e != -1:
                witness = f"generator {j} has e = {e}"
        elif counts[j] == 1 and e != 0:
            witness = f"unique-factorization element {j} has e = {e}"
    return CheckResult(check_id, statement, witness is None, witness)
