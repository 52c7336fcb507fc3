"""Everything derived from one semigroup, each part computed at most once.

The statements at gaps, at unique-factorization elements and at Betti
elements all read the same few objects: the exponent sequence, the
denumerants, the Betti catalog and the exponent support. A
:class:`SemigroupAnalysis` computes each of them on first use, by the
module-level function or the sweep that owns it, and keeps it, so every
check, filter and report on one semigroup shares a single copy. One
:class:`~nsg.witt.ExponentSweep` serves the sequence and the cyclotomic
test, each extending it only as far as it reads, so no entry is swept twice
whichever comes first. Each theorem check is its own method and reads only
what it needs.

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
from .witt import ExponentSequence, ExponentSweep


def _theorem_check(check_id: str, statement: str):
    """Report a method's witness (None when the statement holds) as a CheckResult.

    Every check is vacuous on the trivial semigroup, whose exponents are all 0.
    """
    def decorate(find_witness):
        def check(analysis: SemigroupAnalysis) -> CheckResult:
            if analysis.semigroup.is_trivial:
                return CheckResult(check_id, "vacuous for the trivial semigroup", True)
            witness = find_witness(analysis)
            return CheckResult(check_id, statement, witness is None, witness)
        return check
    return decorate


class SemigroupAnalysis:
    """Lazily cached invariants of one semigroup at one truncation bound.

    ``bound`` defaults to ``S.default_bound``, which covers every Betti
    element; a smaller bound raises :class:`BoundTooSmallError`. :attr:`sequence`,
    :attr:`full_exponents` and ``nsg analyze --bound`` each extend the one
    ``sweep`` only as far as they read.
    """

    def __init__(self, S: NumericalSemigroup, bound: int | None = None):
        least = S.default_bound
        if bound is None:
            bound = least
        elif bound < least:
            raise BoundTooSmallError(f"bound {bound} is below the default truncation {least}")
        self.semigroup = S
        self.bound = bound

    @cached_property
    def sweep(self) -> ExponentSweep:
        return ExponentSweep.of_semigroup(self.semigroup)

    @cached_property
    def sequence(self) -> ExponentSequence:
        """e_1..e_bound, the prefix of the sweep every check reads."""
        return self.sweep.prefix(self.bound)

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
    def full_exponents(self) -> dict[int, int] | None:
        """The whole (finite) exponent support when the polynomial is cyclotomic, else None."""
        if not self.semigroup.is_symmetric():  # a cyclotomic product is self-reciprocal
            return None
        factorization = self.sweep.cyclotomic_factors()
        return factorization.exponents if factorization.complete else None

    @property
    def cyclotomic(self) -> bool:
        return self.full_exponents is not None

    @cached_property
    def support(self) -> ExponentSupport:
        """The whole support when it is finite, else its prefix up to the bound."""
        S = self.semigroup
        generators = set(S.generators)
        full = self.full_exponents
        indices = self.sequence.support() if full is None else full
        members = tuple(j for j in indices if j >= 2 and j not in generators)
        assert full is None or all(j in S for j in members)
        return ExponentSupport(members, self.bound, full is not None)

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
        betti_forest = len(betti.u_set()) == len(betti)  # every down-set a chain

        support = self.support
        support_set = self.support_order
        if not support_set.is_totally_ordered():
            assert not betti_sorted, "incomparable support pair on a sorted Betti set"
        support_forest = len(support_set.u_set()) == len(support_set)
        if support.exact:
            assert betti_sorted == support_set.is_totally_ordered()
            assert betti_divisible == _totally_ordered_by_divisibility(support.members)
            assert unique_betti == (len(support.members) == 1)
            e_forest = support_forest
        else:
            e_forest = None if support_forest else False
        return Classification(
            betti_sorted, betti_divisible, unique_betti, betti_forest, e_forest
        )

    @_theorem_check(
        "exponent-values-at-generators-and-gaps",
        "e_1 = 1; e_j = 0 at gaps j >= 2; e_j = -1 at minimal generators; "
        "e_j = 0 at non-generators with a unique factorization",
    )
    def exponent_values_check(self):
        S, sequence, counts, top = self.semigroup, self.sequence, self.denumerants, self.bound
        if sequence[1] != 1:
            return f"e_1 = {sequence[1]}"
        generators, window = set(S.generators), S.window(top)
        for j, e in enumerate(sequence.entries[1:], start=2):
            if not window >> (top - j) & 1:
                if e != 0:
                    return f"gap {j} has e = {e}"
            elif j in generators:
                if e != -1:
                    return f"generator {j} has e = {e}"
            elif counts[j] == 1 and e != 0:
                return f"unique-factorization element {j} has e = {e}"
        return None

    @_theorem_check(
        "minimal-betti-vs-minimal-support",
        "minimal Betti elements = minimal support indices, "
        "with e = denumerant - 1 = isolated count - 1 there",
    )
    def minimal_betti_check(self):
        sequence, counts, catalog = self.sequence, self.denumerants, self.betti
        betti_minimals = self.betti_order.minimals()
        support_minimals = self.prefix_support_order.minimals()
        if set(betti_minimals) != set(support_minimals):
            return f"minimals differ: {betti_minimals} vs {support_minimals}"
        for alpha in betti_minimals:
            isolated = catalog[alpha].isolated_count
            if not (sequence[alpha] == counts[alpha] - 1 == isolated - 1):
                return (f"at {alpha}: e = {sequence[alpha]}, denumerant - 1 = "
                        f"{counts[alpha] - 1}, isolated - 1 = {isolated - 1}")
        return None

    @_theorem_check(
        "chain-betti-vs-chain-support",
        "Betti elements with chain down-sets = support indices with chain "
        "down-sets, with e = R-class count - 1 there",
    )
    def chain_betti_check(self):
        sequence, catalog = self.sequence, self.betti
        betti_u = self.betti_order.u_set()
        support_u = self.prefix_support_order.u_set()
        if betti_u != support_u:
            return f"chain parts differ: {betti_u} vs {support_u}"
        for b in betti_u:
            if sequence[b] != catalog[b].nc - 1:
                return f"at {b}: e = {sequence[b]}, classes - 1 = {catalog[b].nc - 1}"
        return None

    @_theorem_check(
        "support-below-every-multifactor-element",
        "every element with at least two factorizations has a support "
        "index below it",
    )
    def support_below_check(self):
        # anything above a support index lies above a minimal one below it
        S, counts = self.semigroup, self.denumerants
        support_minimals = self.prefix_support_order.minimals()
        for s in range(self.bound + 1):
            if counts[s] >= 2 and not any(leq(S, m, s) for m in support_minimals):
                return f"{s} has {counts[s]} factorizations but no support index below"
        return None

    @cached_property
    def theorem_report(self) -> TheoremReport:
        """What :func:`~nsg.bettiposet.verify_theorems` reports at the bound."""
        checks = self.exponent_values_check(), self.minimal_betti_check()
        checks += self.chain_betti_check(), self.support_below_check()
        return TheoremReport(self.semigroup.generators, self.bound, checks)


def _totally_ordered_by_divisibility(values) -> bool:
    values = sorted(values)
    return all(b % a == 0 for a, b in zip(values, values[1:]))

