"""The divisibility-style order on a semigroup and what it says about exponents.

``a <= b`` here means ``b - a`` is a member. Betti elements and the indices
where the exponent sequence is non-zero (minimal generators excluded) carry
matching order structure: their minimal elements agree, and so do the
elements whose down-set is a chain. On those elements the exponent value is
the number of R-classes minus one. :func:`verify_theorems` re-checks all of
this on concrete semigroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .semigroup import NumericalSemigroup


def leq(S: NumericalSemigroup, a: int, b: int) -> bool:
    """Whether b - a is a member, the partial order used throughout."""
    return (b - a) in S


class OrderedSubset:
    """A finite set of integers with the member-difference order cached.

    The comparison matrix is tiny for the sets that arise (Betti sets,
    truncated exponent supports), so it is materialized eagerly.
    """

    def __init__(self, S: NumericalSemigroup, elements):
        self.S = S
        self.elements = tuple(sorted(set(elements)))
        index = {x: i for i, x in enumerate(self.elements)}
        self._index = index
        self._leq = [
            [leq(S, a, b) for b in self.elements] for a in self.elements
        ]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def leq(self, a: int, b: int) -> bool:
        return self._leq[self._index[a]][self._index[b]]

    def minimals(self) -> tuple[int, ...]:
        return tuple(
            x
            for x in self.elements
            if not any(y != x and self.leq(y, x) for y in self.elements)
        )

    def is_totally_ordered(self) -> bool:
        n = len(self.elements)
        return all(
            self._leq[i][j] or self._leq[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def u_set(self) -> "OrderedSubset":
        """Elements whose down-set is a chain; keeps the same minimals.

        Read from the cached order: x qualifies when the elements below it
        are pairwise comparable.
        """
        leq = self._leq
        chosen = []
        for j, x in enumerate(self.elements):
            below = [i for i, row in enumerate(leq) if row[j]]
            if all(leq[a][b] or leq[b][a] for a, b in combinations(below, 2)):
                chosen.append(x)
        return OrderedSubset(self.S, chosen)

    def hasse(self) -> "HasseDiagram":
        """Cover graph by transitive reduction of the cached order."""
        covers = []
        for a in self.elements:
            for b in self.elements:
                if a == b or not self.leq(a, b):
                    continue
                if any(
                    c not in (a, b) and self.leq(a, c) and self.leq(c, b)
                    for c in self.elements
                ):
                    continue
                covers.append((a, b))
        lower_cover_count = {x: 0 for x in self.elements}
        for _, b in covers:
            lower_cover_count[b] += 1
        is_forest = all(n <= 1 for n in lower_cover_count.values())
        return HasseDiagram(self.elements, tuple(sorted(covers)), is_forest)


@dataclass(frozen=True)
class HasseDiagram:
    elements: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    is_forest: bool

    def to_dot(self) -> str:
        lines = ["digraph hasse {"]
        for x in self.elements:
            lines.append(f'  "{x}";')
        for a, b in self.covers:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExponentSupport:
    """Indices d >= 2 with non-zero exponent that are not minimal generators.

    ``exact`` is True when the semigroup polynomial factors completely into
    cyclotomic polynomials, in which case ``members`` is the whole (finite)
    set; otherwise it is the part visible below the truncation bound.
    """

    members: tuple[int, ...]
    bound: int
    exact: bool


def exponent_support(S: NumericalSemigroup, bound: int | None = None) -> ExponentSupport:
    """The exponent support at ``bound``, by default ``S.default_bound``."""
    from .analysis import SemigroupAnalysis  # the analysis layer sits above this module

    return SemigroupAnalysis(S, bound).support


@dataclass(frozen=True)
class Classification:
    """Order-theoretic flags of the Betti set, with exponent-side cross-checks.

    ``e_forest`` is three-valued. True is reported only for an exact (finite)
    support whose Hasse diagram is a forest. False may come from a truncated
    prefix and is still a certificate: every lower cover of b lies
    numerically below b, and so does anything between a cover and b in the
    order, so a prefix that holds b holds all of b's lower covers, and an
    element with two lower covers there has two in the full support. None is
    returned only when the support is not exact and its prefix is a forest:
    forest-ness of an infinite support cannot be decided from such a prefix,
    and an undecided answer is reported as such rather than guessed.
    """

    betti_sorted: bool
    betti_divisible: bool
    unique_betti: bool
    betti_forest: bool
    e_forest: bool | None

    def to_json_dict(self) -> dict:
        return {
            "betti_sorted": self.betti_sorted,
            "betti_divisible": self.betti_divisible,
            "unique_betti": self.unique_betti,
            "betti_forest": self.betti_forest,
            "e_forest": self.e_forest,
        }


def classify(S: NumericalSemigroup) -> Classification:
    """Ground-truth flags from the Betti catalog.

    The exponent-side equivalents are evaluated as consistency checks: an
    incomparable pair in the truncated support certifies non-sortedness, and
    for finitely supported sequences the equivalences are checked exactly.
    """
    from .analysis import SemigroupAnalysis

    return SemigroupAnalysis(S).classification


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statement: str
    passed: bool
    witness: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "statement_ref": self.statement,
            "pass": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class TheoremReport:
    generators: tuple[int, ...]
    bound: int
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "bound": self.bound,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def verify_theorems(S: NumericalSemigroup, bound: int | None = None) -> TheoremReport:
    """Re-verify the exponent/Betti structure theorems on one semigroup.

    Checks, in order: the exponent values at generators, gaps and
    unique-factorization elements; the agreement of minimal Betti elements
    with minimal support indices together with their exponent value; the
    agreement of the chain-down-set parts together with e = nc - 1 there; and
    that every element with two factorizations dominates a support index.
    """
    from .analysis import SemigroupAnalysis

    return SemigroupAnalysis(S, bound).theorem_report
