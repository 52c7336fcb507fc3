"""The divisibility-style order on a semigroup and what it says about exponents.

``a <= b`` here means ``b - a`` is a member. Betti elements and the indices
where the exponent sequence is non-zero (minimal generators excluded) carry
matching order structure: their minimal elements agree, and so do the
elements whose down-set is a chain. On those elements the exponent value is
the number of R-classes minus one. :func:`verify_theorems` re-checks all of
this on concrete semigroups.
"""

from __future__ import annotations

from typing import NamedTuple

from .semigroup import NumericalSemigroup


def leq(S: NumericalSemigroup, a: int, b: int) -> bool:
    """Whether b - a is a member, the partial order used throughout."""
    return (b - a) in S


class OrderedSubset:
    """A finite set of non-negative integers with the member-difference order cached.

    The down-set of b is kept as a bitmask over values, bit a set iff a is an
    element and b - a a member: one shift of S's window over 0..max, ANDed
    with the mask of the elements. The queries rest on these facts about the
    order (Rosales & García-Sánchez, *Numerical Semigroups*, ch. 7):

    - It refines the integer order: a <= b in it makes b - a a member, so
      a <= b as integers. The down-set of an element therefore lies among
      the elements up to it. A set is a chain exactly when each element lies
      below the next one in ascending order.
    - The lower covers of b are the maximal elements of its strict down-set.
    - The Hasse diagram is a forest (at most one lower cover each) exactly
      when every down-set is a chain.
    - The strict down-set D of b is a chain exactly when it is empty, or its
      largest element a has down-set D and a's strict down-set is a chain (a
      chain lies in its largest element's down-set). One flag each keeps this.
    """

    def __init__(self, S: NumericalSemigroup, elements):
        self.S = S
        self.elements = elements = tuple(sorted(set(elements)))
        top = elements[-1] if elements else 0
        window, self._members = S.window(top), sum(1 << x for x in elements)
        # ascending in b: bit a of _down[b] is set when a <= b
        self._down = down = {b: window >> (top - b) & self._members for b in elements}
        chains = 0  # bit b set when b's down-set is a chain
        for b, below in down.items():
            strict = below ^ 1 << b
            a = strict.bit_length() - 1
            if not strict or (down[a] == strict and chains >> a & 1):
                chains |= 1 << b
        self._chains = chains

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._down

    def leq(self, a: int, b: int) -> bool:
        return bool(self._down[b] >> a & 1)

    def minimals(self) -> tuple[int, ...]:
        return tuple(x for x, below in self._down.items() if below == 1 << x)

    def is_totally_ordered(self) -> bool:
        """Whether each element lies below the next one in ascending order."""
        return all(self._down[b] >> a & 1 for a, b in zip(self.elements, self.elements[1:]))

    def u_set(self) -> tuple[int, ...]:
        """Elements whose down-set is a chain, ascending; keeps the same minimals."""
        return tuple(x for x in self.elements if self._chains >> x & 1)

    def hasse(self) -> "HasseDiagram":
        """Cover graph: each b's lower covers are the maximal elements below it."""
        covers = []
        for b, below in self._down.items():
            strict = below ^ 1 << b
            under = 0
            for a in _bits(strict):
                under |= self._down[a] ^ 1 << a
            covers.extend((a, b) for a in _bits(strict & ~under))
        return HasseDiagram(self.elements, tuple(sorted(covers)), self._chains == self._members)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class HasseDiagram(NamedTuple):
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


class ExponentSupport(NamedTuple):
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


class Classification(NamedTuple):
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
        return self._asdict()


def classify(S: NumericalSemigroup) -> Classification:
    """Ground-truth flags from the Betti catalog.

    The exponent-side equivalents are evaluated as consistency checks: an
    incomparable pair in the truncated support certifies non-sortedness, and
    for finitely supported sequences the equivalences are checked exactly.
    """
    from .analysis import SemigroupAnalysis

    return SemigroupAnalysis(S).classification


class CheckResult(NamedTuple):
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


class TheoremReport(NamedTuple):
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
