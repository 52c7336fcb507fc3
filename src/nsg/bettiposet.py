"""The member-difference order on a semigroup, and the analysis that checks the paper on it.

``a <= b`` here means ``b - a`` is a member. Betti elements and the indices
where the exponent sequence is non-zero (minimal generators excluded) carry
matching order structure: their minimal elements agree, and so do the
elements whose down-set is a chain. On those elements the exponent value is
the number of R-classes minus one.

A :class:`SemigroupAnalysis` re-checks this on one semigroup, by one
``*_witness`` method per statement, as it does the conjecture that
cyclotomic means complete intersection (Ciolan, García-Sánchez and Moree).
It computes the exponent sequence, denumerants, Betti catalog and exponent
support on first use, each by the function or sweep that owns it, and keeps
them, so every check, filter and report on the semigroup shares one copy.
One :class:`~nsg.witt.ExponentSweep` serves the sequence and the cyclotomic
test, each extending it only as far as it reads. Callers make one analysis
per semigroup and drop it when done, so no cache outlives its semigroup.
:func:`classify`, :func:`exponent_support` and
:func:`~nsg.ci.is_complete_intersection` are entry points onto a fresh
analysis.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BoundTooSmallError, require_int
from .factorization import BettiData, betti_elements, denumerant_series
from .semigroup import NumericalSemigroup
from .witt import ExponentSequence, ExponentSweep


class cached_property:
    """:func:`functools.cached_property` without the lock CPython 3.11 takes on each first read.

    A non-data descriptor: the first read stores the value in the instance
    ``__dict__``, which later reads (and writes) reach without calling it.
    """

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


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
        window, members = S.window(top), sum(1 << x for x in elements)
        # ascending in b: bit a of _down[b] is set when a <= b
        self._down = down = {b: window >> (top - b) & members for b in elements}
        chains = 0  # bit b set when b's down-set is a chain
        for b, below in down.items():
            strict = below ^ 1 << b
            a = strict.bit_length() - 1
            if not strict or (down[a] == strict and chains >> a & 1):
                chains |= 1 << b
        self._chains, self.is_forest = chains, chains == members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._down

    def leq(self, a: int, b: int) -> bool:
        return a >= 0 and bool(self._down.get(b, 0) >> a & 1)

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
        return HasseDiagram(self.elements, tuple(sorted(covers)), self.is_forest)


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
    return SemigroupAnalysis(S).classification


def verify_theorems(S: NumericalSemigroup, bound: int | None = None) -> tuple[str | None, ...]:
    """The witnesses of the four theorem checks on S: values, minimal, chain, support-below.

    Kept only because ``perfbench/trace.py`` times it by name; it goes with
    the next benchmark change. The checks are :class:`SemigroupAnalysis`'s.
    """
    a = SemigroupAnalysis(S, bound)
    return (a.exponent_values_witness(), a.minimal_betti_witness(),
            a.chain_betti_witness(), a.support_below_witness())


class SemigroupAnalysis:
    """Lazily cached invariants of one semigroup at one truncation bound.

    ``bound`` defaults to ``S.default_bound``, which covers every Betti
    element; a smaller int raises :class:`BoundTooSmallError` and any other
    type (bool included) a ValueError, both at construction. :attr:`sequence`,
    :attr:`full_exponents` and ``nsg analyze --bound`` each extend the one
    ``sweep`` only as far as they read. The one symmetry gate is at
    construction: a non-symmetric semigroup gets ``full_exponents`` None (a
    cyclotomic product is self-reciprocal) and ``complete_intersection``
    False (complete intersections are symmetric, Herzog 1970), read off no
    sweep or catalog.

    The ``*_witness`` methods are the checks: each returns None when its
    statement holds, else its first counterexample as text. Those of the
    theorems and of the negative exponents are vacuous on the trivial
    semigroup (all exponents 0) and read none of its invariants.
    """

    def __init__(self, S: NumericalSemigroup, bound: int | None = None):
        least = S.default_bound
        bound = least if bound is None else bound
        require_int(bound, "bound must be an int")
        if bound < least:
            raise BoundTooSmallError(f"bound {bound} is below the default truncation {least}")
        self.semigroup = S
        self.bound = bound
        if not S.is_symmetric():
            self.full_exponents, self.complete_intersection = None, False

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

        The trivial semigroup is symmetric with an empty catalog and embedding
        dimension 1, so it is a complete intersection by the same sum.
        """
        size = sum(data.nc - 1 for data in self.betti.values())
        return size == self.semigroup.embedding_dimension - 1

    @cached_property
    def full_exponents(self) -> dict[int, int] | None:
        """The whole (finite) exponent support when the polynomial is cyclotomic, else None."""
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
        """The order on the whole support when it is exact, else on its prefix.

        Every support-side check reads this order, so an exact support is
        checked in full, past the bound too.
        """
        return OrderedSubset(self.semigroup, self.support.members)

    @cached_property
    def classification(self) -> Classification:
        """What :func:`classify` reports."""
        betti = self.betti_order
        betti_sorted = betti.is_totally_ordered()
        betti_divisible = _totally_ordered_by_divisibility(betti.elements)
        unique_betti = len(betti) == 1

        support = self.support
        support_set = self.support_order
        if not support_set.is_totally_ordered():
            assert not betti_sorted, "incomparable support pair on a sorted Betti set"
        if support.exact:
            assert betti_sorted == support_set.is_totally_ordered()
            assert betti_divisible == _totally_ordered_by_divisibility(support.members)
            assert unique_betti == (len(support.members) == 1)
            e_forest = support_set.is_forest
        else:
            e_forest = None if support_set.is_forest else False
        return Classification(
            betti_sorted, betti_divisible, unique_betti, betti.is_forest, e_forest
        )

    def exponent_values_witness(self) -> str | None:
        """e_1 = 1, and e_j is 0 at gaps j >= 2, -1 at minimal generators and 0 at
        other elements with a unique factorization."""
        if self.semigroup.is_trivial:
            return None
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

    def minimal_betti_witness(self) -> str | None:
        """Minimal Betti elements = minimal support indices, with e = denumerant - 1
        = isolated count - 1 there."""
        if self.semigroup.is_trivial:
            return None
        sequence, counts, catalog = self.sequence, self.denumerants, self.betti
        betti_minimals = self.betti_order.minimals()
        support_minimals = self.support_order.minimals()
        if set(betti_minimals) != set(support_minimals):
            return f"minimals differ: {betti_minimals} vs {support_minimals}"
        for alpha in betti_minimals:
            isolated = catalog[alpha].isolated_count
            if not (sequence[alpha] == counts[alpha] - 1 == isolated - 1):
                return (f"at {alpha}: e = {sequence[alpha]}, denumerant - 1 = "
                        f"{counts[alpha] - 1}, isolated - 1 = {isolated - 1}")
        return None

    def chain_betti_witness(self) -> str | None:
        """Betti elements with chain down-sets = support indices with chain down-sets,
        with e = R-class count - 1 there."""
        if self.semigroup.is_trivial:
            return None
        sequence, catalog = self.sequence, self.betti
        betti_u = self.betti_order.u_set()
        support_u = self.support_order.u_set()
        if betti_u != support_u:
            return f"chain parts differ: {betti_u} vs {support_u}"
        for b in betti_u:
            if sequence[b] != catalog[b].nc - 1:
                return f"at {b}: e = {sequence[b]}, classes - 1 = {catalog[b].nc - 1}"
        return None

    def support_below_witness(self) -> str | None:
        """Every element with at least two factorizations has a support index below it."""
        if self.semigroup.is_trivial:
            return None
        # anything above a support index lies above a minimal one below it
        S, counts = self.semigroup, self.denumerants
        support_minimals = self.support_order.minimals()
        for s in range(self.bound + 1):
            if counts[s] >= 2 and not any(leq(S, m, s) for m in support_minimals):
                return f"{s} has {counts[s]} factorizations but no support index below"
        return None

    def ci_cyclotomic_witness(self) -> str | None:
        """Cyclotomic exactly when a complete intersection (Ciolan, García-Sánchez, Moree)."""
        ci, cyclotomic = self.complete_intersection, self.cyclotomic
        return None if ci == cyclotomic else f"complete intersection {ci}, cyclotomic {cyclotomic}"

    def negative_support_witness(self) -> str | None:
        """On a finite support, the negative exponents are those at minimal generators."""
        if self.semigroup.is_trivial or self.full_exponents is None:
            return None
        exponents, generators = self.full_exponents, self.semigroup.generators
        for j in sorted(set(generators).union(exponents)):
            e = exponents.get(j, 0)
            if (e < 0) != (j in generators):
                return f"{'non-' if e < 0 else ''}generator {j} has e = {e}"
        return None

    def betti_exponent_witness(self) -> str | None:
        """On a finite support, e_b = R-class count - 1 at every Betti element b."""
        exponents = self.full_exponents
        if exponents is None:
            return None
        for b, data in self.betti.items():
            if exponents.get(b, 0) != data.nc - 1:
                return f"at {b}: e = {exponents.get(b, 0)}, classes - 1 = {data.nc - 1}"
        return None


def _totally_ordered_by_divisibility(values) -> bool:
    values = sorted(values)
    return all(b % a == 0 for a, b in zip(values, values[1:]))

