"""Numerical semigroups and their elementary invariants.

A numerical semigroup is an additively closed subset of the non-negative
integers containing 0 whose complement (the set of *gaps*) is finite. It is
determined by its unique minimal generating system, or by which n <= F, the
Frobenius number, belong to it: every n > F does. A :class:`NumericalSemigroup`
stores exactly that, a membership table over 0..F, built by a
dynamic-programming sieve (or, for a child in the semigroup tree, derived
from its parent's table). Its generators, Frobenius number, genus and
multiplicity are precomputed; the gaps and every padded copy of the table
(:meth:`~NumericalSemigroup.membership`) are read off the table. Instances
are immutable.
"""

from __future__ import annotations

from math import gcd

from .errors import EmptyGeneratorsError, NonCoprimeGeneratorsError, NotAMemberError


class NumericalSemigroup:
    """A numerical semigroup, canonically represented by its minimal generators.

    Accepts any generating set with gcd 1; redundant generators are removed.

    >>> S = NumericalSemigroup(6, 4, 9, 10, 13)
    >>> S.generators
    (4, 6, 9)
    >>> S.frobenius, S.genus
    (11, 6)
    """

    __slots__ = ("generators", "frobenius", "genus", "multiplicity", "_table")

    def __init__(self, *raw):
        if len(raw) == 1 and not isinstance(raw[0], int):
            raw = tuple(raw[0])
        if not raw:
            raise EmptyGeneratorsError("need at least one generator")
        values = sorted(set(raw))
        if values[0] < 1:
            raise ValueError(f"generators must be positive, got {values[0]}")
        g = 0
        for v in values:
            g = gcd(g, v)
        if g != 1:
            raise NonCoprimeGeneratorsError(
                f"gcd of generators is {g}; the complement would be infinite"
            )

        table = _membership_sieve(values)
        frobenius = _last_false(table)
        generators = _minimal_generators(values, table)
        _set_slots(self, tuple(generators), frobenius, table)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "NumericalSemigroup":
        """Parse a comma-separated generator list such as ``"4,6,9"``."""
        try:
            values = [int(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse generator list {text!r}") from exc
        return cls(values)

    @classmethod
    def from_gaps(cls, gaps) -> "NumericalSemigroup":
        """Build the semigroup whose gap set is exactly ``gaps``.

        The complement of a valid gap set is closed under addition; this is
        checked and a ValueError raised otherwise. No walk in the package
        calls it: it stays as the independent oracle the tests hold
        :meth:`remove_generator` to, and ``perfbench/trace.py`` wraps it by
        name.
        """
        gap_set = frozenset(gaps)
        if not gap_set:
            return cls(1)
        if min(gap_set) < 1:
            raise ValueError("gaps must be positive")
        frobenius = max(gap_set)
        member = [i not in gap_set for i in range(frobenius + 1)]
        for g in sorted(gap_set):
            for a in range(1, g // 2 + 1):
                if member[a] and member[g - a]:
                    raise ValueError(f"complement not closed: {a} + {g - a} = {g} is a gap")
        multiplicity = next(i for i in range(1, frobenius + 2) if i > frobenius or member[i])
        generators = []
        for n in range(multiplicity, frobenius + multiplicity + 1):
            if n <= frobenius and not member[n]:
                continue
            if not any(
                (a > frobenius or member[a]) and (n - a > frobenius or member[n - a])
                for a in range(1, n // 2 + 1)
            ):
                generators.append(n)
        return cls(generators)

    def remove_generator(self, g: int) -> "NumericalSemigroup":
        """S minus g, for a minimal generator g above the Frobenius number.

        This is a child in the semigroup tree. Every slot is derived from
        this semigroup without a sieve: the child's Frobenius number is g,
        and its membership table over 0..g is ours, then members up to
        g - 1, then the gap g. Removing g keeps the other minimal generators
        minimal, and every new one is g + a for a minimal generator a (2g
        included) or 3g: a new generator h is g + s for some non-zero s, and
        unless s is a generator or 2g, h splits further inside the child. Only
        candidates up to g + m can be new, for m the child's multiplicity
        (ours, or g + 1 when g is ours): a larger c is (c - m) + m, and
        c - m > g is a member. That leaves g + m, or 2g and 2g + 1, or at
        the root 2 and 3. A candidate c is a minimal generator iff c - a is
        not a member for every smaller generator a (a split x + y of c has
        a generator a <= x, and then c - a = (x - a) + y), a plain loop that
        stops at the first member c - a. So the cost is the O(g) table copy
        plus O(e) lookups. :meth:`from_gaps` builds the same semigroup
        independently and serves as the test oracle.
        """
        if g <= self.frobenius or g not in self.generators:
            raise ValueError(
                f"{g} is not a minimal generator above the Frobenius number {self.frobenius}"
            )
        m = self.multiplicity if g != self.multiplicity else g + 1
        # ascending, as 2g <= m (which lets 3g in) holds only at the root, g = 1
        candidates = [g + a for a in (*self.generators, 2 * g) if a <= m]
        # every c - a read below is at most g
        table = self._table + [True] * (g - 1 - self.frobenius) + [False]
        generators = list(self.generators)
        generators.remove(g)
        for c in candidates:  # ascending, so every generator below c is known
            for a in generators:
                if a < c and table[c - a]:
                    break
            else:
                generators.append(c)
        generators.sort()
        child = object.__new__(NumericalSemigroup)
        _set_slots(child, tuple(generators), g, table)
        return child

    # -- membership and basic invariants --------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < len(self._table):
            return self._table[n]
        return True

    def membership(self, n: int) -> list[bool]:
        """Membership of 0, 1, ..., n as a new list, ``[]`` for n < 0.

        For loops that test many k in 0..n without a :meth:`__contains__`
        call each; past the Frobenius number every entry is True.
        """
        if n < 0:
            return []
        return self._table[: n + 1] + [True] * (n - self.frobenius)

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps, ascending: the n <= frobenius outside S."""
        return tuple(n for n, member in enumerate(self._table) if not member)

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    @property
    def is_trivial(self) -> bool:
        """True for the full semigroup of non-negative integers."""
        return self.generators == (1,)

    @property
    def default_bound(self) -> int:
        """Truncation used for exponent sequences: frobenius + 2*max(A) + 1.

        Every Betti element lies below it (see :mod:`nsg.factorization`).
        """
        return self.frobenius + 2 * self.generators[-1] + 1

    # -- Apery sets ------------------------------------------------------------

    def apery_set(self, m: int) -> list[int]:
        """The least element of S in each residue class mod m, for m in S.

        Always contains 0 and has exactly m elements, sorted ascending.
        """
        if m < 1 or m not in self:
            raise NotAMemberError(f"{m} must be a positive element of the semigroup")
        # each element is at most frobenius + m
        member = self.membership(self.frobenius + m)
        return [n for n, k in enumerate(member) if k and (n < m or not member[n - m])]

    def is_symmetric(self) -> bool:
        """Whether exactly one of n, frobenius - n belongs to S for all n.

        Read in O(1) from the criterion 2g = F + 1 (Rosales & García-Sánchez,
        *Numerical Semigroups*, Springer 2009, ch. 4): n in S forces
        F - n out of S, so g >= (F + 1)/2 always, with equality exactly when
        every pair has one member. The test suite holds this to the pairing
        definition and to the semigroup polynomial being palindromic. The
        trivial semigroup (g = 0, F = -1) comes out symmetric, as its
        polynomial ``[1]`` is self-reciprocal.
        """
        return 2 * self.genus == self.frobenius + 1

    # -- comparison and pickling -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.generators}"

    def __reduce__(self):
        # pickle and copy cannot set the slots past the refusing __setattr__
        return (NumericalSemigroup, self.generators)


def _set_slots(S: NumericalSemigroup, generators: tuple, frobenius: int, table: list) -> None:
    """Fill every slot of a new S; genus and multiplicity follow from the rest."""
    del table[frobenius + 1 :]  # cut in place to 0..frobenius; every n past it is a member
    set_slot = object.__setattr__  # the class's own __setattr__ refuses
    set_slot(S, "generators", generators)
    set_slot(S, "frobenius", frobenius)
    set_slot(S, "genus", table.count(False))
    set_slot(S, "multiplicity", generators[0])
    set_slot(S, "_table", table)


def _membership_sieve(values: list[int]) -> list[bool]:
    """DP sieve over a generating set, extended until the complement is exhausted.

    The table is grown until it ends in multiplicity-many consecutive members;
    from that point on every integer is a member, so the largest gap is final.
    """
    multiplicity = values[0]
    bound = 2 * values[-1] + 2
    table = [False] * (bound + 1)
    table[0] = True
    start = 1
    while True:
        for n in range(start, bound + 1):
            for v in values:
                if v > n:
                    break
                if table[n - v]:
                    table[n] = True
                    break
        run = 0
        for n in range(bound, 0, -1):
            if not table[n]:
                break
            run += 1
        if run >= multiplicity:
            return table
        start = bound + 1
        bound *= 2
        table.extend([False] * (bound + 1 - len(table)))


def _last_false(table: list[bool]) -> int:
    for n in range(len(table) - 1, -1, -1):
        if not table[n]:
            return n
    return -1


def _minimal_generators(values: list[int], table: list[bool]) -> list[int]:
    """Filter an ascending generating set down to the minimal system.

    n is kept iff n - a is not a member for every kept generator a, the test
    :meth:`NumericalSemigroup.remove_generator` applies to its candidates.
    """
    out = []
    for n in values:  # ascending, so every minimal generator below n is kept
        for a in out:
            if table[n - a]:
                break
        else:
            out.append(n)
    return out
