"""Numerical semigroups and their elementary invariants.

A numerical semigroup is an additively closed subset of the non-negative
integers containing 0 whose complement (the set of *gaps*) is finite. It is
determined by its unique minimal generating system, or by which n <= F, the
Frobenius number, belong to it: every n > F does. A :class:`NumericalSemigroup`
stores exactly that, one int whose bit j is set iff F - j is a member, read off
a bitmask closed under each generator by :func:`close_under` (or, for a child
in the semigroup tree, derived from its parent's by one shift: :func:`_child`).
Its generators, Frobenius number, genus and multiplicity are precomputed; the
gaps, Apery sets and windows (:meth:`~NumericalSemigroup.window`) are read off
the mask. Instances are immutable.
"""

from __future__ import annotations

from math import gcd

from .errors import EmptyGeneratorsError, NonCoprimeGeneratorsError, NotAMemberError, require_int


class NumericalSemigroup:
    """A numerical semigroup, canonically represented by its minimal generators.

    Accepts any generating set with gcd 1; redundant generators are removed.

    >>> S = NumericalSemigroup(6, 4, 9, 10, 13)
    >>> S.generators
    (4, 6, 9)
    >>> S.frobenius, S.genus
    (11, 6)
    """

    __slots__ = ("generators", "frobenius", "genus", "multiplicity", "_mask")

    def __init__(self, *raw):
        if len(raw) == 1 and not isinstance(raw[0], int):
            try:
                items = iter(raw[0])
            except TypeError:
                items = raw  # not iterable: the int check below refuses it
            raw = tuple(items)
        if not raw:
            raise EmptyGeneratorsError("need at least one generator")
        for v in raw:  # before the set, which would merge True into 1
            require_int(v, "generators must be ints")
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

        frobenius, mask = _membership_sieve(values)
        # v is minimal iff v - a is no member for each smaller generator a: a split
        # x + y of v has a generator a <= x, and v - a = (x - a) + y
        generators = []
        for v in values:
            for a in generators:
                if v - a > frobenius or mask >> (frobenius - v + a) & 1:
                    break
            else:
                generators.append(v)
        _set_slots(self, tuple(generators), frobenius, frobenius + 1 - mask.bit_count(), mask)

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
        """Build the semigroup whose gap set is exactly ``gaps``, along its tree path.

        From <1>, each gap g, ascending, is removed by :meth:`remove_generator`;
        the complement is closed iff each g is a minimal generator of the node
        the gaps below it leave, else the ValueError names g's least split
        a + (g - a) into members. A resumed gluing row finds its member by it.
        The tests hold it to a closure oracle, ``oracles.semigroup_from_gaps``.
        """
        S = cls(1)
        for g in sorted(gaps):  # not a set, which would let True stand for 1
            require_int(g, "gaps must be ints")
            if g < 1:
                raise ValueError("gaps must be positive")
            if g == S.frobenius:  # a repeated gap
                continue
            if g not in S.generators:
                a = next(a for a in range(1, g) if a in S and g - a in S)
                raise ValueError(f"complement not closed: {a} + {g - a} = {g} is a gap")
            S = S.remove_generator(g)
        return S

    def remove_generator(self, g: int) -> "NumericalSemigroup":
        """S minus g, for a minimal generator g above the Frobenius number.

        A child in the semigroup tree, by the rule :func:`_child` that the
        walks of :mod:`nsg.enumeration` apply to raw entries: F is g, the genus
        ours + 1. :meth:`from_gaps` walks by it; the tests hold it to
        ``oracles.semigroup_from_gaps``.
        """
        require_int(g, "generator must be an int")
        generators = self.generators
        if g <= self.frobenius or g not in generators:
            raise ValueError(
                f"{g} is not a minimal generator above the Frobenius number {self.frobenius}"
            )
        generators, mask = _child(generators, self.frobenius, self._mask, generators.index(g))
        return _set_slots(object.__new__(NumericalSemigroup), generators, g, self.genus + 1, mask)

    # -- membership and basic invariants --------------------------------------

    def __contains__(self, n: int) -> bool:
        if n > self.frobenius:
            return True
        return n >= 0 and bool(self._mask >> (self.frobenius - n) & 1)

    def window(self, top: int) -> int:
        """Membership of 0..top as one int, bit j set iff top - j is in S; 0 for top < 0.

        So ``window >> (top - s)`` is the window at s, bit k set iff s - k is
        a member: loops over many s - k read bits, with no call each.
        """
        pad = top - self.frobenius
        if pad < 0:
            return self._mask >> -pad
        return self._mask << pad | ((1 << pad) - 1)

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps, ascending: the n <= frobenius outside S."""
        bits = format(self._mask, "b")[: self.frobenius + 1]  # digit n is n, as 0 is in S
        return tuple(n for n, bit in enumerate(bits) if bit == "0")

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
        require_int(m, "m must be an int")  # True or 3.0 would pass as 1 or 3
        if m < 1 or m not in self:
            raise NotAMemberError(f"{m} must be a positive element of the semigroup")
        # over 0..F + m, the bit of w - m is m above w's: the window >> m is the mask
        apery = self.window(self.frobenius + m) & ~self._mask
        return [w for w, bit in enumerate(format(apery, "b")) if bit == "1"]

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


def _set_slots(S, generators: tuple, frobenius: int, genus: int, mask: int) -> NumericalSemigroup:
    """Fill every slot of a new S and return it; bit j of the mask is set iff F - j is in S."""
    _set_generators(S, generators)
    _set_frobenius(S, frobenius)
    _set_genus(S, genus)
    _set_multiplicity(S, generators[0])
    _set_mask(S, mask)
    return S


# the slot descriptors' setters, which pass the refusing __setattr__
_set_generators, _set_frobenius, _set_genus, _set_multiplicity, _set_mask = (
    NumericalSemigroup.__dict__[name].__set__ for name in NumericalSemigroup.__slots__
)


def _child(generators: tuple, frobenius: int, mask: int, i: int) -> tuple[tuple, int]:
    """(generators, mask) of S minus g = generators[i] > F, from S's generators, F and mask.

    No mask is closed: the child's is S's shifted up by g - F over the new
    members and the gap g. Removing g keeps the other minimal generators
    minimal, and every new one is g + a for a minimal generator a (2g included)
    or 3g: a new generator h is g + s for some non-zero s, and unless s is a
    generator or 2g, h splits further inside the child. Only candidates up to
    g + m can be new, for m the child's multiplicity (S's, or g + 1 when g is
    S's): a larger c is (c - m) + m, and c - m > g is a member. A minimal
    generator n of S has n <= F + m < g + m, so the new ones follow the rest in
    order: the tuple is spliced, not sorted. When g is S's multiplicity, S is 0
    and all n >= g, the child 0 and all n > g, and the new ones 2g and 2g + 1
    (at the root, 2 and 3). Otherwise g + m alone is a candidate, new iff the
    child's mask has bit a - m (g + m - a) clear for each other generator a:
    one shift, one splice, e bit tests.
    """
    g, m = generators[i], generators[0]
    shift = g - frobenius
    mask = mask << shift | ((1 << shift) - 2)
    rest = generators[:i] + generators[i + 1 :]
    if g == m:
        return rest + (2 * g, 2 * g + 1), mask
    for a in rest:
        if mask >> (a - m) & 1:
            return rest, mask
    return rest + (g + m,), mask


def close_under(mask: int, g: int, limit: int) -> int:
    """The bitmask ``mask`` closed under adding g, cut to bits 0..limit.

    Shifting by g, 2g, 4g, ... while the shift is at most ``limit`` adds every
    multiple of g up to it: after the shift by 2^j * g, each count below
    2^(j+1) is in.
    """
    shift = g
    while shift <= limit:
        mask |= mask << shift
        shift <<= 1
    return mask & ((2 << limit) - 1)


def _membership_sieve(values: list[int]) -> tuple[int, int]:
    """(F, mask) of the monoid an ascending generating set spans; bit j is F - j.

    The mask of {0} is closed under every generator up to a bound, doubled
    from 2*max + 2 until its top multiplicity-many bits are all members, so
    every larger integer is one too. Each pass starts from the last cut mask,
    which holds 0, so it reaches every member up to the new bound.
    """
    multiplicity, bound, mask = values[0], values[-1] + 1, 1
    while mask >> (bound + 1 - multiplicity) != (1 << multiplicity) - 1:
        bound *= 2
        for v in values:
            mask = close_under(mask, v, bound)
    frobenius = (~mask & ((2 << bound) - 1)).bit_length() - 1
    return frobenius, int("0" + format(mask, "b")[::-1][: frobenius + 1], 2)
