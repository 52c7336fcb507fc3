"""Numerical semigroups and their elementary invariants.

A numerical semigroup is an additively closed subset of the non-negative
integers containing 0 whose complement (the set of *gaps*) is finite. It is
determined by its unique minimal generating system. Everything a
:class:`NumericalSemigroup` exposes is precomputed at construction from a
dynamic-programming membership sieve (or, for a child in the semigroup tree,
derived from its parent's table), and instances are immutable.
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

    __slots__ = ("generators", "gaps", "frobenius", "genus", "multiplicity", "_table")

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
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "frobenius", frobenius)

        # Final table window: Betti candidates and the default exponent
        # truncation both live below frobenius + 2*max(generators) + 1.
        bound = frobenius + 2 * generators[-1] + 1
        if len(table) <= bound:
            table = table + [True] * (bound + 1 - len(table))
        else:
            table = table[: bound + 1]
        gaps = tuple(i for i, member in enumerate(table) if not member)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "genus", len(gaps))
        object.__setattr__(self, "multiplicity", generators[0])
        object.__setattr__(self, "_table", table)

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
        its gaps are ours plus g, and its membership table is ours with g
        cleared. Removing g keeps the other minimal generators minimal, and
        every new one is g + a for a minimal generator a (2g included) or
        3g: a new generator h is g + s for some non-zero s, and unless s is
        a generator or 2g, h splits further inside the child. A candidate c
        is a minimal generator iff c - a is not a member for every smaller
        generator a (a split x + y of c has a generator a <= x, and then
        c - a = (x - a) + y), so the cost is the O(g) table copy plus O(e^2)
        lookups. :meth:`from_gaps` builds the same semigroup independently
        and serves as the test oracle.
        """
        if g <= self.frobenius or g not in self.generators:
            raise ValueError(
                f"{g} is not a minimal generator above the Frobenius number {self.frobenius}"
            )
        candidates = sorted({g + a for a in self.generators} | {3 * g})
        table = self._table[:g]
        table.append(False)
        table.extend([True] * (candidates[-1] - g))
        generators = [a for a in self.generators if a != g]
        for c in candidates:  # ascending, so every generator below c is known
            if not any(table[c - a] for a in generators if a < c):
                generators.append(c)
        generators.sort()
        bound = g + 2 * generators[-1] + 1  # the window __init__ keeps
        del table[bound + 1 :]
        table.extend([True] * (bound + 1 - len(table)))
        child = object.__new__(NumericalSemigroup)
        for name, value in (
            ("generators", tuple(generators)),
            ("gaps", self.gaps + (g,)),
            ("frobenius", g),
            ("genus", self.genus + 1),
            ("multiplicity", generators[0]),
            ("_table", table),
        ):
            object.__setattr__(child, name, value)
        return child

    # -- membership and basic invariants --------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < len(self._table):
            return self._table[n]
        return True

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    @property
    def max_generator(self) -> int:
        return self.generators[-1]

    @property
    def is_trivial(self) -> bool:
        """True for the full semigroup of non-negative integers."""
        return self.generators == (1,)

    @property
    def default_bound(self) -> int:
        """Truncation used for exponent sequences: frobenius + 2*max(A) + 1."""
        return self.frobenius + 2 * self.max_generator + 1

    def elements_up_to(self, bound: int):
        """All members n with 0 <= n <= bound, ascending."""
        return [n for n in range(bound + 1) if n in self]

    # -- Apery sets ------------------------------------------------------------

    def apery_set(self, m: int) -> list[int]:
        """The least element of S in each residue class mod m, for m in S.

        Always contains 0 and has exactly m elements, sorted ascending.
        """
        if m < 1 or m not in self:
            raise NotAMemberError(f"{m} must be a positive element of the semigroup")
        out = []
        found = 0
        n = 0
        while found < m:
            if n in self and (n - m) not in self:
                out.append(n)
                found += 1
            n += 1
        return out

    # -- series and polynomial views -------------------------------------------

    def hilbert_prefix(self, bound: int) -> list[int]:
        """Coefficients 0..bound of the generating series of membership."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        return [1 if n in self else 0 for n in range(bound + 1)]

    def polynomial(self) -> list[int]:
        """The semigroup polynomial ``(1 - x) * sum_{s in S} x^s``.

        Monic of degree frobenius + 1, equivalently
        ``1 + (x - 1) * sum_{g gap} x^g``; evaluates to 1 at x = 1.
        """
        coeffs = [0] * (self.frobenius + 2)
        coeffs[0] = 1
        for g in self.gaps:
            coeffs[g + 1] += 1
            coeffs[g] -= 1
        return coeffs

    def is_symmetric(self) -> bool:
        """Whether exactly one of n, frobenius - n belongs to S for all n.

        Equivalent to the coefficient list of the semigroup polynomial being
        palindromic; the test suite checks the two criteria agree. For the
        trivial semigroup (F = -1) there is nothing to pair, so it is
        symmetric, as its polynomial ``[1]`` is self-reciprocal.
        """
        frobenius = self.frobenius
        return all((n in self) != (frobenius - n in self) for n in range(frobenius + 1))

    # -- serialization and dunder plumbing --------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "gaps": list(self.gaps),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.generators}"

    def __reduce__(self):
        return (NumericalSemigroup, self.generators)


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
        if not any(table[n - a] for a in out):
            out.append(n)
    return out
