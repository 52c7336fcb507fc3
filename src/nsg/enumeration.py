"""Exhaustive enumeration of numerical semigroup families.

The core is the standard tree on all numerical semigroups: the root is the
whole of the non-negative integers and the children of S are the semigroups
S minus one minimal generator exceeding the Frobenius number. Every semigroup
of genus g appears exactly once at depth g, children visited in ascending
order of the removed generator, so walks are deterministic and resumable by
the path of removed generators. A child is built from its parent's membership
table (:meth:`~nsg.semigroup.NumericalSemigroup.remove_generator`), at
O(g + e^2) rather than a fresh sieve, and a walk capped at a Frobenius number
builds no child beyond the cap, since a child's Frobenius number is its
removed generator. One recursive walk serves whole and resumed genus walks;
the walk by Frobenius number is its own pruned recursion, which needs no
paths.

Complete intersections are enumerated separately, bottom-up by Frobenius
number through gluings, which reaches Frobenius values far beyond what the
full tree can cover.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterator

from .semigroup import NumericalSemigroup

Path = tuple[int, ...]


def format_token(path: Path) -> str:
    """Serialize a tree path, e.g. (2, 3) -> "2.3"; the root is "root"."""
    return ".".join(map(str, path)) if path else "root"


def parse_token(token: str) -> Path:
    if token == "root":
        return ()
    try:
        return tuple(int(part) for part in token.split("."))
    except ValueError as exc:
        raise ValueError(f"malformed resume token {token!r}") from exc


def children(
    S: NumericalSemigroup, limit: int | None = None
) -> list[tuple[int, NumericalSemigroup]]:
    """The tree children (g, S minus g), ascending in the removed generator g.

    g runs over the minimal generators above the Frobenius number, capped at
    ``limit`` when given, so a walk builds only the children it visits. Each
    child comes from :meth:`NumericalSemigroup.remove_generator`, which
    derives it from S's own table.
    """
    return [
        (g, S.remove_generator(g))
        for g in S.generators
        if S.frobenius < g and (limit is None or g <= limit)
    ]


def walk_genus_tree(
    g_max: int, resume: Path | None = None
) -> Iterator[tuple[NumericalSemigroup, Path]]:
    """Depth-first preorder walk of all semigroups with genus <= g_max.

    Yields (semigroup, tree path) pairs. With ``resume`` the walk reproduces
    the suffix strictly after that path, skipping fully earlier subtrees
    without walking them.
    """

    def visit(S: NumericalSemigroup, path: Path, after: Path | None):
        # after is the resume point while path is a prefix of it, else None
        if after is None:
            yield S, path
        if len(path) + 1 > g_max:  # the children would have genus len(path) + 1
            return
        for g, child in children(S):
            if after is None or path == after or g > after[len(path)]:
                yield from visit(child, path + (g,), None)
            elif g == after[len(path)]:
                yield from visit(child, path + (g,), after)

    if g_max >= 0:
        yield from visit(NumericalSemigroup(1), (), resume)


def enumerate_by_genus(g_max: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= g_max, exactly once."""
    for S, _ in walk_genus_tree(g_max):
        yield S


def enumerate_by_frobenius(frobenius: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup with the given Frobenius number, exactly once.

    Same tree, pruned: a child's Frobenius number equals the removed
    generator, so branches through generators above the target never recover
    and are never built.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")

    def visit(S: NumericalSemigroup):
        if S.frobenius == frobenius:
            yield S
        for _, child in children(S, frobenius):
            yield from visit(child)

    yield from visit(NumericalSemigroup(1))


# A target F recurses into at most -1 and the odd numbers below it, so 512
# entries cover every target below 1000 without evictions.
@lru_cache(maxsize=512)
def ci_with_frobenius(frobenius: int) -> tuple[NumericalSemigroup, ...]:
    """All complete intersections with the given Frobenius number.

    Built by gluings: every non-trivial complete intersection is
    ``a1*S1 + a2*S2`` with coprime scales at least 2 and complete
    intersection parts, and the Frobenius numbers compose as
    ``F = a1*a2 + a1*F1 + a2*F2``. Since F >= (a1-1)(a2-1) - 1 the scale
    pairs are finitely enumerable and the part Frobenius numbers shrink, so
    the recursion bottoms out at the trivial semigroup (F = -1). Symmetry
    forces F odd; even targets return nothing.
    """
    if frobenius == -1:
        return (NumericalSemigroup(1),)
    if frobenius < 1 or frobenius % 2 == 0:
        return ()
    found: set[NumericalSemigroup] = set()
    a1 = 2
    while (a1 - 1) * a1 <= frobenius + 1:
        for a2 in range(a1 + 1, (frobenius + 1) // (a1 - 1) + 2):
            if (a1 - 1) * (a2 - 1) > frobenius + 1 or gcd(a1, a2) != 1:
                continue
            remainder_base = frobenius - a1 * a2
            for f1 in range(-1, (remainder_base + a2) // a1 + 1):
                if f1 == 0 or (f1 > 0 and f1 % 2 == 0):
                    continue
                numerator = remainder_base - a1 * f1
                if numerator % a2 != 0:
                    continue
                f2 = numerator // a2
                if f2 < -1 or f2 == 0 or (f2 > 0 and f2 % 2 == 0):
                    continue
                for left in ci_with_frobenius(f1):
                    if a2 not in left or a2 in left.generators:
                        continue
                    for right in ci_with_frobenius(f2):
                        if a1 not in right or a1 in right.generators:
                            continue
                        scaled = [a1 * g for g in left.generators]
                        scaled += [a2 * g for g in right.generators]
                        glued = NumericalSemigroup(scaled)
                        assert glued.frobenius == frobenius
                        found.add(glued)
        a1 += 1
    return tuple(sorted(found, key=lambda s: s.generators))

