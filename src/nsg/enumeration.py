"""Exhaustive enumeration of numerical semigroup families.

The core is the standard tree on all numerical semigroups: the root is the
whole of the non-negative integers and the children of S are the semigroups
S minus one minimal generator exceeding the Frobenius number. Every semigroup
of genus g appears exactly once at depth g. A child's Frobenius number is its
removed generator, so the path of removed generators from the root to a node
is exactly its gap tuple, ascending. A child is built from its parent's
membership table (:meth:`~nsg.semigroup.NumericalSemigroup.remove_generator`),
at O(g + e) rather than a fresh closure of its generators.

One preorder walk on an explicit stack serves every family: children are
pushed in reverse, so they are visited ascending in the removed generator
and the walk yields in ascending order of the gap tuples. A walk by genus
yields every node up to the cap and resumes after any node from the later
siblings along its path. A walk to a Frobenius number F yields the nodes at
F and builds only the nodes with a descendant at F, themselves included.
S minus g has one iff g <= F and F is not in the monoid spanned by S's
generators below g:

- every descendant of S minus g removes only elements above g, so it keeps
  S's elements below g and the monoid they span, and F with it if it is in;
- conversely, if F is not in it, that monoid cut at F plus every integer
  above F is a numerical semigroup with Frobenius number F. It agrees with S
  below g, misses g (a minimal generator is no sum of smaller elements) and
  holds every integer above F >= g, so it is a descendant of S minus g.

That monoid only grows with g, so once it reaches F every later generator is
dead too. The walk carries it as a bitmask over 0..F, one int per stack
entry, closed by :func:`~nsg.semigroup.close_under` (see :func:`children`).

Complete intersections are enumerated separately, bottom-up by Frobenius
number through gluings, which reaches Frobenius values far beyond what the
full tree can cover.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterator

from .semigroup import NumericalSemigroup, close_under

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
    S: NumericalSemigroup, limit: int | None = None, mask: int | None = None
) -> list[tuple]:
    """The tree children (g, S minus g), ascending in the removed generator g.

    g runs over the minimal generators above the Frobenius number, capped at
    ``limit`` when given. Each child comes from
    :meth:`NumericalSemigroup.remove_generator`, which derives it from S's
    own table.

    A walk to a Frobenius target passes it as ``limit`` together with S's
    ``mask``: bit n is set iff n <= limit lies in the monoid spanned by S's
    generators below its Frobenius number. Then only the live children are
    built, and each comes as (g, S minus g, mask at g), the mask of the
    monoid spanned by S's generators below g, which is the child's own mask.
    Bit ``limit`` of the mask at g is clear iff S minus g has a descendant
    with Frobenius number ``limit`` (module docstring), and once it is set it
    stays set, so the scan stops at the first dead g. The next mask is this
    one closed under g up to the limit. With no limit a mask is passed
    through unread.
    """
    if mask is None:
        return [
            (g, S.remove_generator(g))
            for g in S.generators
            if S.frobenius < g and (limit is None or g <= limit)
        ]
    if limit is None:
        return [(g, S.remove_generator(g), mask) for g in S.generators if S.frobenius < g]
    kids = []
    for g in S.generators:
        if g <= S.frobenius:
            continue
        if g > limit or mask >> limit & 1:
            break
        kids.append((g, S.remove_generator(g), mask))
        mask = close_under(mask, g, limit)
    return kids


def _walk(stack: list, g_max, frobenius: int | None) -> Iterator[NumericalSemigroup]:
    """Preorder from ``stack`` of (g, S, mask) entries, whose top is visited first.

    A node at the Frobenius target is yielded and never expanded; with no
    target every node is yielded. A node is expanded when its children have
    genus <= g_max, through :func:`children` with the target and the node's
    mask, so a walk to a target pushes only live children, each with its own
    mask, and every node it pops lies on a path to the target. A walk to a
    target F passes g_max = F, which never stops it: the gaps of a node
    below F lie in 1..F - 1. The entries are as :func:`children` returns
    them; g is not read, and with no target neither is the mask.
    """
    while stack:
        _, S, mask = stack.pop()
        if S.frobenius == frobenius:
            yield S
            continue
        if frobenius is None:
            yield S
        if S.genus + 1 <= g_max:
            stack.extend(reversed(children(S, frobenius, mask)))


def enumerate_by_genus(g_max, resume: Path | None = None) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= g_max, exactly once, in preorder.

    With ``resume``, a node's path (its gap tuple), the walk yields the
    suffix strictly after that node: the stack is seeded with the node's
    children and the later siblings along its path, as the walk holds them
    just after the node, so earlier subtrees are never walked. A path that
    names no node of the tree is a ValueError at the call, at any depth.
    """
    if resume is None:
        return _walk([(None, NumericalSemigroup(1), 0)] if g_max >= 0 else [], g_max, None)
    node, stack = NumericalSemigroup(1), []
    for g in resume:
        kids = dict(children(node))
        if g not in kids:
            raise ValueError(
                f"{g} is not a minimal generator above the Frobenius number {node.frobenius}"
            )
        if node.genus + 1 <= g_max:
            stack.extend((h, kids[h], 0) for h in reversed(kids) if h > g)
        node = kids[g]
    if node.genus + 1 <= g_max:
        stack.extend((h, child, 0) for h, child in reversed(children(node)))
    return _walk(stack, g_max, None)


def _require_int(frobenius) -> None:
    # a float or bool target would otherwise walk, or recurse, to a wrong answer
    if not isinstance(frobenius, int) or isinstance(frobenius, bool):
        raise ValueError(f"frobenius must be an int, got {frobenius!r}")


def enumerate_by_frobenius(frobenius: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup with the given Frobenius number, exactly once.

    Same tree, pruned to the live nodes: S minus g is built only when g <= F
    and F is not in the monoid spanned by S's generators below g, exactly
    the nodes with a descendant at F (module docstring), and a node at the
    target has no children to build. The root's mask holds 0 alone. The
    target is checked at the call, not at the first ``next``.
    """
    _require_int(frobenius)
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    return _walk([(None, NumericalSemigroup(1), 1)], frobenius, frobenius)


# A target F recurses into at most -1 and the odd numbers below it, so 512
# entries cover every target below 1000 without evictions. Typed, so that a
# float or bool target misses the cache and is rejected below.
@lru_cache(maxsize=512, typed=True)
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
    _require_int(frobenius)
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
                        if glued.frobenius != frobenius:
                            raise RuntimeError(f"gluing {glued.generators} has F != {frobenius}")
                        found.add(glued)
        a1 += 1
    return tuple(sorted(found, key=lambda s: s.generators))

