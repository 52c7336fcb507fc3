"""Exhaustive enumeration of numerical semigroup families.

The core is the standard tree on all numerical semigroups: the root is the
whole of the non-negative integers and the children of S are the semigroups
S minus one minimal generator exceeding the Frobenius number. Every semigroup
of genus g appears exactly once at depth g. A child's Frobenius number is its
removed generator, so the path of removed generators from the root to a node
is exactly its gap tuple, ascending. A child's fields come from its
parent's by one shift (:func:`~nsg.semigroup._child`), not by a fresh closure.

One preorder walk on an explicit stack serves every family. It holds each
node as a raw entry (generators, Frobenius number, genus, membership mask,
live mask), and one rule, :func:`children`, lists the entries of a node's
children, pushed in reverse so the walk visits them ascending in g, hence
in ascending order of the gap tuples. Only a node the walk yields becomes a
:class:`~nsg.semigroup.NumericalSemigroup`; the others stay entries. A walk
by genus carries live mask 0, which prunes nothing: it yields every node up
to the cap. A walk to a Frobenius number F yields the nodes at F and lists
only the nodes with a descendant at F, themselves included. S minus g has
one iff g <= F and F is not in the monoid spanned by S's generators below g:

- every descendant of S minus g removes only elements above g, so it keeps
  S's elements below g and the monoid they span, and F with it if it is in;
- conversely, if F is not in it, that monoid cut at F plus every integer
  above F is a numerical semigroup with Frobenius number F. It agrees with S
  below g, misses g (a minimal generator is no sum of smaller elements) and
  holds every integer above F >= g, so it is a descendant of S minus g.

That monoid only grows with g, so once it reaches F every later generator is
dead too. The walk carries it as the live mask, over 0..F, in each entry
it stacks, closed by :func:`~nsg.semigroup.close_under` for a later sibling.
Either walk resumes after any node it reaches, named by its gap tuple, from
the node's children and the later siblings along its path (:func:`_resumed`).

Complete intersections are enumerated separately, bottom-up by Frobenius
number through gluings, which reaches Frobenius values far beyond what the
full tree can cover.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from math import gcd
from typing import Iterator

from .errors import require_int
from .semigroup import NumericalSemigroup, _child, _set_slots, close_under

Path = tuple[int, ...]


def format_token(path: Path) -> str:
    """Serialize a tree path, e.g. (2, 3) -> "2.3"; the root is "root"."""
    return ".".join(map(str, path)) if path else "root"


def parse_token(token: str) -> Path:
    """The path a token names, spelt as :func:`format_token` writes it (``int`` takes more)."""
    try:
        path = () if token == "root" else tuple(map(int, token.split(".")))
    except ValueError:
        path = None
    if path is None or format_token(path) != token:
        raise ValueError(f"malformed resume token {token!r}")
    return path


def children(entry: tuple, limit: int | None = None) -> list[tuple]:
    """The entries of the tree children of an entry's node, ascending in g.

    g, the child's Frobenius number, runs over the node's minimal generators
    above its Frobenius number and up to ``limit`` (no cap when None), and
    :func:`~nsg.semigroup._child` derives each child's fields from the node's.
    Bit n of the live mask is set iff n <= limit lies in the monoid spanned by
    the node's generators below its Frobenius number. The child at g carries
    the one spanned by those below g, closed under g for the next g. Its bit
    ``limit`` is clear iff S minus g has a descendant with Frobenius number
    ``limit`` (module docstring); once set it stays set, so the scan stops at
    the first dead g. A live mask of 0 prunes nothing and, as it closes to 0,
    is never closed.
    """
    generators, frobenius, genus, mask, live = entry
    limit = generators[-1] if limit is None else limit
    last, genus = bisect(generators, limit) - 1, genus + 1
    kids = []
    for i in range(bisect(generators, frobenius), last + 1):
        if live >> limit & 1:
            break
        kid_generators, kid_mask = _child(generators, frobenius, mask, i)
        g = generators[i]
        kids.append((kid_generators, g, genus, kid_mask, live))
        if live and i < last:
            live = close_under(live, g, limit)
    return kids


def _walk(stack: list, g_max, frobenius: int | None) -> Iterator[NumericalSemigroup]:
    """Preorder from ``stack`` of entries, whose top is visited first.

    A node at the Frobenius target is yielded and never expanded; with no
    target every node is yielded. Only a yielded node becomes an object. A
    node is expanded when its children have genus <= g_max, by one call of
    :func:`children` with the target, looked up as a module global each time,
    so a walk to a target pushes only live children and every node it pops
    lies on a path to the target. A walk to a target F passes g_max = F,
    which never stops it: the gaps of a node below F lie in 1..F - 1.
    """
    every = frobenius is None
    pop, push, new = stack.pop, stack.extend, object.__new__
    while stack:
        entry = pop()
        generators, f, genus, mask, _ = entry
        if every or f == frobenius:
            yield _set_slots(new(NumericalSemigroup), generators, f, genus, mask)
        if f != frobenius and genus + 1 <= g_max:
            push(reversed(children(entry, frobenius)))


def _resumed(path: Path | None, g_max, frobenius: int | None):
    """The walk from the root, or strictly after the node at gap tuple ``path``.

    The one descent of both walks takes the entries of :func:`children` as
    the walk does, live ones only on a walk to a target, steps to the child
    whose Frobenius number is the path's next gap and seeds the stack as the
    walk holds it after the node, so no earlier subtree is listed and no node
    becomes an object. A path naming no node of the walk, or with a gap that is
    no int (``from_gaps``'s guard), is a ValueError at the call.
    """
    entry, stack = ((1,), -1, 0, 0, int(frobenius is not None)), []  # <1>: mask 0 over 0..-1
    if path is None:
        return _walk([entry] if g_max >= 0 else [], g_max, frobenius)
    for depth, g in enumerate(path, 1):
        require_int(g, "gaps must be ints")  # True or 1.0 would match 1
        generators, f, genus, _, _ = entry
        kids = children(entry, frobenius)
        at = [kid[1] for kid in kids]
        if g not in at:
            if g > f and g in generators:  # capped or pruned
                raise ValueError(f"the node {path[:depth]} has no descendant at F = {frobenius}")
            raise ValueError(f"{g} is not a minimal generator above the Frobenius number {f}")
        i = at.index(g)
        if genus + 1 <= g_max:
            stack.extend(reversed(kids[i + 1 :]))
        entry = kids[i]
    if entry[2] + 1 <= g_max:
        stack.extend(reversed(children(entry, frobenius)))
    return _walk(stack, g_max, frobenius)


def enumerate_by_genus(g_max, resume: Path | None = None) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= g_max, once, in preorder; after ``resume`` if given."""
    if isinstance(g_max, bool) or not isinstance(g_max, (int, float)):
        raise ValueError(f"g_max must be a number, got {g_max!r}")
    return _resumed(resume, g_max, None)  # a float cap such as 2.5 walks to genus 2


def enumerate_by_frobenius(frobenius, resume: Path | None = None) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup with the given Frobenius number, exactly once.

    Same tree, pruned to the live nodes: S minus g is built only when g <= F
    and F is not in the monoid spanned by S's generators below g, exactly
    the nodes with a descendant at F (module docstring), and a node at the
    target has no children to build. The root's live mask holds 0 alone. With
    ``resume``, a member's gap tuple, only the members after it. The target
    and the path are checked at the call, not at the first ``next``.
    """
    require_int(frobenius, "frobenius must be an int")  # a float or bool would walk astray
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    return _resumed(resume, frobenius, frobenius)


# A target F recurses into at most -1 and the odd numbers below it, so 512
# entries cover every target below 1000 without evictions. Typed, so that a
# float or bool target misses the cache and is rejected below.
@lru_cache(maxsize=512, typed=True)
def ci_with_frobenius(frobenius: int) -> tuple[NumericalSemigroup, ...]:
    """All complete intersections with the given Frobenius number.

    Built by gluings: every non-trivial complete intersection is
    ``a1*S1 + a2*S2`` with coprime scales 2 <= a1 < a2 and complete
    intersection parts, and the Frobenius numbers compose as
    ``F = a1*a2 + a1*F1 + a2*F2``. So (a1-1)(a2-1) <= F + 1, where a2's
    range ends, and the part Frobenius numbers shrink to the trivial
    semigroup's -1. Symmetry forces F odd; even targets return nothing. F1
    steps over -1 and the odd numbers up to where F2 = -1, so only an even F2
    is skipped and every cached target is -1 or odd. The scaled generators
    are the gluing's minimal generators: each semigroup is built once, keyed
    by them.
    """
    require_int(frobenius, "frobenius must be an int")
    if frobenius == -1:
        return (NumericalSemigroup(1),)
    if frobenius < 1 or frobenius % 2 == 0:
        return ()
    found: dict[tuple[int, ...], NumericalSemigroup] = {}
    a1 = 2
    while (a1 - 1) * a1 <= frobenius + 1:
        for a2 in range(a1 + 1, (frobenius + 1) // (a1 - 1) + 2):
            if gcd(a1, a2) != 1:
                continue
            remainder_base = frobenius - a1 * a2
            for f1 in range(-1, (remainder_base + a2) // a1 + 1, 2):
                f2, rest = divmod(remainder_base - a1 * f1, a2)
                if rest or f2 % 2 == 0:
                    continue
                for left in ci_with_frobenius(f1):
                    if a2 not in left or a2 in left.generators:
                        continue
                    for right in ci_with_frobenius(f2):
                        if a1 not in right or a1 in right.generators:
                            continue
                        scaled = [a1 * g for g in left.generators]
                        key = tuple(sorted(scaled + [a2 * g for g in right.generators]))
                        if key in found:
                            continue
                        glued = found[key] = NumericalSemigroup(key)
                        if glued.generators != key or glued.frobenius != frobenius:
                            raise RuntimeError(f"gluing {key} is not minimal or F != {frobenius}")
        a1 += 1
    return tuple(found[key] for key in sorted(found))
