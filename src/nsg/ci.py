"""Complete intersections: detection and gluing trees.

A semigroup is a complete intersection when its minimal presentation has the
least possible size, embedding dimension minus one. Equivalently it is built
recursively by gluings ``a1*S1 + a2*S2`` from copies of the non-negative
integers, and equivalently again its membership series is the quotient of
``prod_b (1 - x^b)^(nc(b) - 1)`` over Betti elements by
``prod_i (1 - x^(n_i))`` over generators.

:func:`is_complete_intersection` decides by the presentation size, read from
the Betti catalog of a :class:`~nsg.bettiposet.SemigroupAnalysis` behind its
symmetry gate (every complete intersection is symmetric). The gluing tree,
:class:`Gluing` tuples nested down to :data:`LEAF`, is the witness ``nsg
analyze`` prints. The product identities, at the root and at every gluing,
are oracles in the test suite, which checks all routes agree.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .bettiposet import SemigroupAnalysis
from .semigroup import NumericalSemigroup


class Leaf(NamedTuple):
    """The non-negative integers; the base of every gluing tree."""

    def to_json(self):
        return "N"


class Gluing(NamedTuple):
    """An internal node ``a1*left + a2*right`` with coprime scales.

    The scales satisfy: a2 is a non-generator member of the left semigroup
    and a1 a non-generator member of the right one. The Betti set is
    ``{a1*a2}`` together with the scaled Betti sets of the parts. The
    Frobenius number composes as ``a1*a2 + a1*F(left) + a2*F(right)``
    (compare degrees in the product formula for the glued polynomial);
    :func:`~nsg.enumeration.ci_with_frobenius` solves this for the parts to
    enumerate complete intersections by Frobenius number.
    """

    a1: int
    left: Gluing | Leaf
    a2: int
    right: Gluing | Leaf

    def to_json(self):
        return {  # keys in this order: the exports hash json.dumps unsorted
            "a1": self.a1,
            "left": self.left.to_json(),
            "a2": self.a2,
            "right": self.right.to_json(),
        }


LEAF = Leaf()


def is_complete_intersection(S: NumericalSemigroup) -> bool:
    """Whether the minimal presentation has size embedding dimension - 1.

    Non-symmetric semigroups are rejected without factorizations; otherwise
    the size is summed over the Betti catalog (see
    :attr:`~nsg.bettiposet.SemigroupAnalysis.complete_intersection`).
    """
    return SemigroupAnalysis(S).complete_intersection


@lru_cache(maxsize=1024)  # one entry per semigroup, gluing parts included
def gluing_decompose(S: NumericalSemigroup) -> Gluing | Leaf | None:
    """Recursive gluing witness, or None when no full tree exists.

    Bipartitions of the minimal generators are scored by (a1, a2, part1) and
    tried in ascending order; the first fully decomposable split is returned.
    Gluings are not unique, so this fixes one deterministic choice. Each
    condition is tested once: the parts' gcds a1, a2 are coprime, as their
    gcd is that of the generators; the parts divided by them are minimal, as
    a sum relation among them scales to one among the generators; a1 > a2 is
    skipped, as its mirror sorts earlier and succeeds or fails with it.
    """
    gens = S.generators
    e = len(gens)
    if e == 1:  # gcd 1: the non-negative integers
        return LEAF
    # gcd over subsets by lowest-bit recurrence
    subset_gcd = [0] * (1 << e)
    for mask in range(1, 1 << e):
        low = (mask & -mask).bit_length() - 1
        subset_gcd[mask] = gcd(subset_gcd[mask & (mask - 1)], gens[low])
    full = (1 << e) - 1
    candidates = []
    for mask in range(1, full):
        a1 = subset_gcd[mask]
        a2 = subset_gcd[full ^ mask]
        if 2 <= a1 < a2:
            part1 = tuple(gens[i] for i in range(e) if mask >> i & 1)
            candidates.append((a1, a2, part1, mask))
    candidates.sort()
    for a1, a2, part1, mask in candidates:
        left = NumericalSemigroup(g // a1 for g in part1)
        if a2 not in left or a2 in left.generators:
            continue
        right = NumericalSemigroup(g // a2 for i, g in enumerate(gens) if not mask >> i & 1)
        if a1 not in right or a1 in right.generators:
            continue
        left_tree = gluing_decompose(left)
        right_tree = None if left_tree is None else gluing_decompose(right)
        if right_tree is not None:
            return Gluing(a1, left_tree, a2, right_tree)
    return None
