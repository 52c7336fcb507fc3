"""Complete intersections: detection, gluing trees, and the product identities.

A semigroup is a complete intersection when its minimal presentation has the
least possible size, embedding dimension minus one. Equivalently it is built
recursively by gluings ``a1*S1 + a2*S2`` from copies of the non-negative
integers, and equivalently again its membership series is the quotient of
``prod_b (1 - x^b)^(nc(b) - 1)`` over Betti elements by
``prod_i (1 - x^(n_i))`` over generators.

:func:`is_complete_intersection` decides by the presentation size, read from
the Betti catalog of a :class:`~nsg.analysis.SemigroupAnalysis` behind its
symmetry gate (every complete intersection is symmetric). Gluing trees and
the product identities are witnesses; the test suite checks all routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import intpoly
from .analysis import SemigroupAnalysis
from .errors import NotCompleteIntersectionError
from .factorization import betti_elements
from .semigroup import NumericalSemigroup


class GluingTree:
    """Recursive witness that a semigroup is a complete intersection."""

    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup(self.generator_values())

    def generator_values(self) -> tuple[int, ...]:
        raise NotImplementedError

    def betti_values(self) -> frozenset[int]:
        raise NotImplementedError


@dataclass(frozen=True)
class Leaf(GluingTree):
    """The non-negative integers; the base of every gluing tree."""

    def generator_values(self) -> tuple[int, ...]:
        return (1,)

    def betti_values(self) -> frozenset[int]:
        return frozenset()

    def to_json(self):
        return "N"


@dataclass(frozen=True)
class Gluing(GluingTree):
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
    left: GluingTree
    a2: int
    right: GluingTree

    def generator_values(self) -> tuple[int, ...]:
        scaled = [self.a1 * g for g in self.left.generator_values()]
        scaled += [self.a2 * g for g in self.right.generator_values()]
        return tuple(sorted(scaled))

    def betti_values(self) -> frozenset[int]:
        return (
            frozenset({self.a1 * self.a2})
            | frozenset(self.a1 * b for b in self.left.betti_values())
            | frozenset(self.a2 * b for b in self.right.betti_values())
        )

    def to_json(self):
        return {
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
    :attr:`~nsg.analysis.SemigroupAnalysis.complete_intersection`).
    """
    return SemigroupAnalysis(S).complete_intersection


def gluing_decompose(S: NumericalSemigroup) -> GluingTree | None:
    """Recursive gluing witness, or None when no full tree exists.

    Bipartitions of the minimal generators are scored by (a1, a2, part1) and
    tried in ascending order; the first fully decomposable split is returned.
    Gluings are not unique, so this fixes one deterministic choice.
    """
    return _decompose(S.generators)


@lru_cache(maxsize=1024)  # one entry per generator tuple, gluing parts included
def _decompose(gens: tuple[int, ...]) -> GluingTree | None:
    e = len(gens)
    if e == 1:
        return LEAF if gens == (1,) else None
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
        if a1 < 2 or a2 < 2 or gcd(a1, a2) != 1:
            continue
        part1 = tuple(gens[i] for i in range(e) if mask >> i & 1)
        candidates.append((a1, a2, part1, mask))
    candidates.sort()
    for a1, a2, part1, mask in candidates:
        part2 = tuple(gens[i] for i in range(e) if not mask >> i & 1)
        left_semigroup = NumericalSemigroup(g // a1 for g in part1)
        if a2 not in left_semigroup or a2 in left_semigroup.generators:
            continue
        right_semigroup = NumericalSemigroup(g // a2 for g in part2)
        if a1 not in right_semigroup or a1 in right_semigroup.generators:
            continue
        if left_semigroup.generators != tuple(g // a1 for g in part1):
            continue
        if right_semigroup.generators != tuple(g // a2 for g in part2):
            continue
        left = gluing_decompose(left_semigroup)
        if left is None:
            continue
        right = gluing_decompose(right_semigroup)
        if right is None:
            continue
        return Gluing(a1, left, a2, right)
    return None


@dataclass(frozen=True)
class CiCheck:
    check_id: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class CiReport:
    generators: tuple[int, ...]
    checks: tuple[CiCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_ci_identities(S: NumericalSemigroup) -> CiReport:
    """Exact product identities satisfied by a complete intersection.

    Checks the factorization of the semigroup polynomial over Betti elements,
    the induced degree identity, the product formula at every node of the
    gluing tree, and the Betti-set composition rule of gluings.
    """
    analysis = SemigroupAnalysis(S)
    if not analysis.complete_intersection:
        raise NotCompleteIntersectionError(f"{S!r} is not a complete intersection")
    catalog = analysis.betti
    checks = []

    lhs = S.polynomial()
    for n in S.generators:
        lhs = intpoly.mul(lhs, intpoly.one_minus_xk(n))
    rhs = [1, -1]  # 1 - x
    for b, data in catalog.items():
        for _ in range(data.nc - 1):
            rhs = intpoly.mul(rhs, intpoly.one_minus_xk(b))
    checks.append(
        CiCheck(
            "polynomial-product-identity",
            intpoly.trim(lhs) == intpoly.trim(rhs),
            None if intpoly.trim(lhs) == intpoly.trim(rhs) else "products differ",
        )
    )

    degree_lhs = S.frobenius + sum(S.generators)
    degree_rhs = sum(b * (data.nc - 1) for b, data in catalog.items())
    checks.append(
        CiCheck(
            "degree-identity",
            degree_lhs == degree_rhs,
            None if degree_lhs == degree_rhs else f"{degree_lhs} != {degree_rhs}",
        )
    )

    tree = gluing_decompose(S)
    node_ok, node_witness = _check_tree_polynomials(tree)
    checks.append(CiCheck("gluing-polynomial-identity", node_ok, node_witness))

    betti_ok, betti_witness = _check_tree_betti(tree, frozenset(catalog))
    checks.append(CiCheck("gluing-betti-composition", betti_ok, betti_witness))
    return CiReport(S.generators, tuple(checks))


def _inflate(poly: list[int], a: int) -> list[int]:
    """Substitute x -> x^a in a polynomial."""
    out = [0] * (a * (len(poly) - 1) + 1) if poly else []
    for i, c in enumerate(poly):
        out[a * i] = c
    return out


def _check_tree_polynomials(tree: GluingTree) -> tuple[bool, str | None]:
    if isinstance(tree, Leaf):
        return True, None
    assert isinstance(tree, Gluing)
    for part in (tree.left, tree.right):
        ok, witness = _check_tree_polynomials(part)
        if not ok:
            return ok, witness
    glued = tree.semigroup().polynomial()
    lhs = intpoly.mul(glued, intpoly.one_minus_xk(tree.a1))
    lhs = intpoly.mul(lhs, intpoly.one_minus_xk(tree.a2))
    rhs = intpoly.mul([1, -1], intpoly.one_minus_xk(tree.a1 * tree.a2))
    rhs = intpoly.mul(rhs, _inflate(tree.left.semigroup().polynomial(), tree.a1))
    rhs = intpoly.mul(rhs, _inflate(tree.right.semigroup().polynomial(), tree.a2))
    if intpoly.trim(lhs) != intpoly.trim(rhs):
        return False, f"product formula fails at node {tree.a1}, {tree.a2}"
    return True, None


def _check_tree_betti(
    tree: GluingTree, actual: frozenset[int] | None = None
) -> tuple[bool, str | None]:
    """Betti composition at every gluing; ``actual`` is the root's known Betti set."""
    if isinstance(tree, Leaf):
        return True, None
    assert isinstance(tree, Gluing)
    for part in (tree.left, tree.right):
        ok, witness = _check_tree_betti(part)
        if not ok:
            return ok, witness
    composed = tree.betti_values()
    if actual is None:
        actual = frozenset(betti_elements(tree.semigroup()))
    if composed != actual:
        return False, f"Betti composition fails: {sorted(composed)} vs {sorted(actual)}"
    return True, None
