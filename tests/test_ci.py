"""Complete intersections: every route to the answer agrees with the gluings."""

import pytest

from nsg import (
    EnumerationJob,
    Gluing,
    Leaf,
    NumericalSemigroup,
    SemigroupAnalysis,
    ci_with_frobenius,
    enumerate_by_frobenius,
    enumerate_job,
    gluing_decompose,
    is_complete_intersection,
    is_cyclotomic,
    presentation_size,
)
from nsg import factorization

from oracles import mul, semigroup_polynomial

ROUTES = {
    "is_complete_intersection": is_complete_intersection,
    "presentation size": lambda S: presentation_size(S) == S.embedding_dimension - 1,
    "gluing tree": lambda S: gluing_decompose(S) is not None,
    "cyclotomic": is_cyclotomic,
}



def _one_minus_xk(k):
    return [1] + [0] * (k - 1) + [-1]


def _inflate(poly, a):
    """Substitute x -> x^a in a polynomial."""
    out = [0] * (a * (len(poly) - 1) + 1) if poly else []
    for i, c in enumerate(poly):
        out[a * i] = c
    return out


def _tree_generators(tree):
    if not isinstance(tree, Gluing):
        return (1,)
    scaled = [tree.a1 * g for g in _tree_generators(tree.left)]
    scaled += [tree.a2 * g for g in _tree_generators(tree.right)]
    return tuple(sorted(scaled))


def _tree_betti(tree):
    """The Betti set by the composition rule: {a1*a2} and the scaled parts' sets."""
    if not isinstance(tree, Gluing):
        return frozenset()
    return (
        frozenset({tree.a1 * tree.a2})
        | frozenset(tree.a1 * b for b in _tree_betti(tree.left))
        | frozenset(tree.a2 * b for b in _tree_betti(tree.right))
    )


def _assert_tree_identities(tree, betti=None):
    """The product formula and the Betti composition at every gluing.

    ``betti`` is the root's known Betti set; every other node's catalog is
    built through the ``factorization`` module, so ``catalog_builds`` sees it.
    """
    if not isinstance(tree, Gluing):
        return
    for part in (tree.left, tree.right):
        _assert_tree_identities(part)
    glued = NumericalSemigroup(_tree_generators(tree))
    lhs = mul(semigroup_polynomial(glued), _one_minus_xk(tree.a1))
    lhs = mul(lhs, _one_minus_xk(tree.a2))
    rhs = mul([1, -1], _one_minus_xk(tree.a1 * tree.a2))
    for part, scale in ((tree.left, tree.a1), (tree.right, tree.a2)):
        part_polynomial = semigroup_polynomial(NumericalSemigroup(_tree_generators(part)))
        rhs = mul(rhs, _inflate(part_polynomial, scale))
    assert lhs == rhs, f"product formula fails at node {tree.a1}, {tree.a2}"
    if betti is None:
        betti = frozenset(factorization.betti_elements(glued))
    assert _tree_betti(tree) == betti, f"Betti composition fails at {glued.generators}"


def verify_ci_identities(S):
    """The exact product identities a complete intersection satisfies.

    The semigroup polynomial factors over the Betti elements, which gives the
    degree identity, and the gluing tree satisfies the product formula and
    the Betti composition rule at every node.
    """
    analysis = SemigroupAnalysis(S)
    assert analysis.complete_intersection, S.generators
    catalog = analysis.betti
    lhs = semigroup_polynomial(S)
    for n in S.generators:
        lhs = mul(lhs, _one_minus_xk(n))
    rhs = [1, -1]  # 1 - x
    for b, data in catalog.items():
        for _ in range(data.nc - 1):
            rhs = mul(rhs, _one_minus_xk(b))
    assert lhs == rhs, f"polynomial product identity fails for {S.generators}"
    degree = sum(b * (data.nc - 1) for b, data in catalog.items())
    assert S.frobenius + sum(S.generators) == degree, S.generators
    _assert_tree_identities(gluing_decompose(S), frozenset(catalog))


@pytest.mark.parametrize(
    "frobenius",
    list(range(1, 14, 2))
    + [pytest.param(F, marks=pytest.mark.stretch) for F in range(15, 24, 2)],
)
def test_gluings_find_exactly_the_complete_intersections(frobenius):
    glued = ci_with_frobenius(frobenius)
    assert glued
    family = list(enumerate_by_frobenius(frobenius))
    for name, route in ROUTES.items():
        assert {S for S in family if route(S)} == set(glued), name
    for S in glued:
        verify_ci_identities(S)
    job = EnumerationJob("by-frobenius", frobenius, ("ci",))
    assert list(enumerate_job(job)) == list(glued)


def test_trivial_semigroup(naturals):
    assert is_complete_intersection(naturals)
    assert presentation_size(naturals) == 0


class TestSymmetryGate:
    def test_non_symmetric_rejected_without_factorizations(self, s357, graph_builds):
        assert not is_complete_intersection(s357)
        assert not graph_builds

    def test_symmetric_decided_by_the_catalog(self, catalog_builds, graph_builds):
        S = NumericalSemigroup(5, 6, 7, 8)  # symmetric, presentation size 5 > e - 1
        assert S.is_symmetric()
        assert not is_complete_intersection(S)
        assert catalog_builds == {S.generators: 1} and not graph_builds
        assert presentation_size(S) == 5

    def test_identities_build_each_graph_once(self, glued, catalog_builds, graph_builds):
        # the root of the gluing tree reuses the catalog of the analysis;
        # each part of the tree gets one catalog, and no factorization graph
        verify_ci_identities(glued)
        assert catalog_builds[glued.generators] == 1
        assert set(catalog_builds.values()) == {1} and not graph_builds


def test_trees_compare_by_value():
    assert Leaf() == Leaf() and hash(Leaf()) == hash(Leaf())
    tree = gluing_decompose(NumericalSemigroup(8, 12, 18, 25))
    again = Gluing(tree.a1, tree.left, tree.a2, tree.right)
    assert again == tree and hash(again) == hash(tree)
    assert again is not tree
    assert Gluing(tree.a1, tree.left, tree.a2 + 1, tree.right) != tree
    assert tree != Leaf()
