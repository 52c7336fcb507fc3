"""Complete intersections: every route to the answer agrees with the gluings."""

import pytest

from nsg import (
    EnumerationJob,
    NotCompleteIntersectionError,
    NumericalSemigroup,
    ci_with_frobenius,
    enumerate_by_frobenius,
    enumerate_job,
    gluing_decompose,
    is_complete_intersection,
    is_cyclotomic,
    presentation_size,
    verify_ci_identities,
)

ROUTES = {
    "is_complete_intersection": is_complete_intersection,
    "presentation size": lambda S: presentation_size(S) == S.embedding_dimension - 1,
    "gluing tree": lambda S: gluing_decompose(S) is not None,
    "cyclotomic": is_cyclotomic,
}


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
        assert verify_ci_identities(S).all_pass, S
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

    def test_identities_refuse_a_non_complete_intersection(self, s357):
        with pytest.raises(NotCompleteIntersectionError):
            verify_ci_identities(s357)

    def test_identities_build_each_graph_once(self, glued, catalog_builds, graph_builds):
        # the root of the gluing tree reuses the catalog of the analysis;
        # each part of the tree gets one catalog, and no factorization graph
        assert verify_ci_identities(glued).all_pass
        assert catalog_builds[glued.generators] == 1
        assert set(catalog_builds.values()) == {1} and not graph_builds
