"""The package's records stay immutable and compare by value."""

import pytest

from nsg import (
    EnumerationJob,
    LEAF,
    NumericalSemigroup,
    SemigroupAnalysis,
    build_report,
    factor_into_cyclotomics,
    factorization_graph,
    gluing_decompose,
)

from oracles import semigroup_polynomial


def _records():
    """One instance of each record class and a field of it (Leaf has none)."""
    S = NumericalSemigroup(4, 6, 9)
    analysis = SemigroupAnalysis(S)
    report = analysis.theorem_report
    cases = [
        (analysis.betti_order.hasse(), "covers"),
        (analysis.support, "members"),
        (analysis.classification, "betti_sorted"),
        (report.checks[0], "passed"),
        (report, "checks"),
        (factorization_graph(S, 18), "vertices"),
        (analysis.betti[18], "nc"),
        (analysis.sequence, "entries"),
        (factor_into_cyclotomics(semigroup_polynomial(S)), "complete"),
        (LEAF, "left"),
        (gluing_decompose(S), "a1"),
        (EnumerationJob("by-genus", 3), "limit"),
        (build_report(analysis), "genus"),
    ]
    return [pytest.param(r, f, id=f"{type(r).__name__}.{f}") for r, f in cases]


@pytest.mark.parametrize("record, field", _records())
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_jobs_compare_by_value():
    job = EnumerationJob("by-genus", 3, ("ci",))
    assert job == EnumerationJob("by-genus", 3, ("ci",))
    assert hash(job) == hash(EnumerationJob("by-genus", 3, ("ci",)))
    assert job != EnumerationJob("by-genus", 4, ("ci",))
    assert repr(job) == "EnumerationJob(mode='by-genus', limit=3, filters=('ci',), resume_token=None)"


def test_job_filters_given_as_a_list_are_stored_as_a_tuple():
    job = EnumerationJob("by-genus", 3, ["ci"])
    assert job.filters == ("ci",)
    assert hash(job) == hash(EnumerationJob("by-genus", 3, ("ci",)))
