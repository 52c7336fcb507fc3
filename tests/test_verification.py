import json

import pytest

from nsg import NumericalSemigroup, SemigroupAnalysis, classify, walk_genus_tree
from nsg import analysis as analysis_module
from nsg.enumeration import format_token
from nsg.errors import BoundTooSmallError
from nsg.verification import (
    CHECKS,
    EnumerationJob,
    build_report,
    enumerate_job,
    run_verification,
    validate_checks,
)
from nsg import verification as verification_module

from expected import GENUS_7_ALL_CHECKS, REPORTS, SEMIGROUPS_PER_GENUS


def _dumps(data) -> str:
    return json.dumps(data)  # keeps key order, as the exports do


class TestFrozenExports:
    @pytest.mark.parametrize("generators", list(REPORTS))
    def test_build_report(self, generators):
        record = build_report(NumericalSemigroup(generators))
        assert _dumps(record.to_json_dict()) == _dumps(REPORTS[generators])

    def test_build_report_from_analysis(self):
        analysis = SemigroupAnalysis(NumericalSemigroup(5, 6, 7))
        record = build_report(analysis, {"thm1": True})
        expected = dict(REPORTS[(5, 6, 7)], verdicts={"thm1": True})
        assert record.to_json_dict() == expected

    def test_genus_7_all_checks(self):
        summary = run_verification(EnumerationJob("by-genus", 7), tuple(CHECKS))
        assert _dumps(summary.to_json_dict()) == _dumps(GENUS_7_ALL_CHECKS)


class TestSharedAnalysis:
    def _count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(analysis_module, name)

        def counted(S, *args):
            calls.append(S)
            return original(S, *args)

        monkeypatch.setattr(analysis_module, name, counted)
        return calls

    def test_each_invariant_once_per_semigroup(self, monkeypatch):
        counted = {
            name: self._count_calls(monkeypatch, name)
            for name in ("exponent_sequence", "betti_elements", "cyclotomic_factorization")
        }
        summary = run_verification(EnumerationJob("by-genus", 6), tuple(CHECKS))
        assert summary.total == 50
        for name, calls in counted.items():
            assert len(calls) == len(set(calls)), name
        assert len(counted["betti_elements"]) == len(counted["cyclotomic_factorization"]) == 50
        # every check is vacuous on <1>, so nothing reads its exponent sequence
        family = {S for S, _ in walk_genus_tree(6)}
        assert family - set(counted["exponent_sequence"]) == {NumericalSemigroup(1)}

    def test_filter_reads_the_analysis_the_checks_read(self, monkeypatch):
        betti_calls = self._count_calls(monkeypatch, "betti_elements")
        job = EnumerationJob("by-genus", 7, ("betti-sorted",))
        summary = run_verification(job, tuple(CHECKS))
        family = [S for S, _ in walk_genus_tree(7)]
        # the filter computed the catalog of every semigroup, the checks
        # reused it
        assert betti_calls == family
        sorted_family = [S for S in family if classify(S).betti_sorted]
        assert list(enumerate_job(job)) == sorted_family
        assert summary.total == len(sorted_family) == 15
        assert summary.pass_counts == {name: 15 for name in CHECKS}
        assert summary.counterexamples == []

    def test_bound_below_default_rejected(self, s357):
        with pytest.raises(BoundTooSmallError):
            SemigroupAnalysis(s357, s357.default_bound - 1)

    def test_larger_bound_extends_the_prefix(self, s357):
        analysis = SemigroupAnalysis(s357, 30)
        assert len(analysis.sequence) == 30
        assert len(analysis.denumerants) == 31
        assert analysis.support.bound == 30


class TestOneGraphPerElement:
    @pytest.mark.parametrize(
        "job",
        [
            pytest.param(EnumerationJob("by-genus", 7), id="by-genus-7"),
            pytest.param(
                EnumerationJob("by-frobenius", 21, ("ci",)), id="by-frobenius-21-ci"
            ),
            # the complete intersections up to F = 45, glued by Frobenius number
            pytest.param(
                EnumerationJob("by-frobenius", 45, ("ci",)), id="ci-by-frobenius-45"
            ),
        ],
    )
    def test_no_factorization_graph_built_twice(self, job, catalog_builds, graph_builds):
        """The CI decision, the filters and the checks share one Betti catalog.

        It is built once per semigroup from the graphs ∇_s, so no
        factorization graph is built at all.
        """
        summary = run_verification(job, tuple(CHECKS))
        assert summary.total and len(catalog_builds) == summary.total
        assert set(catalog_builds.values()) == {1}
        assert not graph_builds


class TestEnumerationJob:
    @pytest.mark.parametrize("mode", ["by-frobenius"])
    def test_resume_outside_by_genus_rejected(self, mode):
        with pytest.raises(ValueError, match="by-genus"):
            EnumerationJob(mode, 7, resume_token="2.3")

    @pytest.mark.parametrize("mode", ["by-frobenius"])
    def test_frobenius_below_1_rejected(self, mode):
        with pytest.raises(ValueError, match=">= 1"):
            EnumerationJob(mode, 0)
        assert EnumerationJob("by-genus", 0).limit == 0

    @pytest.mark.parametrize("mode", ["by-genus", "by-frobenius"])
    @pytest.mark.parametrize("limit", [2.5, True])
    def test_limit_must_be_an_int(self, mode, limit):
        with pytest.raises(ValueError, match="limit must be an int"):
            EnumerationJob(mode, limit)

    def test_glued_mode_is_a_filter_not_a_mode(self):
        # complete intersections by Frobenius number: by-frobenius with "ci"
        with pytest.raises(ValueError, match="unknown mode"):
            EnumerationJob("ci-by-frobenius", 45)

    @pytest.mark.parametrize("mode", ["by-genus", "by-frobenius"])
    def test_repeated_filter_rejected(self, mode):
        with pytest.raises(ValueError, match="filter 'ci' named twice"):
            EnumerationJob(mode, 4, ("ci", "betti-sorted", "ci"))

    def test_malformed_resume_token_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            EnumerationJob("by-genus", 4, resume_token="2.x")

    @pytest.mark.parametrize("token", ["-1", "1.2.2"])
    def test_token_naming_no_node_rejected(self, token):
        with pytest.raises(ValueError, match="names no node"):
            EnumerationJob("by-genus", 3, resume_token=token)

    def test_resume_gives_the_exact_suffix(self):
        walk = [path for _, path in walk_genus_tree(5)]
        assert len(walk) == sum(SEMIGROUPS_PER_GENUS[:6])
        full = run_verification(EnumerationJob("by-genus", 5), ("thm1",))
        for i, path in enumerate(walk):
            token = format_token(path)
            suffix = [p for _, p in walk_genus_tree(5, resume=path)]
            assert suffix == walk[i + 1:], token
            resumed = run_verification(EnumerationJob("by-genus", 5, resume_token=token), ("thm1",))
            assert resumed.total == len(walk) - i - 1
            if resumed.total:
                assert resumed.last_token == full.last_token


class TestValidateChecks:
    def test_known_names_kept_in_order(self):
        assert validate_checks(iter(["thm2", "thm1"])) == ("thm2", "thm1")

    @pytest.mark.parametrize(
        "names, message",
        [((), "no check"), (("thm9",), "unknown"), (("",), "unknown"), (("thm1", "thm1"), "twice")],
    )
    def test_bad_names_rejected(self, names, message):
        with pytest.raises(ValueError, match=message):
            validate_checks(names)

    def test_run_rejects_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(verification_module, "_stream", lambda job: pytest.fail("walked"))
        with pytest.raises(ValueError, match="twice"):
            run_verification(EnumerationJob("by-genus", 3), ("thm1", "thm1"))


class TestProgress:
    def _calls(self, job):
        calls = []
        summary = run_verification(job, ("conj-msg",), lambda n, token: calls.append((n, token)))
        return calls, summary

    def test_every_500_semigroups(self):
        calls, summary = self._calls(EnumerationJob("by-frobenius", 21))
        assert summary.total == 1828
        # a by-Frobenius walk cannot resume, so it reports no token
        assert calls == [(500, None), (1000, None), (1500, None)]
        assert summary.last_token is None

    def test_glued_stream_has_no_token(self):
        summary = run_verification(EnumerationJob("by-frobenius", 45, ("ci",)), ("conj-msg",))
        assert summary.total and summary.last_token is None

    def test_genus_0_ends_at_the_root(self):
        summary = run_verification(EnumerationJob("by-genus", 0), ("conj-msg",))
        assert summary.total == 1 and summary.last_token == "root"
        assert summary.all_pass

    def test_token_is_the_path_reached(self):
        calls, summary = self._calls(EnumerationJob("by-genus", 11))
        assert summary.total == 821
        path = [path for _, path in walk_genus_tree(11)][499]
        assert calls == [(500, format_token(path))]
        assert calls == [(500, "1.2.3.4.5.7.8.9.11.13.14")]
