import json
import re
import subprocess
from collections import Counter
import sys
from pathlib import Path

import pytest

from nsg import NumericalSemigroup, SemigroupAnalysis, classify, enumerate_by_genus
from nsg import bettiposet as bettiposet_module
from nsg import witt as witt_module
from nsg.enumeration import ci_with_frobenius, enumerate_by_frobenius, format_token
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
from nsg.witt import ExponentSequence

from expected import GENUS_7_ALL_CHECKS, REPORTS, SEMIGROUPS_PER_GENUS
from oracles import semigroup_polynomial, sweep_polynomial


def _dumps(data) -> str:
    return json.dumps(data)  # keeps key order, as the exports do


class TestFrozenExports:
    @pytest.mark.parametrize("generators", list(REPORTS))
    def test_build_report(self, generators):
        record = build_report(SemigroupAnalysis(NumericalSemigroup(generators)))
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
    def _count_calls(self, monkeypatch, name, module=bettiposet_module, key=lambda x, *_: x):
        """Record key(arguments) of each call of ``module.name``."""
        calls = []
        original = getattr(module, name)

        def counted(first, *args):
            calls.append(key(first, *args))
            return original(first, *args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_invariant_once_per_semigroup(self, monkeypatch, swept):
        betti_calls = self._count_calls(monkeypatch, "betti_elements")
        factor_reads = self._count_calls(
            monkeypatch, "cyclotomic_factors", witt_module.ExponentSweep,
            key=lambda sweep: tuple(sweep_polynomial(sweep)),
        )
        summary = run_verification(EnumerationJob("by-genus", 6), tuple(CHECKS))
        assert summary.total == 50
        family = list(enumerate_by_genus(6))
        assert betti_calls == family
        # the factors of a symmetric semigroup are read once, off the one sweep
        symmetric = [tuple(semigroup_polynomial(S)) for S in family if S.is_symmetric()]
        assert factor_reads == symmetric and len(symmetric) == 17
        # which the checks extend to the default bound, each entry once; every
        # factor reading settles within it, and the checks are vacuous on <1>
        reaches = {poly: swept.reach(poly) for poly in list(swept)}
        assert reaches == {tuple(semigroup_polynomial(S)): S.default_bound for S in family[1:]}
        assert family[0].is_trivial

    @pytest.mark.parametrize(
        "job, checks",
        [
            (EnumerationJob("by-genus", 7), tuple(CHECKS)),
            (
                EnumerationJob("by-frobenius", 41, ("ci",)),
                ("ci-cyclotomic", "conj-msg", "conj-betti"),
            ),
        ],
        ids=["by-genus-7", "ci-frobenius-41"],
    )
    def test_check_order_changes_neither_summary_nor_sweep(self, swept, job, checks):
        summaries, reaches = [], []
        for order in (checks, checks[::-1]):
            swept.clear()
            summary = run_verification(job, order).to_json_dict()
            summaries.append(_dumps(dict(summary, checks=sorted(order))))
            reaches.append({poly: swept.reach(poly) for poly in list(swept)})
        assert summaries[0] == summaries[1]
        assert reaches[0] == reaches[1]
        swept_family = [S for S in enumerate_job(job) if not S.is_trivial]
        assert set(reaches[0]) == {tuple(semigroup_polynomial(S)) for S in swept_family}

    def test_one_apery_set_per_semigroup(self, monkeypatch):
        # the sweep and the catalog both read Ap(S, m), the one copy the analysis holds
        calls = Counter()
        apery_set = NumericalSemigroup.apery_set

        def counted(S, m):
            calls[S.generators] += 1
            return apery_set(S, m)

        monkeypatch.setattr(NumericalSemigroup, "apery_set", counted)
        summary = run_verification(EnumerationJob("by-genus", 9), tuple(CHECKS))
        assert summary.total == 274 and summary.counterexamples == []
        assert len(calls) == 274 and set(calls.values()) == {1}

    def test_thm1_alone_builds_no_betti_catalog(self, catalog_builds):
        summary = run_verification(EnumerationJob("by-genus", 8), ("thm1",))
        assert summary.total == 156 and summary.all_pass
        assert not catalog_builds

    def test_filter_reads_the_analysis_the_checks_read(self, monkeypatch):
        betti_calls = self._count_calls(monkeypatch, "betti_elements")
        job = EnumerationJob("by-genus", 7, ("betti-sorted",))
        summary = run_verification(job, tuple(CHECKS))
        family = list(enumerate_by_genus(7))
        # the filter computed the catalog of every semigroup, the checks
        # reused it
        assert betti_calls == family
        sorted_family = [S for S in family if classify(S).betti_sorted]
        assert list(enumerate_job(job)) == sorted_family
        assert summary.total == len(sorted_family) == 15
        assert summary.pass_counts == {name: 15 for name in CHECKS}
        assert summary.counterexamples == []

    def test_no_non_symmetric_member_reaches_the_sweep(self, monkeypatch):
        # the symmetry gate at construction settles both conjectures off the 36
        reached, of_semigroup = [], witt_module.ExponentSweep.of_semigroup.__func__

        def counted(cls, S):
            reached.append(S)
            return of_semigroup(cls, S)

        monkeypatch.setattr(witt_module.ExponentSweep, "of_semigroup", classmethod(counted))
        summary = run_verification(EnumerationJob("by-frobenius", 23), ("conj-msg", "conj-betti"))
        assert summary.total == 4096 and summary.all_pass
        assert len(reached) == 36 and all(S.is_symmetric() for S in reached)

    def test_bound_below_default_rejected(self, s357):
        with pytest.raises(BoundTooSmallError):
            SemigroupAnalysis(s357, s357.default_bound - 1)

    @pytest.mark.parametrize("bound", [40.0, "x", True])
    def test_bound_must_be_an_int_at_construction(self, s357, bound):
        with pytest.raises(ValueError, match=re.escape(f"bound must be an int, got {bound!r}")):
            SemigroupAnalysis(s357, bound)

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


class TestGluedRouteRechecks:
    """A glued semigroup that is not a complete intersection stops the run."""

    JOB = EnumerationJob("by-frobenius", 45, ("ci",))

    def test_in_process(self, monkeypatch):
        monkeypatch.setattr(
            verification_module, "ci_with_frobenius", lambda F: (NumericalSemigroup(3, 5, 7),)
        )
        with pytest.raises(RuntimeError, match=r"\(3, 5, 7\), not a complete intersection"):
            run_verification(self.JOB, ("conj-msg",))

    def test_kept_under_python_O(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); print(__debug__)\n"
            "from nsg import NumericalSemigroup, verification as v\n"
            "v.ci_with_frobenius = lambda F: (NumericalSemigroup(3, 5, 7),)\n"
            "v.run_verification(v.EnumerationJob('by-frobenius', 45, ('ci',)), ('conj-msg',))\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (1, "False\n"), result.stderr
        last = result.stderr.splitlines()[-1]
        assert last == "RuntimeError: gluing yielded (3, 5, 7), not a complete intersection"


class TestEnumerationJob:
    def test_resume_by_frobenius_checked_at_the_job(self):
        with pytest.raises(ValueError, match=r"names no node of this walk: the node \(1, 2, 5\)"):
            EnumerationJob("by-frobenius", 7, resume_token="1.2.5")

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

    @pytest.mark.parametrize("token", ["1_0", " 1. 2", "+1.2", "0001", "1.02", "-0", "1.2 "])
    def test_token_format_token_never_writes_rejected(self, token):
        # int() strips blanks, signs, underscores and zeros: each resumed at a node
        with pytest.raises(ValueError, match=re.escape(f"malformed resume token {token!r}")):
            EnumerationJob("by-genus", 4, resume_token=token)

    @pytest.mark.parametrize("token", ["-1", "1.2.2"])
    def test_token_naming_no_node_rejected(self, token):
        with pytest.raises(ValueError, match="names no node"):
            EnumerationJob("by-genus", 3, resume_token=token)

    def test_resume_gives_the_exact_suffix(self):
        walk = [S.gaps for S in enumerate_by_genus(5)]
        assert len(walk) == sum(SEMIGROUPS_PER_GENUS[:6])
        full = run_verification(EnumerationJob("by-genus", 5), ("thm1",))
        for i, path in enumerate(walk):
            token = format_token(path)
            suffix = [S.gaps for S in enumerate_by_genus(5, resume=path)]
            assert suffix == walk[i + 1:], token
            resumed = run_verification(EnumerationJob("by-genus", 5, resume_token=token), ("thm1",))
            assert resumed.total == len(walk) - i - 1
            if resumed.total:
                assert resumed.last_token == full.last_token

    def test_by_frobenius_resumes_from_a_progress_token(self):
        calls = []
        full = run_verification(
            EnumerationJob("by-frobenius", 21), ("conj-msg",), lambda n, t: calls.append(t)
        )
        token = calls[1]
        assert token == "1.2.3.4.5.6.7.8.9.10.16.17.21"
        job = EnumerationJob("by-frobenius", 21, resume_token=token)
        resumed = run_verification(job, ("conj-msg",))
        assert resumed.total == 828 == full.total - 1000
        assert resumed.last_token == full.last_token


class TestGluedResume:
    @pytest.mark.parametrize("frobenius, size", [(45, 21), (81, 80)])
    def test_every_member_resumes_to_its_suffix(self, frobenius, size):
        family = ci_with_frobenius(frobenius)
        assert len(family) == size
        for i, S in enumerate(family):
            job = EnumerationJob("by-frobenius", frobenius, ("ci",), format_token(S.gaps))
            resumed = run_verification(job, ("conj-msg",))
            assert resumed.total == size - i - 1
            assert resumed.last_token == (format_token(family[-1].gaps) if resumed.total else None)

    def test_token_naming_no_member_rejected(self):
        # the first tree semigroup with F = 45 is no complete intersection
        S = next(enumerate_by_frobenius(45))
        assert S not in ci_with_frobenius(45)
        with pytest.raises(ValueError, match="names no node"):
            EnumerationJob("by-frobenius", 45, ("ci",), format_token(S.gaps))

    @pytest.mark.parametrize("token", ["2", "0", "root"])
    def test_token_naming_no_semigroup_rejected(self, token):
        # {2} is no gap set (1 + 1 = 2), 0 is no gap, and <1> has F = -1
        reason = {
            "2": "complement not closed: 1 + 1 = 2 is a gap",
            "0": "gaps must be positive",
            "root": "the semigroup with gaps () is not a complete intersection "
            "with Frobenius number 45",
        }[token]
        with pytest.raises(ValueError) as error:
            EnumerationJob("by-frobenius", 45, ("ci",), token)
        assert str(error.value).endswith(f"names no node of this walk: {reason}")

    def test_resume_reads_no_members_gaps(self, monkeypatch):
        family = ci_with_frobenius(81)
        token = format_token(family[-2].gaps)
        monkeypatch.setattr(NumericalSemigroup, "gaps", property(lambda S: pytest.fail("gaps")))
        job = EnumerationJob("by-frobenius", 81, ("ci",), token)
        assert list(enumerate_job(job)) == [family[-1]]


class TestTheoremChecks:
    WITNESS_OF = {
        "thm1": "exponent_values_witness",
        "thm5.2": "minimal_betti_witness",
        "thm2": "chain_betti_witness",
    }

    @staticmethod
    def _doctored():
        """<3, 5, 7> with e_4 set to 2, on which all three witnesses name something."""
        analysis = SemigroupAnalysis(NumericalSemigroup(3, 5, 7))
        entries = list(analysis.sequence)
        entries[3] = 2
        analysis.__dict__["sequence"] = ExponentSequence(tuple(entries), analysis.bound)
        return analysis

    def test_verdict_is_the_witness_being_none(self):
        analyses = [SemigroupAnalysis(S) for S in enumerate_by_genus(8)] + [self._doctored()]
        for name, witness in self.WITNESS_OF.items():
            witnesses = [CHECKS[name](a) for a in analyses]
            assert witnesses == [getattr(a, witness)() for a in analyses], name
            assert [w is None for w in witnesses].count(False) == 1, name


class TestConjectureChecks:
    """Doctored analyses on which exactly one conjecture witness fires.

    Each case names a semigroup, the full_exponents its analysis is given,
    the check that must fail and its witness. The doctored exponents of
    <3, 4, 5> are negative at the generators and nc - 1 at the Betti
    elements, so only the conjecture itself is broken there.
    """

    CASES = {
        "ci-not-cyclotomic": (
            (3, 5), lambda a: None,
            "ci-cyclotomic", "complete intersection True, cyclotomic False",
        ),
        "cyclotomic-not-ci": (
            (3, 4, 5),
            lambda a: {1: 1, **dict.fromkeys(a.semigroup.generators, -1),
                       **{b: data.nc - 1 for b, data in a.betti.items()}},
            "ci-cyclotomic", "complete intersection False, cyclotomic True",
        ),
        "extra-negative": (
            (3, 5), lambda a: {**a.full_exponents, 8: -1},
            "conj-msg", "non-generator 8 has e = -1",
        ),
        "changed-e_b": (
            (3, 5), lambda a: {**a.full_exponents, 15: 2},
            "conj-betti", "at 15: e = 2, classes - 1 = 1",
        ),
    }

    @staticmethod
    def _doctored(generators, exponents):
        """The analysis of ``generators``, its support read first, with full_exponents doctored."""
        analysis = SemigroupAnalysis(NumericalSemigroup(generators))
        analysis.support  # the theorem checks keep reading the true support
        analysis.__dict__["full_exponents"] = exponents(analysis)
        return analysis

    @pytest.mark.parametrize("case", list(CASES))
    def test_the_witness_names_the_failure(self, case):
        generators, exponents, name, witness = self.CASES[case]
        analysis = self._doctored(generators, exponents)
        assert {check: CHECKS[check](analysis) for check in CHECKS} == {
            check: witness if check == name else None for check in CHECKS
        }

    @pytest.mark.parametrize("case", list(CASES))
    def test_run_counts_exactly_that_failure(self, monkeypatch, case):
        generators, exponents, name, _ = self.CASES[case]
        target = NumericalSemigroup(generators)

        def analyse(S):
            return self._doctored(generators, exponents) if S == target else SemigroupAnalysis(S)

        monkeypatch.setattr(verification_module, "SemigroupAnalysis", analyse)
        summary = run_verification(EnumerationJob("by-genus", 4), tuple(CHECKS))
        assert summary.total == 15
        assert summary.pass_counts == {check: 15 - (check == name) for check in CHECKS}
        [record] = summary.counterexamples
        assert record.generators == generators
        assert record.verdicts == {check: check != name for check in CHECKS}

    def test_a_generator_without_a_negative_exponent_is_named(self):
        analysis = SemigroupAnalysis(NumericalSemigroup(3, 5))
        analysis.__dict__["full_exponents"] = {**analysis.full_exponents, 5: 0}
        assert analysis.negative_support_witness() == "generator 5 has e = 0"


class TestOneCheckShape:
    """Every check is a witness method of the analysis, as the layering test pins the stack."""

    def test_checks_are_the_analysis_witness_methods(self):
        assert list(CHECKS) == ["ci-cyclotomic", "thm1", "thm2", "thm5.2", "conj-msg", "conj-betti"]
        for name, check in CHECKS.items():
            assert check.__name__.endswith("_witness"), name
            assert getattr(SemigroupAnalysis, check.__name__) is check, name

    def test_every_check_is_none_on_the_trivial_semigroup(self, naturals):
        assert [check(SemigroupAnalysis(naturals)) for check in CHECKS.values()] == [None] * 6

    def test_negative_support_is_vacuous_on_the_trivial_semigroup_without_a_sweep(self, naturals):
        analysis = SemigroupAnalysis(naturals)
        assert CHECKS["conj-msg"](analysis) is None
        assert "sweep" not in analysis.__dict__ and "full_exponents" not in analysis.__dict__


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


class TestTally:
    def test_counts_and_counterexamples_match_a_check_by_check_reference(self, monkeypatch):
        # thm1 fails on odd genus and conj-msg on multiplicity 3, on overlapping members
        monkeypatch.setitem(CHECKS, "thm1", lambda a: "odd genus" if a.semigroup.genus % 2 else None)
        monkeypatch.setitem(
            CHECKS, "conj-msg", lambda a: "m = 3" if a.semigroup.multiplicity == 3 else None
        )
        names = ("conj-msg", "conj-betti", "thm1")
        passes, records, last = dict.fromkeys(names, 0), [], None
        for S in enumerate_by_genus(6):
            analysis = SemigroupAnalysis(S)
            verdicts = {name: CHECKS[name](analysis) is None for name in names}
            for name in names:
                passes[name] += verdicts[name]
            if not all(verdicts.values()):
                records.append(build_report(analysis, verdicts))
            last = S
        runs = Counter()  # each check runs once per semigroup, failing or not

        def counted(name, check):
            def run(analysis):
                runs[name, analysis.semigroup] += 1
                return check(analysis)
            return run

        for name in names:
            monkeypatch.setitem(CHECKS, name, counted(name, CHECKS[name]))
        summary = run_verification(EnumerationJob("by-genus", 6), names)
        assert set(runs.values()) == {1} and len(runs) == len(names) * summary.total
        assert summary.total == sum(SEMIGROUPS_PER_GENUS[:7])
        assert summary.pass_counts == passes
        assert 0 < passes["thm1"] < summary.total and 0 < passes["conj-msg"] < summary.total
        assert summary.counterexamples == sorted(records, key=lambda r: r.generators)
        assert any(r.verdicts == {"conj-msg": False, "conj-betti": True, "thm1": False}
                   for r in records)
        assert summary.last_token == format_token(last.gaps)


class TestProgress:
    def _calls(self, job):
        calls = []
        summary = run_verification(job, ("conj-msg",), lambda n, token: calls.append((n, token)))
        return calls, summary

    def test_every_500_semigroups(self):
        calls, summary = self._calls(EnumerationJob("by-frobenius", 21))
        assert summary.total == 1828
        walk = [format_token(S.gaps) for S in enumerate_by_frobenius(21)]
        assert calls == [(n, walk[n - 1]) for n in (500, 1000, 1500)]
        assert summary.last_token == walk[-1]

    def test_glued_stream_token_is_its_last_member(self):
        summary = run_verification(EnumerationJob("by-frobenius", 45, ("ci",)), ("conj-msg",))
        assert summary.total == 21
        assert summary.last_token == format_token(ci_with_frobenius(45)[-1].gaps)

    def test_genus_0_ends_at_the_root(self):
        summary = run_verification(EnumerationJob("by-genus", 0), ("conj-msg",))
        assert summary.total == 1 and summary.last_token == "root"
        assert summary.all_pass

    def test_token_is_the_path_reached(self):
        # every 500th node's token in walk order, and the last node's in the summary
        for g_max, total, token_500 in (
            (11, 821, "1.2.3.4.5.7.8.9.11.13.14"),
            (12, 1413, "1.2.3.4.5.6.7.9.10.13"),
        ):
            calls, summary = self._calls(EnumerationJob("by-genus", g_max))
            walk = [format_token(S.gaps) for S in enumerate_by_genus(g_max)]
            assert summary.total == len(walk) == total
            assert calls == [(n, walk[n - 1]) for n in range(500, total + 1, 500)]
            assert calls[0] == (500, token_500)
            assert summary.last_token == walk[-1]
