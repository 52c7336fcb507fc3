import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsg import NumericalSemigroup, exponent_sequence
from nsg import cli as cli_module
from nsg.cli import main
from nsg.verification import CHECKS

from oracles import semigroup_polynomial

SRC = Path(__file__).resolve().parent.parent / "src"
NSG = [sys.executable, "-m", "nsg.cli"]
ENV = dict(os.environ, PYTHONPATH=str(SRC))


class TestVerifyExitCodes:
    def test_all_pass_exits_0(self, cli, tmp_path):
        out = tmp_path / "summary.json"
        result = cli("verify", "--genus-max", "4", "--checks", "thm1,thm2", "--json", str(out))
        assert result.exit_code == 0, result.output
        assert "thm1: 15/15 pass" in result.output
        summary = json.loads(out.read_text())
        assert summary["total"] == 15 and summary["all_pass"]

    @pytest.mark.parametrize(
        "args",
        [
            ("--frobenius", "7", "--resume", "2.3", "--checks", "conj-msg"),
            ("--genus-max", "4", "--checks", "thm9"),
            ("--genus-max", "4", "--frobenius", "7", "--checks", "thm1"),
            ("--checks", "thm1"),
            ("--genus-max", "4", "--resume", "2.x", "--checks", "thm1"),
            ("--genus-max", "4", "--filter", "nope", "--checks", "thm1"),
            ("--genus-max", "-1", "--checks", "thm1"),
            ("--frobenius", "0", "--checks", "thm1"),
            ("--genus-max", "3", "--checks", ","),
            ("--genus-max", "3", "--resume", "5", "--checks", "thm1"),
            ("--genus-max", "3", "--resume", "0", "--checks", "thm1"),
            ("--genus-max", "3", "--resume", "1.1", "--checks", "thm1"),
            ("--genus-max", "3", "--checks", "thm1,thm1"),
            ("--genus-max", "4", "--filter", "ci,ci", "--checks", "thm1"),
            ("--genus-max", "3", "--checks", "thm1", "--json", "/dev/null/x.json"),
        ],
    )
    def test_usage_errors_exit_2(self, cli, args):
        result = cli("verify", *args)
        assert result.exit_code == 2, result.output

    def test_unwritable_json_fails_before_the_walk(self, cli, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("walked before checking the export path")

        monkeypatch.setattr(cli_module, "run_verification", walk)
        result = cli("verify", "--genus-max", "30", "--checks", "thm1", "--json", "/dev/null/x.json")
        assert result.exit_code == 2 and result.stdout == ""
        last = result.stderr.splitlines()[-1]
        assert last == "nsg verify: error: cannot write /dev/null/x.json: Not a directory"

    def test_conj_msg_holds_on_the_trivial_semigroup(self, cli):
        result = cli("verify", "--genus-max", "3", "--checks", "conj-msg")
        assert result.exit_code == 0, result.output
        assert "conj-msg: 8/8 pass" in result.output

    def test_resume_below_the_limit_is_a_node(self, cli):
        # a real tree node deeper than --genus-max: the walk after it
        result = cli("verify", "--genus-max", "3", "--resume", "1.2.3.4.5.6", "--checks", "thm1")
        assert result.exit_code == 0, result.output
        assert "thm1: 4/4 pass" in result.output

    def test_resume_outside_by_genus_is_named(self, cli):
        result = cli("verify", "--frobenius", "7", "--resume", "2.3", "--checks", "conj-msg")
        assert "by-genus" in result.output


class TestVerifyTokens:
    @pytest.mark.parametrize(
        "family, token",
        [
            (("--genus-max", "0"), "root"),
            (("--genus-max", "4"), "1.3.5.7"),
            (("--frobenius", "7"), None),
            (("--frobenius", "45", "--filter", "ci"), None),
        ],
    )
    def test_summary_token(self, cli, tmp_path, family, token):
        out = tmp_path / "summary.json"
        result = cli("verify", *family, "--checks", "conj-msg", "--json", str(out))
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["last_token"] == token

    def test_progress_line_by_genus_names_the_token(self, cli):
        result = cli("verify", "--genus-max", "11", "--checks", "conj-msg")
        assert result.stderr == "checked 500 (token 1.2.3.4.5.7.8.9.11.13.14)\n"

    def test_progress_line_by_frobenius_has_no_token(self, cli):
        result = cli("verify", "--frobenius", "21", "--checks", "conj-msg")
        assert result.stderr == "checked 500\nchecked 1000\nchecked 1500\n"


class TestEnumerate:
    def test_filtered_count(self, cli):
        result = cli("enumerate", "--genus-max", "4", "--filter", "ci", "--count-only")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "8"

    @pytest.mark.parametrize(
        "frobenius, count", [(16, 205), pytest.param(24, 3578, marks=pytest.mark.stretch)]
    )
    def test_frobenius_count(self, cli, frobenius, count):
        # OEIS A124506; an even target is where the walk leaves the most dead subtrees
        result = cli("enumerate", "--frobenius", str(frobenius), "--count-only")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == str(count)

    def test_frobenius_0_exits_2(self, cli):
        result = cli("enumerate", "--frobenius", "0", "--filter", "ci")
        assert result.exit_code == 2, result.output
        assert ">= 1" in result.output

    def test_unknown_filter_exits_2(self, cli):
        result = cli("enumerate", "--frobenius", "7", "--filter", "nope")
        assert result.exit_code == 2
        assert "known:" in result.output


class TestAnalyze:
    def test_trivial_semigroup_is_symmetric(self, cli):
        result = cli("analyze", "1")
        assert result.exit_code == 0, result.output
        assert "symmetric: True" in result.output.splitlines()

    @pytest.mark.parametrize("bound, sweeps", [(20, [(1, 20)]), (30, [(1, 30)]), (40, [(1, 40)])])
    def test_bound_within_the_default_reads_the_one_sweep(self, cli, swept, bound, sweeps):
        # <4,6,9> has default bound 30, and its factors settle at 18: any
        # --bound extends the analysis' one sweep, which no other read passes
        plain = cli("analyze", "4,6,9").stdout.splitlines()
        S = NumericalSemigroup(4, 6, 9)
        swept.clear()
        result = cli("analyze", "4,6,9", "--bound", str(bound))
        assert result.exit_code == 0 and swept[tuple(semigroup_polynomial(S))] == sweeps
        sequence = exponent_sequence(S, bound)
        line = f"exponents ({bound} entries): {sequence.format()}"
        assert result.stdout.splitlines() == plain[:-1] + [line]

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_1_exits_2(self, cli, bound):
        result = cli("analyze", "4,6,9", "--bound", bound)
        assert result.exit_code == 2, result.output
        assert ">= 1" in result.output


class TestUnwritableExport:
    @pytest.mark.parametrize(
        "args, work",
        [
            pytest.param(("analyze", "4,6,9", "--json"), "SemigroupAnalysis", id="analyze-json"),
            pytest.param(("analyze", "4,6,9", "--dot"), "SemigroupAnalysis", id="analyze-dot"),
            pytest.param(("betti", "8,12,18,25", "--json"), "SemigroupAnalysis", id="betti-json"),
            pytest.param(("betti", "8,12,18,25", "--dot"), "SemigroupAnalysis", id="betti-dot"),
            pytest.param(
                ("exponents", "4,6,9", "--count", "5", "--json"), "exponent_sequence", id="exponents-json"
            ),
            pytest.param(
                ("exponents", "4,6,9", "--count", "5", "--csv"), "exponent_sequence", id="exponents-csv"
            ),
            pytest.param(("enumerate", "--frobenius", "17", "--json"), "enumerate_job", id="enumerate-json"),
        ],
    )
    def test_fails_before_the_work(self, cli, monkeypatch, args, work):
        # verify's case is TestVerifyExitCodes::test_unwritable_json_fails_before_the_walk
        def refuse(*args, **kwargs):
            raise AssertionError("worked before checking the export path")

        monkeypatch.setattr(cli_module, work, refuse)
        path = "/dev/null/x." + args[-1][2:]
        result = cli(*args, path)
        assert result.exit_code == 2 and result.stdout == ""
        last = result.stderr.splitlines()[-1]
        assert last == f"nsg {args[0]}: error: cannot write {path}: Not a directory"

    def test_the_check_writes_nothing(self, cli, tmp_path):
        # a later usage error leaves no new empty file, and an existing file as it was
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("old")
        for path in (fresh, kept):
            assert cli("exponents", "4,6,9", "--count", "0", "--json", str(path)).exit_code == 2
        assert not fresh.exists() and kept.read_text() == "old"


class TestFreshInterpreter:
    """What only a new process shows: the import path, exit codes and closed pipes."""

    def test_import_loads_no_cli_framework_or_dataclasses(self):
        # -S: no site hooks, so only nsg's own imports count
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import nsg.cli; "
            "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        assert result.stdout == "[]\n"

    def test_exit_codes(self):
        def nsg(*args):
            return subprocess.run([*NSG, *args], env=ENV, capture_output=True, timeout=120)

        assert nsg("verify", "--genus-max", "3", "--checks", "thm1").returncode == 0
        usage = nsg("verify", "--genus-max", "3", "--checks", "thm9")
        assert usage.returncode == 2
        assert b"unknown check 'thm9'" in usage.stderr

    def test_closed_pipe_exits_1_quietly(self):
        # the output (about 250 kB) outgrows the pipe, so writes hit the closed end
        proc = subprocess.Popen(
            [*NSG, "enumerate", "--genus-max", "16"],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        try:
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert stderr == b""


def test_interrupt_exits_1(cli, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("nsg.cli.run_verification", interrupted)
    result = cli("verify", "--genus-max", "3", "--checks", "thm1")
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


def test_counterexample_exits_1_as_the_tracer_calls_main(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(CHECKS, "thm1", lambda analysis: analysis.semigroup.genus != 2)
    out = tmp_path / "summary.json"
    with pytest.raises(SystemExit) as stop:
        main(args=["verify", "--genus-max", "3", "--checks", "thm1", "--json", str(out)], prog_name="nsg")
    assert stop.value.code == 1
    assert capsys.readouterr().out == "thm1: 6/8 pass\ncounterexamples: 2\n  2,5\n  3,4,5\n"
    summary = json.loads(out.read_text())
    assert not summary["all_pass"]
    assert [r["generators"] for r in summary["counterexamples"]] == [[2, 5], [3, 4, 5]]
    assert all(r["verdicts"] == {"thm1": False} for r in summary["counterexamples"])
