import json

import pytest
from click.testing import CliRunner

from nsg.cli import main


@pytest.fixture
def run():
    runner = CliRunner()
    return lambda *args: runner.invoke(main, list(args))


class TestVerifyExitCodes:
    def test_all_pass_exits_0(self, run, tmp_path):
        out = tmp_path / "summary.json"
        result = run("verify", "--genus-max", "4", "--checks", "thm1,thm2", "--json", str(out))
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
        ],
    )
    def test_usage_errors_exit_2(self, run, args):
        result = run("verify", *args)
        assert result.exit_code == 2, result.output

    def test_resume_outside_by_genus_is_named(self, run):
        result = run("verify", "--frobenius", "7", "--resume", "2.3", "--checks", "conj-msg")
        assert "by-genus" in result.output


class TestEnumerate:
    def test_filtered_count(self, run):
        result = run("enumerate", "--genus-max", "4", "--filter", "ci", "--count-only")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "8"

    def test_frobenius_0_exits_2(self, run):
        result = run("enumerate", "--frobenius", "0", "--filter", "ci")
        assert result.exit_code == 2, result.output
        assert ">= 1" in result.output

    def test_unknown_filter_exits_2(self, run):
        result = run("enumerate", "--frobenius", "7", "--filter", "nope")
        assert result.exit_code == 2
        assert "known:" in result.output


class TestAnalyze:
    def test_trivial_semigroup_is_symmetric(self, run):
        result = run("analyze", "1")
        assert result.exit_code == 0, result.output
        assert "symmetric: True" in result.output.splitlines()
