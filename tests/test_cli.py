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
            ("--genus-max", "3", "--checks", ","),
            ("--genus-max", "3", "--resume", "5", "--checks", "thm1"),
            ("--genus-max", "3", "--resume", "0", "--checks", "thm1"),
            ("--genus-max", "3", "--resume", "1.1", "--checks", "thm1"),
            ("--genus-max", "3", "--checks", "thm1,thm1"),
            ("--genus-max", "4", "--filter", "ci,ci", "--checks", "thm1"),
        ],
    )
    def test_usage_errors_exit_2(self, run, args):
        result = run("verify", *args)
        assert result.exit_code == 2, result.output

    def test_conj_msg_holds_on_the_trivial_semigroup(self, run):
        result = run("verify", "--genus-max", "3", "--checks", "conj-msg")
        assert result.exit_code == 0, result.output
        assert "conj-msg: 8/8 pass" in result.output

    def test_resume_below_the_limit_is_a_node(self, run):
        # a real tree node deeper than --genus-max: the walk after it
        result = run("verify", "--genus-max", "3", "--resume", "1.2.3.4.5.6", "--checks", "thm1")
        assert result.exit_code == 0, result.output
        assert "thm1: 4/4 pass" in result.output

    def test_resume_outside_by_genus_is_named(self, run):
        result = run("verify", "--frobenius", "7", "--resume", "2.3", "--checks", "conj-msg")
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
    def test_summary_token(self, run, tmp_path, family, token):
        out = tmp_path / "summary.json"
        result = run("verify", *family, "--checks", "conj-msg", "--json", str(out))
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["last_token"] == token

    def test_progress_line_by_genus_names_the_token(self, run):
        result = run("verify", "--genus-max", "11", "--checks", "conj-msg")
        assert result.stderr == "checked 500 (token 1.2.3.4.5.7.8.9.11.13.14)\n"

    def test_progress_line_by_frobenius_has_no_token(self, run):
        result = run("verify", "--frobenius", "21", "--checks", "conj-msg")
        assert result.stderr == "checked 500\nchecked 1000\nchecked 1500\n"


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

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_1_exits_2(self, run, bound):
        result = run("analyze", "4,6,9", "--bound", bound)
        assert result.exit_code == 2, result.output
        assert ">= 1" in result.output
