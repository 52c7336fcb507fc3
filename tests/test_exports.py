"""Golden bytes of the CLI exports: stdout and every file a command writes."""

import hashlib
import json

import pytest

from nsg.export import dumps_json

from expected import (
    ENUMERATE_FROBENIUS_9,
    ENUMERATE_GENUS_4,
    ENUMERATE_GENUS_4_JSON,
    EXPORTS,
    REPORTS,
    VERIFY_JSON,
    VERIFY_LAST_TOKEN,
)


def _json_bytes(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.fixture
def run(cli):
    def invoke(*args):
        result = cli(*args)
        assert result.exit_code == 0, result.output
        return result.stdout

    return invoke


@pytest.mark.parametrize("generators", list(EXPORTS))
class TestSemigroupExports:
    def test_analyze(self, run, tmp_path, generators):
        json_path, dot_path = tmp_path / "a.json", tmp_path / "a.dot"
        stdout = run("analyze", generators, "--json", str(json_path), "--dot", str(dot_path))
        golden = EXPORTS[generators]
        assert stdout == golden["analyze"]
        report = REPORTS[tuple(map(int, generators.split(",")))]
        assert json_path.read_text() == _json_bytes(report)
        assert dot_path.read_text() == golden["hasse.dot"]

    def test_betti(self, run, tmp_path, generators):
        json_path, dot_path = tmp_path / "b.json", tmp_path / "b.dot"
        stdout = run("betti", generators, "--json", str(json_path), "--dot", str(dot_path))
        golden = EXPORTS[generators]
        assert stdout == golden["betti"]
        assert json_path.read_text() == _json_bytes(golden["betti.json"])
        assert dot_path.read_text() == golden["hasse.dot"]

    def test_exponents(self, run, tmp_path, generators):
        csv_path, json_path = tmp_path / "e.csv", tmp_path / "e.json"
        stdout = run(
            "exponents", generators, "--count", "20", "--csv", str(csv_path), "--json", str(json_path)
        )
        golden = EXPORTS[generators]
        assert stdout == golden["exponents"]
        assert csv_path.read_text() == golden["exponents.csv"]
        assert json_path.read_text() == _json_bytes(golden["exponents.json"])


def test_enumerate_genus_4(run, tmp_path):
    json_path = tmp_path / "n.json"
    assert run("enumerate", "--genus-max", "4", "--json", str(json_path)) == ENUMERATE_GENUS_4
    assert json_path.read_text() == _json_bytes(ENUMERATE_GENUS_4_JSON)


def test_enumerate_frobenius_9(run):
    assert run("enumerate", "--frobenius", "9") == ENUMERATE_FROBENIUS_9


@pytest.mark.parametrize("args", list(VERIFY_JSON))
def test_verify_json_of_the_benchmark_families(run, tmp_path, args):
    json_path = tmp_path / "v.json"
    run("verify", *args, "--json", str(json_path))
    text = json_path.read_text()
    summary = json.loads(text)
    assert dumps_json(summary) == text
    assert summary["last_token"] == VERIFY_LAST_TOKEN[args]
    if "--frobenius" in args:  # pinned when by-Frobenius runs wrote no token
        summary["last_token"] = None
    assert hashlib.sha256(dumps_json(summary).encode()).hexdigest() == VERIFY_JSON[args]
