"""Golden bytes of the CLI exports: stdout and every file a command writes."""

import json

import pytest
from click.testing import CliRunner

from nsg.cli import main

from expected import ENUMERATE_GENUS_4, ENUMERATE_GENUS_4_JSON, EXPORTS, REPORTS


def _json_bytes(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.fixture
def run():
    def invoke(*args):
        result = CliRunner().invoke(main, list(args))
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
