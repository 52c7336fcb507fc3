"""The package's source parses under the oldest Python that ``pyproject.toml`` admits.

``requires-python`` states the floor, and the suite runs on a newer
interpreter, so syntax from a later release (``except*``, PEP 695 type
parameters) would pass every other test. This checks grammar only: a call
into a standard-library API added after the floor is not caught here.
"""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_floor_is_the_declared_one():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == ">=%d.%d" % FLOOR


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "nsg").glob("*.py")), ids=lambda path: path.name
)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_later_grammar_is_refused_at_the_floor():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=FLOOR)
