"""The import edges of ``src/nsg`` follow the package's layered stack.

Each module imports only from layers below its own, so a module can be read
and tested with what sits under it. The one exception is listed: three
functions of ``bettiposet`` import the analysis layer when called, to read
an already built analysis. Nothing in the package imports the test oracles.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Bottom to top; a module may import from any layer below its own.
LAYERS = (
    ("errors",),
    ("records", "export", "arith", "intpoly"),
    ("semigroup",),
    ("witt", "factorization"),
    ("bettiposet",),
    ("analysis",),
    ("ci", "enumeration"),
    ("verification",),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
# (importer, imported) -> how many function-local imports go up the stack
UPWARD = Counter({("bettiposet", "analysis"): 3})


def _nsg_modules():
    return sorted(path for path in (SRC / "nsg").glob("*.py") if path.stem != "__init__")


def _edges(tree):
    """(imported module, whether at module level) per ``from .x import`` or ``from . import x``."""
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                yield target, id(node) in top


def test_every_module_has_a_layer():
    assert {path.stem for path in _nsg_modules()} == set(RANK)


def test_imports_go_down_the_stack():
    upward = Counter()
    for path in _nsg_modules():
        for target, at_module_level in _edges(ast.parse(path.read_text())):
            assert target in RANK, (path.stem, target)
            if RANK[target] < RANK[path.stem]:
                continue
            assert not at_module_level, f"{path.stem} imports {target} at module level"
            upward[path.stem, target] += 1
    assert upward == UPWARD


def test_package_does_not_import_the_tests():
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("oracles", "tests", "expected", "conftest"), (
                    path, name,
                )
