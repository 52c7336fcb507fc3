"""The import edges of ``src/nsg`` follow the package's layered stack.

Each module imports only from layers below its own, at module level or
inside a function, so a module can be read and tested with what sits under
it. Nothing in the package imports the test oracles.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Bottom to top; a module may import from any layer below its own.
LAYERS = (
    ("errors",),
    ("records", "export", "arith", "intpoly"),
    ("semigroup",),
    ("witt", "factorization"),
    ("bettiposet",),
    ("ci", "enumeration"),
    ("verification",),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def _nsg_modules():
    return sorted(path for path in (SRC / "nsg").glob("*.py") if path.stem != "__init__")


def _imports(tree):
    """The module each ``from .x import`` or ``from . import x`` names, anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else [alias.name for alias in node.names]


def test_every_module_has_a_layer():
    assert {path.stem for path in _nsg_modules()} == set(RANK)


def test_imports_go_down_the_stack():
    for path in _nsg_modules():
        for target in _imports(ast.parse(path.read_text())):
            assert target in RANK, (path.stem, target)
            assert RANK[target] < RANK[path.stem], f"{path.stem} imports {target}"


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
