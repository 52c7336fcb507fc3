import os
import sys
from collections import Counter, defaultdict
from typing import NamedTuple

import pytest

from nsg import NumericalSemigroup
from nsg import factorization as factorization_module
from nsg import witt as witt_module
from nsg.cli import main

from oracles import sweep_polynomial


def pytest_collection_modifyitems(config, items):
    """Skip tests marked ``stretch`` unless NSG_STRETCH=1."""
    if os.environ.get("NSG_STRETCH") == "1":
        return
    skip = pytest.mark.skip(reason="long sweep; run with NSG_STRETCH=1")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def s469():
    return NumericalSemigroup(4, 6, 9)


@pytest.fixture(scope="session")
def s357():
    return NumericalSemigroup(3, 5, 7)


@pytest.fixture(scope="session")
def s456():
    return NumericalSemigroup(4, 5, 6)


@pytest.fixture(scope="session")
def five_gen():
    return NumericalSemigroup(10, 15, 16, 17, 19)


@pytest.fixture(scope="session")
def glued():
    return NumericalSemigroup(8, 12, 18, 25)


@pytest.fixture(scope="session")
def naturals():
    return NumericalSemigroup(1)


def _count_builds(monkeypatch, name, key):
    """Count calls of a factorization function under every name nsg binds it to."""
    builds = Counter()
    original = getattr(factorization_module, name)

    def counted(S, *args):
        builds[key(S, *args)] += 1
        return original(S, *args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "nsg" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return builds


@pytest.fixture
def catalog_builds(monkeypatch):
    """Generators -> number of ``betti_elements`` calls."""
    return _count_builds(monkeypatch, "betti_elements", lambda S: S.generators)


@pytest.fixture
def graph_builds(monkeypatch):
    """(generators, element) -> number of ``factorization_graph`` calls."""
    return _count_builds(monkeypatch, "factorization_graph", lambda S, s: (S.generators, s))


class SweepLog(defaultdict):
    """Polynomial -> the (first, last) index range of each exponent-sweep extension, in order."""

    def __init__(self):
        super().__init__(list)

    def reach(self, poly) -> int:
        """How far ``poly`` was swept; its ranges must chain on from 1, each entry once."""
        ranges, reach = self[tuple(poly)], 0
        for first, last in ranges:
            assert first == reach + 1, ranges
            reach = last
        return reach


@pytest.fixture
def swept(monkeypatch):
    """A :class:`SweepLog` of every ``ExponentSweep.extend`` call that computes entries.

    Keyed on the polynomial the sweep expands, whatever numerator and period it runs on.
    """
    log = SweepLog()
    extend = witt_module.ExponentSweep.extend

    def counted(sweep, *args):
        first = len(sweep.entries)
        extend(sweep, *args)
        if len(sweep.entries) > first:
            log[tuple(sweep_polynomial(sweep))].append((first, len(sweep.entries) - 1))

    monkeypatch.setattr(witt_module.ExponentSweep, "extend", counted)
    return log


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Both streams, stdout first."""
        return self.stdout + self.stderr


@pytest.fixture
def cli(capsys):
    """Run ``nsg ARGS...`` in this process: ``main`` under capsys, its SystemExit caught."""

    def invoke(*args: str) -> CliResult:
        capsys.readouterr()  # drop what earlier steps printed
        with pytest.raises(SystemExit) as stop:
            main(list(args))
        out, err = capsys.readouterr()
        return CliResult(stop.value.code, out, err)

    return invoke
