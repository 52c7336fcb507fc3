"""What the benchmark reads from nsg: the names its tracer binds, the check list, the walk counters.

``perfbench/trace.py`` imports ``nsg.cli`` and then looks up each traced
function in ``sys.modules`` with ``getattr``, and ``perfbench/run.py``
requires one ``verification.check.<id>.incl_s`` metric per check, so a
renamed function, a module the CLI no longer loads or a changed check list
would otherwise show up only as a failed traced benchmark run. The tracer
counts the tree walk by rebinding ``enumeration.children``, so a walk that
stopped calling it through the module global would read 0 there, silently.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsg import bettiposet, enumeration, semigroup, verification

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter: the test session has imported every module.
RESOLVE = """
import json, sys
import nsg.cli
for module, attr in json.loads(sys.argv[1]):
    name = "nsg." + module
    assert name in sys.modules, name + " is not loaded by nsg.cli"
    assert callable(getattr(sys.modules[name], attr)), name + "." + attr
"""


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", ROOT / "perfbench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(trace):
    names = json.dumps([[module, attr] for module, attr, _ in trace.SPANNED + trace.COUNTED])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", RESOLVE, names], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert isinstance(vars(semigroup.NumericalSemigroup)["from_gaps"], classmethod)
    assert callable(bettiposet.OrderedSubset.__init__)
    assert callable(verification.worker_count)


def test_checks_are_the_measured_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prefix, suffix = "verification.check.", ".incl_s"
    measured = {
        name[len(prefix) : -len(suffix)]
        for name in (metric["name"] for metric in spec["per_layer"])
        if name.startswith(prefix) and name.endswith(suffix)
    }
    assert set(verification.CHECKS) == measured


def test_traced_walk_counters_are_the_walks_own(tmp_path, monkeypatch):
    calls, entries, listed = [], [], enumeration.children

    def counted(entry, limit=None):
        kids = listed(entry, limit)
        calls.append(entry)
        entries.extend(kids)
        return kids

    monkeypatch.setattr(enumeration, "children", counted)
    family = list(enumeration.enumerate_by_frobenius(9))
    report = tmp_path / "report.json"
    command = [sys.executable, str(ROOT / "perfbench" / "trace.py"), "--report", str(report),
               "--spans", str(tmp_path / "spans"), "--", "verify", "--frobenius", "9",
               "--checks", "conj-msg"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    metrics = json.loads(report.read_text())["metrics"]
    assert metrics["enumeration.children.calls"] == len(calls) > 0
    assert metrics["enumeration.built"] == len(entries) > len(family) == 21
