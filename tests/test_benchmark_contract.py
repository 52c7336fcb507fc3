"""What the benchmark reads from nsg: the names its tracer binds and the check list.

``perfbench/trace.py`` imports ``nsg.cli`` and then looks up each traced
function in ``sys.modules`` with ``getattr``, and ``perfbench/run.py``
requires one ``verification.check.<id>.incl_s`` metric per check, so a
renamed function, a module the CLI no longer loads or a changed check list
would otherwise show up only as a failed traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsg import bettiposet, semigroup, verification

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
