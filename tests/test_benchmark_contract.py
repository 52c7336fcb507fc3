"""What the benchmark reads from nsg: the names its tracer binds and the check list.

``perfbench/trace.py`` looks up each traced function with ``getattr`` and
``perfbench/run.py`` requires one ``verification.check.<id>.incl_s`` metric per
check, so a renamed function or a changed check list would otherwise show up
only as a failed traced benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from nsg import bettiposet, semigroup, verification

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", ROOT / "perfbench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(trace):
    for module_name, attr, _ in trace.SPANNED + trace.COUNTED:
        assert callable(getattr(importlib.import_module(f"nsg.{module_name}"), attr)), attr
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
