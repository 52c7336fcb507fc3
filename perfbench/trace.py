"""Run one `nsg` command in this process with its layers traced from outside.

Usage (from the repository root)::

    python3 perfbench/trace.py --report OUT.json --spans OUT_PREFIX -- verify --genus-max 4 --checks thm1

The public functions of every layer are replaced by timing wrappers wherever
they are bound: as module attributes, as the copies that ``from ... import``
left in other modules, in the ``CHECKS``/``FILTERS`` tables, and as the
constructors of ``NumericalSemigroup`` and ``OrderedSubset``. Nothing under
``src/`` is edited. Spans are kept in memory as (name, start, end, parent,
semigroup id) columns and written out at exit, together with a report of
per-function counts, inclusive and self times and the derived per-layer
metrics.

Generator functions (``walk_genus_tree``, ``enumerate_by_frobenius``) are not
wrapped: a wrapper would only time the creation of the generator. Their work
shows up in the functions they call (``children``, ``from_gaps``) and in the
self time of ``run_verification``, which drives them.

Pool workers are forked from this process and inherit the wrappers, but their
spans stay in the workers; on a parallel run the report covers the parent
process only, plus the pool metrics measured around ``run_verification``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import resource
import sys
import time
from array import array
from functools import update_wrapper
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, function, span name). Each function is rebound by identity in every
# nsg module, so `from ... import` copies are covered too. The constructors
# and `from_gaps` are wrapped on their classes in Tracer.install.
SPANNED = (
    ("enumeration", "children", "enumeration.children"),
    ("enumeration", "ci_with_frobenius", "enumeration.ci_with_frobenius"),
    ("witt", "exponent_sequence", "witt.exponent_sequence"),
    ("witt", "factor_into_cyclotomics", "witt.factor_into_cyclotomics"),
    ("witt", "is_cyclotomic", "witt.is_cyclotomic"),
    ("intpoly", "divides", "intpoly.divides"),
    ("intpoly", "divexact", "intpoly.divexact"),
    ("factorization", "betti_elements", "factorization.betti_elements"),
    ("factorization", "presentation_size", "factorization.presentation_size"),
    ("factorization", "factorizations", "factorization.factorizations"),
    ("factorization", "factorization_graph", "factorization.factorization_graph"),
    ("bettiposet", "verify_theorems", "bettiposet.verify_theorems"),
    ("bettiposet", "classify", "bettiposet.classify"),
    ("bettiposet", "exponent_support", "bettiposet.exponent_support"),
    ("ci", "is_complete_intersection", "ci.is_complete_intersection"),
    ("verification", "run_verification", "verification.run_verification"),
    ("export", "write_json", "export.write_json"),
)
# Hot leaves: a span each would cost more than the call, so only count them.
COUNTED = (
    ("arith", "mobius", "arith.mobius"),
    ("arith", "divisors", "arith.divisors"),
)
# Reported as they stand in the function table: <name>.<calls|incl_s|self_s>.
DIRECT = (
    "semigroup.from_gaps.calls", "semigroup.from_gaps.self_s",
    "enumeration.children.calls",
    "enumeration.ci_with_frobenius.calls", "enumeration.ci_with_frobenius.incl_s",
    "witt.exponent_sequence.calls", "witt.exponent_sequence.incl_s",
    "witt.factor_into_cyclotomics.calls", "witt.factor_into_cyclotomics.incl_s",
    "witt.is_cyclotomic.calls", "witt.is_cyclotomic.incl_s",
    "intpoly.divides.calls", "intpoly.divexact.calls", "intpoly.divexact.self_s",
    "arith.mobius.calls", "arith.divisors.calls",
    "factorization.betti_elements.calls", "factorization.betti_elements.incl_s",
    "factorization.presentation_size.calls", "factorization.presentation_size.incl_s",
    "factorization.factorizations.calls", "factorization.factorizations.self_s",
    "factorization.factorization_graph.calls",
    "bettiposet.verify_theorems.calls", "bettiposet.verify_theorems.self_s",
    "bettiposet.classify.calls", "bettiposet.exponent_support.calls",
    "ci.is_complete_intersection.calls", "ci.is_complete_intersection.incl_s",
    "export.write_json.incl_s",
)
# The pool splits the genus tree at this depth (verification._SPLIT_DEPTH).
POOL_SPLIT_DEPTH = 4


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.code_of: dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("l")
        self.sg_col = array("l")
        self.stack: list[int] = []
        self.active: list[int] = []  # open spans per name, for recursion
        self.outer_col = array("b")  # 1 when no enclosing span has the same name
        self.counts: dict[str, int] = {}
        self.sg = 0
        self.last_checked = None
        self.run_job = None
        self.run_workers = 1
        self.run_wall = 0.0
        self.run_child_cpu = 0.0

    def code(self, name: str) -> int:
        if name not in self.code_of:
            self.code_of[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.code_of[name]

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, on_result=None):
        code = self.code(name)
        clock = time.perf_counter
        stack, active = self.stack, self.active
        name_col, start_col, end_col = self.name_col, self.start_col, self.end_col
        parent_col, sg_col, outer_col = self.parent_col, self.sg_col, self.outer_col
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(start_col)
            name_col.append(code)
            parent_col.append(stack[-1] if stack else -1)
            sg_col.append(tracer.sg)
            outer_col.append(active[code] == 0)
            end_col.append(0.0)
            active[code] += 1
            stack.append(index)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()
                active[code] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return update_wrapper(wrapper, fn)

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    def check(self, check_id: str, fn):
        """A CHECKS entry; a new semigroup argument starts a new semigroup id."""
        inner = self.span(f"verification.check.{check_id}", fn)
        tracer = self

        def wrapper(S):
            if S is not tracer.last_checked:
                tracer.last_checked = S
                tracer.sg += 1
            return inner(S)

        return update_wrapper(wrapper, fn)

    def install(self) -> None:
        import nsg.cli  # noqa: F401  (loads every layer)
        from nsg import semigroup, verification, bettiposet

        ci_code = self.code("enumeration.ci_with_frobenius")

        def built_by_gluing(_):
            if self.active[ci_code]:
                self.bump("enumeration.built")

        hooks = {
            "enumeration.children": lambda kids: self.bump("enumeration.built", len(kids)),
            "semigroup.init": built_by_gluing,
            "factorization.factorizations": lambda vectors: self.bump(
                "factorization.vectors", len(vectors)
            ),
            "factorization.factorization_graph": lambda graph: self.bump(
                "factorization.betti_graphs", graph.n_classes >= 2
            ),
            "intpoly.divides": lambda ok: self.bump("intpoly.divides.succeeded", bool(ok)),
        }
        for key in ("enumeration.built", "factorization.vectors",
                    "factorization.betti_graphs", "intpoly.divides.succeeded"):
            self.counts[key] = 0

        replacements = {}
        for module_name, attr, name in SPANNED + COUNTED:
            original = getattr(sys.modules[f"nsg.{module_name}"], attr)
            if (module_name, attr, name) in COUNTED:
                replacements[id(original)] = self.counter(name, original)
            elif name == "verification.run_verification":
                replacements[id(original)] = self.run_verification(name, original)
            else:
                replacements[id(original)] = self.span(name, original, hooks.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "nsg" and not module_name.startswith("nsg."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

        cls = semigroup.NumericalSemigroup
        cls.__init__ = self.span("semigroup.init", cls.__init__, hooks["semigroup.init"])
        from_gaps = cls.__dict__["from_gaps"].__func__
        cls.from_gaps = classmethod(self.span("semigroup.from_gaps", from_gaps))
        subset = bettiposet.OrderedSubset
        subset.__init__ = self.span("bettiposet.ordered_subset", subset.__init__)

        for check_id, fn in list(verification.CHECKS.items()):
            verification.CHECKS[check_id] = self.check(check_id, fn)
        for filter_id, fn in list(verification.FILTERS.items()):
            verification.FILTERS[filter_id] = replacements.get(id(fn), fn)

    def run_verification(self, name: str, fn):
        """Span for run_verification that also measures the worker pool."""
        inner = self.span(name, fn)
        tracer = self

        def wrapper(job, checks, *args, **kwargs):
            from nsg.verification import worker_count

            tracer.run_job = job
            tracer.run_workers = worker_count()
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            try:
                return inner(job, checks, *args, **kwargs)
            finally:
                tracer.run_wall += time.perf_counter() - start
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                tracer.run_child_cpu += (
                    after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
                )

        return update_wrapper(wrapper, fn)

    # -- aggregation -----------------------------------------------------------

    def functions(self) -> dict[str, dict[str, float]]:
        """calls, inclusive and self seconds per span name; counts per counter."""
        n = len(self.start_col)
        durations = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parent_col[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        table = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.name_col[i]]]
            row["calls"] += 1
            if self.outer_col[i]:
                row["incl_s"] += durations[i]
            row["self_s"] += durations[i] - child_time[i]
        for name, value in self.counts.items():
            table[name] = {"calls": value}
        return table

    def per_semigroup_ms(self) -> list[float]:
        """Time in the checks per semigroup id, in milliseconds."""
        check_codes = {
            code for name, code in self.code_of.items() if name.startswith("verification.check.")
        }
        per_sg: dict[int, float] = {}
        for i in range(len(self.start_col)):
            if self.name_col[i] in check_codes:
                sg = self.sg_col[i]
                per_sg[sg] = per_sg.get(sg, 0.0) + self.end_col[i] - self.start_col[i]
        return [1000.0 * seconds for _, seconds in sorted(per_sg.items())]

    def largest_task_share(self, children) -> float:
        """Share of pool-task nodes in the largest task; 0 when no pool ran.

        Mirrors the split of the parallel path: subtrees hanging at depth
        min(4, genus bound - 1) are the tasks. Node counts come from the
        public ``children`` (the untraced original).
        """
        job = self.run_job
        if job is None or job.mode != "by-genus" or self.run_workers <= 1 or job.limit < 4:
            return 0.0
        from nsg.semigroup import NumericalSemigroup

        split = min(POOL_SPLIT_DEPTH, job.limit - 1)

        def size(S, depth):
            if depth == job.limit:
                return 1
            return 1 + sum(size(child, depth + 1) for _, child in children(S))

        def tasks(S, depth):
            for _, child in children(S):
                if depth + 1 == split:
                    yield size(child, depth + 1)
                else:
                    yield from tasks(child, depth + 1)

        sizes = list(tasks(NumericalSemigroup(1), 0))
        return max(sizes) / sum(sizes)

    def metrics(self, table, original_children) -> dict[str, float]:
        def get(name, field="calls"):
            return table.get(name, {}).get(field, 0)

        from nsg.verification import CHECKS

        direct = DIRECT + tuple(f"verification.check.{check_id}.incl_s" for check_id in CHECKS)
        out = {metric: get(*metric.rsplit(".", 1)) for metric in direct}
        checked = self.sg  # semigroups checked in this process
        built = get("enumeration.built")
        divides = get("intpoly.divides")
        graphs = get("factorization.factorization_graph")
        verify_calls = get("bettiposet.verify_theorems")
        per_sg = self.per_semigroup_ms()
        out.update({
            "semigroup.constructions": get("semigroup.init"),
            "enumeration.built": built,
            "enumeration.yield_ratio": checked / built if built else 0.0,
            "witt.division_yield": get("intpoly.divides.succeeded") / divides if divides else 0.0,
            "factorization.vectors": get("factorization.vectors"),
            "factorization.betti_yield": get("factorization.betti_graphs") / graphs if graphs else 0.0,
            "bettiposet.verify_theorems.calls_per_sg": verify_calls / checked if checked else 0.0,
            "bettiposet.ordered_subset.constructions": get("bettiposet.ordered_subset"),
            "bettiposet.ordered_subset.self_s": get("bettiposet.ordered_subset", "self_s"),
            "verification.self_s": get("verification.run_verification", "self_s"),
            "verification.per_sg_p50_ms": percentile(per_sg, 0.50),
            "verification.per_sg_p99_ms": percentile(per_sg, 0.99),
            "verification.per_sg_samples": len(per_sg),
            "verification.pool.largest_task_share": self.largest_task_share(original_children),
            "verification.pool.busy_frac": (
                self.run_child_cpu / (self.run_workers * self.run_wall)
                if self.run_workers > 1 and self.run_wall else 0.0
            ),
            "trace.spans": len(self.start_col),
        })
        return out

    def write_spans(self, prefix: Path) -> None:
        """Columns as raw native arrays in ``.bin``; layout in ``.json``."""
        columns = (
            ("name", self.name_col), ("start", self.start_col), ("end", self.end_col),
            ("parent", self.parent_col), ("sg", self.sg_col),
        )
        with open(f"{prefix}.bin", "wb") as out:
            for _, column in columns:
                column.tofile(out)
        layout = {
            "count": len(self.start_col),
            "names": self.names,
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "clock": "time.perf_counter seconds",
        }
        Path(f"{prefix}.json").write_text(json.dumps(layout) + "\n")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(ROOT / "src"))
    import nsg.cli
    from nsg import enumeration

    original_children = enumeration.children
    tracer = Tracer()
    tracer.install()
    pid = os.getpid()

    def finish():
        if os.getpid() != pid:  # a forked worker leaving
            return
        end = time.monotonic()
        table = tracer.functions()
        report = {
            "end_monotonic": end,
            "metrics": tracer.metrics(table, original_children),
            "functions": table,
        }
        args.report.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        tracer.write_spans(args.spans)

    atexit.register(finish)
    nsg.cli.main(args=command, prog_name="nsg")


if __name__ == "__main__":
    main(sys.argv[1:])
