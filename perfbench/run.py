"""Benchmark of `nsg verify`: semigroups given exact verdicts per second.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each measured command is ``python -m nsg.cli verify ...`` in a fresh
interpreter, so the module-level caches start cold as they do for a user.
Every run gates on correct verdicts: the family size must equal an
independent count and every check must pass on every semigroup, except the
known false ``conj-msg`` counterexample at the trivial semigroup <1>, which
is counted as one failed operation. The seed fixes the order of the checks.
Times are scaled to a reference machine by a calibration loop that brackets
each command, and each metric is the median over the run's commands.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics,
measured by ``perfbench/trace.py`` in traced interpreters and compared with
untraced runs of the same command. ``--smoke`` runs every workload on tiny
families in both modes and checks the output schema. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
TRACER = ROOT / "perfbench" / "trace.py"

ALL_CHECKS = ("ci-cyclotomic", "thm1", "thm2", "thm5.2", "conj-msg", "conj-betti")
# OEIS A007323: numerical semigroups of genus g = 0, 1, 2, ...
GENUS_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118)
# OEIS A124506: numerical semigroups with Frobenius number F.
FROBENIUS_COUNTS = {7: 11, 23: 4096}
# Complete intersections with Frobenius number F, as the gluing enumerator
# finds them; `--smoke` re-derives them with presentation_size.
CI_COUNTS = {11: 4, 15: 3, 81: 80}
# The one verdict known to be wrong: <1> has no negative exponents, so its
# "negative support" is not its generator set {1}.
KNOWN_FALSE = ((1,), "conj-msg")

MIN_RUNS = 3
CALIBRATION_LOOP = 3_000_000
# The loop's time on the reference machine (a quiet moment of a shared 2-core
# x86-64 host, CPython 3.11.7). Reported times are scaled to that machine.
CALIBRATION_REF_S = 0.12
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    family: tuple[str, ...]  # arguments of `nsg verify` that select the family
    checks: tuple[str, ...]
    threads: int  # NSG_THREADS, always set explicitly
    expected_total: int


def genus_family(g: int) -> tuple[tuple[str, ...], int]:
    return ("--genus-max", str(g)), sum(GENUS_COUNTS[: g + 1])


def workloads(smoke: bool) -> dict[str, Workload]:
    genus, genus_total = genus_family(4 if smoke else 9)
    frobenius = 7 if smoke else 23
    ci_frobenius = 11 if smoke else 81
    return {
        "genus-allchecks": Workload(genus, ALL_CHECKS, 1, genus_total),
        "frobenius-sweep": Workload(
            ("--frobenius", str(frobenius)), ("conj-msg", "conj-betti"), 1,
            FROBENIUS_COUNTS[frobenius],
        ),
        "ci-frobenius": Workload(
            ("--frobenius", str(ci_frobenius), "--filter", "ci"),
            ("ci-cyclotomic", "conj-msg", "conj-betti"), 1, CI_COUNTS[ci_frobenius],
        ),
        "genus-threads2": Workload(genus, ALL_CHECKS, 2, genus_total),
    }


class BenchError(Exception):
    """The benchmark could not measure: missing program, crash or timeout."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    summary_bytes: bytes
    summary: dict
    returncode: int
    report: dict | None = None
    slowdown: float = 1.0  # calibration loop time around the command / reference


class Runner:
    """Launches the program under a fixed environment and a run deadline."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        path = [str(ROOT / "src")] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.env["NSG_THREADS"] = str(workload.threads)
        self.env["PYTHONHASHSEED"] = "0"
        self.launches = 0

    def launch(self, argv: list[str]) -> tuple[float, float, resource.struct_rusage, int, Path]:
        """Run argv to completion; (launch time, wall, rusage, exit code, log)."""
        self.launches += 1
        log = self.workdir / f"launch-{self.launches}.log"
        with open(log, "wb") as sink:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=sink, stderr=sink)
            watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{' '.join(argv)} passed the {RUN_DEADLINE_S:.0f} s run deadline")
        return start, wall, usage, proc.returncode, log

    def setup_seconds(self) -> float:
        """Launch until `nsg.cli` is imported, from a fresh interpreter."""
        probe = "import time, nsg, nsg.cli; print(time.monotonic()); print(nsg.__file__)"
        start, _, _, code, log = self.launch([sys.executable, "-c", probe])
        lines = log.read_text().splitlines()
        if code != 0 or len(lines) != 2:
            raise BenchError(f"cannot import nsg.cli from {ROOT / 'src'}:\n{log.read_text()}")
        if not Path(lines[1]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"nsg was imported from {lines[1]}, not from {ROOT / 'src'}")
        return float(lines[0]) - start

    def verify(self, order: tuple[str, ...], traced: bool) -> Invocation:
        n = self.launches + 1
        summary_path = self.workdir / f"summary-{n}.json"
        command = ["verify", *self.workload.family, "--checks", ",".join(order),
                   "--json", str(summary_path)]
        if traced:
            report_path = self.workdir / "trace-report.json"
            report_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), "--report", str(report_path),
                    "--spans", str(self.workdir / "spans"), "--", *command]
        else:
            argv = [sys.executable, "-m", "nsg.cli", *command]
        start, wall, usage, code, log = self.launch(argv)
        if code not in (0, 1) or not summary_path.exists():
            raise BenchError(f"`nsg verify` exited {code}:\n{log.read_text()[-3000:]}")
        report = None
        if traced:
            report = json.loads(report_path.read_text())
            wall = report["end_monotonic"] - start  # excludes writing the spans
        data = summary_path.read_bytes()
        summary_path.unlink()
        return Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            summary_bytes=data,
            summary=json.loads(data),
            returncode=code,
            report=report,
        )


def gate(workload: Workload, order: tuple[str, ...], run: Invocation) -> tuple[int, list[str]]:
    """Failed semigroups of one invocation, and every way it is wrong."""
    summary = run.summary
    problems = []
    total = summary["total"]
    if total != workload.expected_total:
        problems.append(f"family has {total} semigroups, expected {workload.expected_total}")
    if summary["checks"] != list(order):
        problems.append(f"ran checks {summary['checks']}, asked for {list(order)}")
    failing = {name: 0 for name in order}
    for record in summary["counterexamples"]:
        wrong = sorted(name for name, ok in record["verdicts"].items() if not ok)
        for name in wrong:
            failing[name] = failing.get(name, 0) + 1
        if (tuple(record["generators"]), wrong) != (KNOWN_FALSE[0], [KNOWN_FALSE[1]]):
            problems.append(f"counterexample {record['generators']} fails {wrong}")
    for name in order:
        if summary["pass_counts"].get(name) != total - failing[name]:
            problems.append(f"{name} passes {summary['pass_counts'].get(name)} of {total}")
    failed = len(summary["counterexamples"])
    if run.returncode != (1 if failed else 0) or summary["all_pass"] != (failed == 0):
        problems.append(f"exit code {run.returncode} with {failed} counterexamples")
    return failed, problems


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def is_time(name: str) -> bool:
    return name.endswith(("_s", "_ms"))


def is_exact(name: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly between runs."""
    return not is_time(name) and name != "verification.pool.busy_frac"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine is right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return time.perf_counter() - start


def measure(name: str, workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "nsg" / "cli.py").is_file():
        raise BenchError(f"no nsg sources under {ROOT / 'src'}")
    order = tuple(random.Random(seed).sample(workload.checks, len(workload.checks)))
    workdir = WORK / f"{name}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workload, workdir)
    context = {
        "workload": name,
        "seed": seed,
        "checks": list(order),
        "family": list(workload.family),
        "nsg_threads": workload.threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_loop": CALIBRATION_LOOP,
        "calibration_reference_s": CALIBRATION_REF_S,
    }
    runner.setup_seconds()  # warm-up: compiles bytecode once, untimed

    # calibrations[i] and calibrations[i + 1] bracket command i.
    calibrations = [calibrate()]
    setup: list[float] = []
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    problems: list[str] = []
    failed = 0
    # Trace mode needs an untraced reference and two traced runs to compare.
    batch = [False, True, True] if trace else [False] * MIN_RUNS
    start = time.monotonic()
    while batch:
        for kind in batch:
            if not trace:
                setup.append(runner.setup_seconds())
            run = runner.verify(order, traced=kind)
            calibrations.append(calibrate())
            run.slowdown = (calibrations[-2] + calibrations[-1]) / (2 * CALIBRATION_REF_S)
            (traced if kind else plain).append(run)
            run_failed, run_problems = gate(workload, order, run)
            failed += run_failed
            problems += run_problems
        more = not problems and time.monotonic() - start < seconds
        batch = ([False, True] if trace else [False]) if more else []

    runs = plain + traced
    if len({run.summary_bytes for run in runs}) != 1:
        problems.append("summary JSON differs between runs of the same command")
    if trace:
        exact = [{k: v for k, v in run.report["metrics"].items() if is_exact(k)} for run in traced]
        if any(counts != exact[0] for counts in exact[1:]):
            problems.append("traced runs disagree on counts")
    attempted = sum(run.summary["total"] for run in runs)
    context["calibration_s"] = calibrations
    context["setup_samples_s"] = setup
    context["runs"] = [
        {"traced": run.report is not None, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
         "peak_rss_mb": run.peak_rss_mb, "slowdown": run.slowdown}
        for run in runs
    ]
    print(json.dumps({"context": context}))
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    # Times are scaled to the reference machine by the slowdown of the
    # calibration loop around each command, then the run's median is taken.
    def throughput(group: list[Invocation]) -> float:
        return statistics.median(run.summary["total"] * run.slowdown / run.wall_s for run in group)

    if trace:
        values = {}
        for key in traced[0].report["metrics"]:
            if is_time(key):
                values[key] = statistics.median(
                    run.report["metrics"][key] / run.slowdown for run in traced
                )
            else:
                values[key] = traced[0].report["metrics"][key]
        values["verification.failed_frac"] = failed / attempted
        values["trace.traced_throughput_sgps"] = throughput(traced)
        values["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
    else:
        values = {
            "throughput_sgps": throughput(plain),
            "setup_s": statistics.median(t / run.slowdown for t, run in zip(setup, plain)),
            "cpu_s": statistics.median(run.cpu_s / run.slowdown for run in plain),
            "peak_rss_mb": statistics.median(run.peak_rss_mb for run in plain),
        }
    units = declared_metrics(trace)
    if set(units) != set(values):
        raise BenchError(
            f"measured metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))},"
            f" undeclared {sorted(set(values) - set(units))}"
        )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def crosscheck_ci(frobenius: int) -> list[str]:
    """Check CI_COUNTS[frobenius] by presentation size, not by gluings.

    Every glued semigroup must have a presentation of size embedding
    dimension - 1; for small F the full tree filtered that way must give
    the same set (the tree is out of reach at the workload's F).
    """
    from nsg.enumeration import ci_with_frobenius, enumerate_by_frobenius
    from nsg.factorization import presentation_size

    def by_presentation(S):
        return presentation_size(S) == S.embedding_dimension - 1

    glued = set(ci_with_frobenius(frobenius))
    problems = []
    if not all(S.frobenius == frobenius and by_presentation(S) for S in glued):
        problems.append(f"F={frobenius}: a glued semigroup fails presentation_size")
    if frobenius < 20 and glued != {S for S in enumerate_by_frobenius(frobenius) if by_presentation(S)}:
        problems.append(f"F={frobenius}: gluings and the filtered tree differ")
    if len(glued) != CI_COUNTS[frobenius]:
        problems.append(f"F={frobenius}: {len(glued)} complete intersections, table says {CI_COUNTS[frobenius]}")
    return problems


def smoke() -> int:
    """Every workload on tiny families in both modes; schema and gate checks."""
    problems = []
    for name, workload in workloads(smoke=True).items():
        for trace in (False, True):
            result = measure(name, workload, seed=1, seconds=1, trace=trace)
            expected_failed = result["attempted"] // workload.expected_total if "genus" in name else 0
            if not result["correct"] or result["failed"] != expected_failed:
                problems.append(f"{name} trace={int(trace)}: {json.dumps(result)[:300]}")
            print(f"smoke {name} trace={int(trace)}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
    # Imports nsg into this process, so it runs after the measurements: a
    # child's peak RSS as the kernel reports it includes this process's peak.
    sys.path.insert(0, str(ROOT / "src"))
    for frobenius in sorted(CI_COUNTS):
        problems += crosscheck_ci(frobenius)
    for problem in problems:
        print(f"smoke failure: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads(smoke=False)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny families, all workloads")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        workload = workloads(smoke=False)[args.workload]
        result = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
