"""Batch verification of structural claims over enumerated semigroup families.

A job names an enumeration mode plus a bound and a list of named checks;
the driver streams the family and builds one
:class:`~nsg.analysis.SemigroupAnalysis` per semigroup, which every filter,
check and counterexample report reads, so each invariant of a semigroup is
computed at most once. The analysis is dropped after its semigroup: caches
are scoped to one evaluation and memory stays flat over a family.

Outcomes accumulate in one tally type, :class:`VerificationSummary`, which
the serial walk fills directly and subtree workers (capped by the
NSG_THREADS environment variable) fill on their own and merge. Aggregation
is commutative, so merges are deterministic and exports are byte-stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Iterator

from .analysis import SemigroupAnalysis
from .enumeration import (
    Path,
    children,
    ci_with_frobenius,
    enumerate_by_frobenius,
    format_token,
    parse_token,
    walk_genus_tree,
    walk_subtree,
)
from .semigroup import NumericalSemigroup

# Predicates on the analysis of one semigroup.
FILTERS: dict[str, Callable[[SemigroupAnalysis], bool]] = {
    "ci": lambda a: a.complete_intersection,
    "cyclotomic": lambda a: a.cyclotomic,
    "betti-sorted": lambda a: a.classification.betti_sorted,
    "betti-divisible": lambda a: a.classification.betti_divisible,
    "unique-betti": lambda a: a.classification.unique_betti,
    "forest": lambda a: a.classification.betti_forest,
}


@dataclass(frozen=True)
class EnumerationJob:
    """What to enumerate: mode, bound, optional filters and resume point."""

    mode: str  # by-genus | by-frobenius | ci-by-frobenius
    limit: int
    filters: tuple[str, ...] = ()
    resume_token: str | None = None

    def __post_init__(self):
        if self.mode not in ("by-genus", "by-frobenius", "ci-by-frobenius"):
            raise ValueError(f"unknown mode {self.mode!r}")
        least = 0 if self.mode == "by-genus" else 1
        if self.limit < least:
            raise ValueError(f"limit must be >= {least} in {self.mode} mode")
        for name in self.filters:
            if name not in FILTERS:
                raise ValueError(f"unknown filter {name!r}; known: {','.join(FILTERS)}")
        if self.resume_token is not None:
            if self.mode != "by-genus":
                raise ValueError("resume tokens apply to by-genus jobs only")
            parse_token(self.resume_token)


def _stream(job: EnumerationJob) -> Iterator[tuple[SemigroupAnalysis, Path]]:
    """The job's family as (analysis, tree path) pairs, filters applied.

    Paths are tree paths in by-genus mode (honouring the resume token) and
    empty otherwise. A by-frobenius job filtered on "ci" walks the gluing
    enumerator, as a ci-by-frobenius job does: it reaches Frobenius numbers
    the full tree cannot. Every glued semigroup is re-verified by the
    presentation-size test of its analysis, whose Betti catalog the filters
    and checks then share.
    """
    glued = job.mode == "ci-by-frobenius" or (
        job.mode == "by-frobenius" and "ci" in job.filters
    )
    if job.mode == "by-genus":
        resume = None if job.resume_token is None else parse_token(job.resume_token)
        family = walk_genus_tree(job.limit, resume=resume)
    else:
        enumerate_family = ci_with_frobenius if glued else enumerate_by_frobenius
        family = ((S, ()) for S in enumerate_family(job.limit))
    predicates = [FILTERS[name] for name in job.filters]
    for S, path in family:
        analysis = SemigroupAnalysis(S)
        assert not glued or analysis.complete_intersection
        if all(predicate(analysis) for predicate in predicates):
            yield analysis, path


def enumerate_job(job: EnumerationJob) -> Iterator[NumericalSemigroup]:
    """Stream the family of a job, filters applied."""
    for analysis, _ in _stream(job):
        yield analysis.semigroup


@dataclass(frozen=True)
class ReportRecord:
    """Everything worth reporting about one semigroup, recomputable from it."""

    generators: tuple[int, ...]
    frobenius: int
    genus: int
    betti: dict[int, tuple[int, int]]  # b -> (nc, isolated count)
    exponent_prefix: tuple[int, ...]
    flags: dict[str, bool | None]
    verdicts: dict[str, bool]

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "betti": {str(b): list(v) for b, v in self.betti.items()},
            "exponent_prefix": [str(e) for e in self.exponent_prefix],
            "flags": self.flags,
            "verdicts": self.verdicts,
        }


def build_report(
    S: NumericalSemigroup | SemigroupAnalysis, verdicts: dict[str, bool] | None = None
) -> ReportRecord:
    """The report record of a semigroup, read from its analysis when given one."""
    analysis = S if isinstance(S, SemigroupAnalysis) else SemigroupAnalysis(S)
    S = analysis.semigroup
    return ReportRecord(
        generators=S.generators,
        frobenius=S.frobenius,
        genus=S.genus,
        betti={b: (data.nc, data.isolated_count) for b, data in analysis.betti.items()},
        exponent_prefix=tuple(analysis.sequence),
        flags=analysis.classification.to_json_dict(),
        verdicts=dict(verdicts or {}),
    )


def _check_ci_cyclotomic(analysis: SemigroupAnalysis) -> bool:
    return analysis.complete_intersection == analysis.cyclotomic


def _theorem_check(check_id: str) -> Callable[[SemigroupAnalysis], bool]:
    def check(analysis: SemigroupAnalysis) -> bool:
        return next(
            c.passed for c in analysis.theorem_report.checks if c.check_id == check_id
        )

    return check


def _check_negative_support_is_generators(analysis: SemigroupAnalysis) -> bool:
    """Finite support only: indices with negative exponent = minimal generators."""
    exponents = analysis.full_exponents
    if exponents is None:
        return True  # vacuous: the claim quantifies over finitely supported sequences
    negative = {j for j, e in exponents.items() if e < 0}
    return negative == set(analysis.semigroup.generators)


def _check_betti_exponents(analysis: SemigroupAnalysis) -> bool:
    """Finite support only: e_b = nc - 1 at every Betti element."""
    exponents = analysis.full_exponents
    if exponents is None:
        return True
    generators = analysis.semigroup.generators
    catalog = analysis.betti
    support = {j for j, e in exponents.items() if j >= 2 and j not in generators}
    if not set(catalog) <= support:
        return False
    return all(exponents.get(b, 0) == data.nc - 1 for b, data in catalog.items())


# Verdicts on the analysis of one semigroup.
CHECKS: dict[str, Callable[[SemigroupAnalysis], bool]] = {
    "ci-cyclotomic": _check_ci_cyclotomic,
    "thm1": _theorem_check("exponent-values-at-generators-and-gaps"),
    "thm2": _theorem_check("chain-betti-vs-chain-support"),
    "thm5.2": _theorem_check("minimal-betti-vs-minimal-support"),
    "conj-msg": _check_negative_support_is_generators,
    "conj-betti": _check_betti_exponents,
}


@dataclass
class VerificationSummary:
    """The tally of a run: pass counts, counterexamples and the resume point.

    Serial runs add semigroups one at a time; each pool worker fills its own
    summary for a subtree and the parent merges them in subtree order.
    """

    job: EnumerationJob
    checks: tuple[str, ...]
    total: int = 0
    pass_counts: dict[str, int] = field(default_factory=dict)
    counterexamples: list[ReportRecord] = field(default_factory=list)
    last_token: str | None = None

    def __post_init__(self):
        for name in self.checks:
            self.pass_counts.setdefault(name, 0)

    @property
    def all_pass(self) -> bool:
        return not self.counterexamples

    def add(self, analysis: SemigroupAnalysis, path: Path) -> None:
        """Run the checks on one semigroup; a failure keeps its full report."""
        verdicts = {name: CHECKS[name](analysis) for name in self.checks}
        self.total += 1
        for name, ok in verdicts.items():
            self.pass_counts[name] += ok
        if not all(verdicts.values()):
            self.counterexamples.append(build_report(analysis, verdicts))
        self.last_token = format_token(path)

    def merge(self, other: "VerificationSummary") -> None:
        """Fold in the tally of a later part of the same walk."""
        self.total += other.total
        for name, count in other.pass_counts.items():
            self.pass_counts[name] += count
        self.counterexamples.extend(other.counterexamples)
        self.last_token = other.last_token

    def to_json_dict(self) -> dict:
        return {
            "mode": self.job.mode,
            "limit": self.job.limit,
            "filters": list(self.job.filters),
            "checks": list(self.checks),
            "total": self.total,
            "pass_counts": dict(sorted(self.pass_counts.items())),
            "counterexamples": [r.to_json_dict() for r in self.counterexamples],
            "all_pass": self.all_pass,
            "last_token": self.last_token,
        }


def worker_count() -> int:
    value = os.environ.get("NSG_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def run_verification(
    job: EnumerationJob,
    checks,
    progress: Callable[[int, str], None] | None = None,
) -> VerificationSummary:
    """Run the named checks over a job's family and aggregate the outcome.

    Counterexamples are collected as full report records (sorted by
    generators in the summary). A progress callback receives (count, token)
    each time the count passes a multiple of 500, on the serial and the
    parallel path alike, and the final summary carries the last token, so
    interrupted runs can resume. Parallel workers split the genus
    tree at a fixed shallow depth and merge in subtree order; resumed runs
    are processed serially.
    """
    checks = tuple(checks)
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    summary = VerificationSummary(job, checks)

    workers = worker_count()
    if (
        job.mode == "by-genus"
        and workers > 1
        and job.resume_token is None
        and not job.filters
        and job.limit >= 4
    ):
        _run_parallel(summary, workers, progress)
    else:
        for analysis, path in _stream(job):
            summary.add(analysis, path)
            _report_progress(summary, summary.total - 1, progress)
    summary.counterexamples.sort(key=lambda r: r.generators)
    return summary


_SPLIT_DEPTH = 4
_PROGRESS_EVERY = 500


def _report_progress(summary: VerificationSummary, before: int, progress) -> None:
    """Call ``progress`` when the total has just passed a multiple of 500."""
    if progress is not None and summary.total // _PROGRESS_EVERY > before // _PROGRESS_EVERY:
        progress(summary.total, summary.last_token)


def _subtree_task(args) -> VerificationSummary:
    job, checks, generators, path = args
    tally = VerificationSummary(job, checks)
    for S, node_path in walk_subtree(NumericalSemigroup(generators), path, job.limit):
        tally.add(SemigroupAnalysis(S), node_path)
    return tally


def _run_parallel(summary: VerificationSummary, workers: int, progress) -> None:
    job = summary.job
    split_depth = min(_SPLIT_DEPTH, job.limit - 1)
    # nodes above the split depth are checked here; the subtrees hanging off
    # the split depth go to the pool in DFS order
    tasks = []
    for S, path in walk_genus_tree(split_depth - 1):
        summary.add(SemigroupAnalysis(S), path)
        if len(path) == split_depth - 1:
            tasks.extend(
                (job, summary.checks, child.generators, path + (g,))
                for g, child in children(S)
            )
    with Pool(workers) as pool:
        for part in pool.imap(_subtree_task, tasks):
            before = summary.total
            summary.merge(part)
            _report_progress(summary, before, progress)
