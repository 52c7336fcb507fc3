"""Batch verification of structural claims over enumerated semigroup families.

A job names an enumeration mode plus a bound and a list of checks from
:data:`CHECKS`, each a ``*_witness`` method of
:class:`~nsg.bettiposet.SemigroupAnalysis`. The driver streams the family
and builds one analysis per semigroup, which every filter, check and
counterexample report reads, so each invariant of a semigroup is computed at
most once. The analysis is dropped after its semigroup: caches are scoped to
one evaluation and memory stays flat over a family.

Every job, resumed or filtered, streams one row of :data:`FAMILIES`: the
serial preorder walk of :mod:`nsg.enumeration`, by genus or by Frobenius
number, or the gluing enumerator. Outcomes accumulate in one
:class:`VerificationSummary` in the family's order, so exports are
byte-stable. Every family resumes after the member a token names by its
gap tuple, which is its tree path too, so a run's token is formatted from
the last semigroup checked, and only when a progress callback or a reader asks.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .bettiposet import SemigroupAnalysis
from .enumeration import (
    Path,
    ci_with_frobenius,
    enumerate_by_frobenius,
    enumerate_by_genus,
    format_token,
    parse_token,
)
from .errors import require_int
from .records import FrozenRecord
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


def _validate_names(kind: str, names, known) -> None:
    """A ValueError for the first unknown or repeated name of a ``kind``."""
    for i, name in enumerate(names):
        if name not in known:
            raise ValueError(f"unknown {kind} {name!r}; known: {','.join(known)}")
        if name in names[:i]:
            raise ValueError(f"{kind} {name!r} named twice")


def _glued(frobenius: int, path: Path | None) -> tuple[NumericalSemigroup, ...]:
    """The complete intersections with Frobenius number F after the one at ``path``."""
    family = ci_with_frobenius(frobenius)
    if path is None:
        return family
    S = NumericalSemigroup.from_gaps(path)  # a non-closed gap set is a ValueError
    if S not in family:  # found by generators, reading no member's gaps
        raise ValueError(f"the semigroup with gaps {path} is not a complete intersection "
                         f"with Frobenius number {frobenius}")
    return family[family.index(S) + 1 :]


# (mode, filter its enumerator applies itself) -> (least limit, enumerator).
# enumerator(limit, path) streams the family in one fixed order, strictly after
# the member whose gap tuple is path (None: all), and checks the path at the
# call. _glued looks ci_with_frobenius up at each call, so a rebound name is seen.
FAMILIES: dict[tuple[str, str | None], tuple[int, Callable]] = {
    ("by-genus", None): (0, enumerate_by_genus),
    ("by-frobenius", None): (1, enumerate_by_frobenius),
    ("by-frobenius", "ci"): (1, _glued),
}


class EnumerationJob(FrozenRecord):
    """What to enumerate: mode, bound, optional filters and resume point.

    ``family`` keys its row of :data:`FAMILIES` (by-frobenius filtered on
    "ci": the gluing enumerator). A resume token is a member's gap tuple, or
    on the tree walks that of any node they descend through.
    """

    __slots__ = ("mode", "limit", "filters", "resume_token")

    def __init__(
        self,
        mode: str,
        limit: int,
        filters: tuple[str, ...] = (),
        resume_token: str | None = None,
    ):
        self._init(mode, limit, tuple(filters), resume_token)
        if (self.mode, None) not in FAMILIES:
            raise ValueError(f"unknown mode {self.mode!r}")
        require_int(self.limit, "limit must be an int")
        least, members = FAMILIES[self.family]
        if self.limit < least:
            raise ValueError(f"limit must be >= {least} in {self.mode} mode")
        _validate_names("filter", self.filters, FILTERS)
        if self.resume_token is not None:
            path = parse_token(self.resume_token)
            try:
                members(self.limit, path)  # the tree walks descend at the call
            except ValueError as exc:
                raise ValueError(
                    f"resume token {self.resume_token!r} names no node of this walk: {exc}"
                ) from exc

    @property
    def family(self) -> tuple[str, str | None]:
        """The job's key in :data:`FAMILIES`: its mode, and its filter that has a row."""
        return self.mode, next((f for f in self.filters if (self.mode, f) in FAMILIES), None)


def _stream(job: EnumerationJob) -> Iterator[SemigroupAnalysis]:
    """The analyses of the job's family in its order, filters applied.

    A row's own filter is re-verified on each member by its analysis, whose
    Betti catalog the filters and checks then share.
    """
    own = job.family[1]
    members = FAMILIES[job.mode, own][1]
    resume = None if job.resume_token is None else parse_token(job.resume_token)
    predicates = [FILTERS[name] for name in job.filters]
    for S in members(job.limit, resume):
        analysis = SemigroupAnalysis(S)
        if own is not None and not FILTERS[own](analysis):
            raise RuntimeError(f"gluing yielded {S.generators}, not a complete intersection")
        if not predicates or all(predicate(analysis) for predicate in predicates):
            yield analysis


def enumerate_job(job: EnumerationJob) -> Iterator[NumericalSemigroup]:
    """Stream the family of a job, filters applied."""
    for analysis in _stream(job):
        yield analysis.semigroup


class ReportRecord(NamedTuple):
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
    analysis: SemigroupAnalysis, verdicts: dict[str, bool] | None = None, prefix=None
) -> ReportRecord:
    """The report record of a semigroup from its analysis; ``prefix`` sets its exponents."""
    S = analysis.semigroup
    return ReportRecord(
        generators=S.generators,
        frobenius=S.frobenius,
        genus=S.genus,
        betti={b: (data.nc, data.isolated_count) for b, data in analysis.betti.items()},
        exponent_prefix=tuple(analysis.sequence if prefix is None else prefix),
        flags=analysis.classification.to_json_dict(),
        verdicts=dict(verdicts or {}),
    )


# The checks by name: each returns None when its statement holds, else a witness.
CHECKS: dict[str, Callable[[SemigroupAnalysis], str | None]] = {
    "ci-cyclotomic": SemigroupAnalysis.ci_cyclotomic_witness,
    "thm1": SemigroupAnalysis.exponent_values_witness,
    "thm2": SemigroupAnalysis.chain_betti_witness,
    "thm5.2": SemigroupAnalysis.minimal_betti_witness,
    "conj-msg": SemigroupAnalysis.negative_support_witness,
    "conj-betti": SemigroupAnalysis.betti_exponent_witness,
}


def validate_checks(names) -> tuple[str, ...]:
    """The check names as a tuple; unknown, empty or repeated names are a ValueError."""
    names = tuple(names)
    if not names:
        raise ValueError("no check named; known: " + ",".join(CHECKS))
    _validate_names("check", names, CHECKS)
    return names


class VerificationSummary:
    """The tally of a run: pass counts, counterexamples and the resume point.

    :func:`run_verification` tallies semigroups one at a time, in the order
    the family streams them, and keeps the last one as ``last``.
    """

    __slots__ = ("job", "checks", "total", "pass_counts", "counterexamples", "last")

    def __init__(self, job: EnumerationJob, checks: tuple[str, ...]):
        self.job = job
        self.checks = checks
        self.total = 0
        self.pass_counts: dict[str, int] = dict.fromkeys(checks, 0)
        self.counterexamples: list[ReportRecord] = []
        self.last: NumericalSemigroup | None = None

    @property
    def last_token(self) -> str | None:
        """The resume token of the last semigroup checked, None before the first."""
        return None if self.last is None else format_token(self.last.gaps)

    @property
    def all_pass(self) -> bool:
        return not self.counterexamples

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
    """Always 1: verification runs in this process, on one serial walk.

    Kept only because ``perfbench/trace.py`` imports it for its pool
    metrics, which now read 0; it goes with the next benchmark change.
    """
    return 1


_PROGRESS_EVERY = 500


def run_verification(
    job: EnumerationJob,
    checks,
    progress: Callable[[int, str], None] | None = None,
) -> VerificationSummary:
    """Run the named checks over a job's family and aggregate the outcome.

    The names go through :func:`validate_checks` before the walk starts.
    Counterexamples are collected as full report records (sorted by
    generators in the summary). Each check runs once per semigroup; a verdict
    list is built only at a failure. A progress callback receives (count, token)
    each time the count reaches a multiple of 500, and the final summary
    carries the last token, so an interrupted run of any family resumes.
    """
    checks = validate_checks(checks)
    summary = VerificationSummary(job, checks)
    tests = [CHECKS[name] for name in checks]  # looked up once, tallied by position
    fails = [0] * len(tests)
    for analysis in _stream(job):
        for test in tests:
            if test(analysis) is not None:
                i = tests.index(test)
                verdicts = [True] * i + [False] + [t(analysis) is None for t in tests[i + 1 :]]
                fails = [failed + (not ok) for failed, ok in zip(fails, verdicts)]
                summary.counterexamples.append(build_report(analysis, dict(zip(checks, verdicts))))
                break
        summary.total += 1
        summary.last = analysis.semigroup
        if progress is not None and summary.total % _PROGRESS_EVERY == 0:
            progress(summary.total, summary.last_token)
    summary.pass_counts = {name: summary.total - failed for name, failed in zip(checks, fails)}
    summary.counterexamples.sort(key=lambda r: r.generators)
    return summary
