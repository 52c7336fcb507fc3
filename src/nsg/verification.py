"""Batch verification of structural claims over enumerated semigroup families.

A job names an enumeration mode plus a bound and a list of named checks;
the driver streams the family and builds one
:class:`~nsg.analysis.SemigroupAnalysis` per semigroup, which every filter,
check and counterexample report reads, so each invariant of a semigroup is
computed at most once. The analysis is dropped after its semigroup: caches
are scoped to one evaluation and memory stays flat over a family.

Every job, resumed or filtered, by genus or by Frobenius number, takes the
same single serial walk. Outcomes
accumulate in one :class:`VerificationSummary` in walk order, so exports
are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .analysis import SemigroupAnalysis
from .enumeration import (
    Path,
    ci_with_frobenius,
    enumerate_by_frobenius,
    format_token,
    parse_token,
    walk_genus_tree,
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
    """What to enumerate: mode, bound, optional filters and resume point.

    A resume token must name a node of the semigroup tree, at any depth.
    """

    mode: str  # by-genus | by-frobenius (filtered on "ci": the gluing enumerator)
    limit: int
    filters: tuple[str, ...] = ()
    resume_token: str | None = None

    def __post_init__(self):
        if self.mode not in ("by-genus", "by-frobenius"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not isinstance(self.limit, int) or isinstance(self.limit, bool):
            raise ValueError(f"limit must be an int, got {self.limit!r}")
        least = 0 if self.mode == "by-genus" else 1
        if self.limit < least:
            raise ValueError(f"limit must be >= {least} in {self.mode} mode")
        for i, name in enumerate(self.filters):
            if name not in FILTERS:
                raise ValueError(f"unknown filter {name!r}; known: {','.join(FILTERS)}")
            if name in self.filters[:i]:
                raise ValueError(f"filter {name!r} named twice")
        if self.resume_token is not None:
            if self.mode != "by-genus":
                raise ValueError("resume tokens apply to by-genus jobs only")
            path = parse_token(self.resume_token)
            node = NumericalSemigroup(1)
            try:
                for g in path:  # each step must remove a tree child's generator
                    node = node.remove_generator(g)
            except ValueError as exc:
                raise ValueError(
                    f"resume token {self.resume_token!r} names no node of the tree: {exc}"
                ) from exc


def _stream(job: EnumerationJob) -> Iterator[tuple[SemigroupAnalysis, Path]]:
    """The job's family as (analysis, tree path) pairs, filters applied.

    Paths are tree paths in by-genus mode (honouring the resume token) and
    empty otherwise. A by-frobenius job filtered on "ci" is the one route to
    the gluing enumerator, which reaches Frobenius numbers the full tree
    cannot. Every glued semigroup is re-verified by the presentation-size
    test of its analysis, whose Betti catalog the filters and checks then
    share.
    """
    glued = job.mode == "by-frobenius" and "ci" in job.filters
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
    if exponents is None or analysis.semigroup.is_trivial:
        return True  # vacuous off finite support, and on <1>, whose exponents are all 0
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


def validate_checks(names) -> tuple[str, ...]:
    """The check names as a tuple; unknown, empty or repeated names are a ValueError."""
    names = tuple(names)
    if not names:
        raise ValueError("no check named; known: " + ",".join(CHECKS))
    for i, name in enumerate(names):
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {','.join(CHECKS)}")
        if name in names[:i]:
            raise ValueError(f"check {name!r} named twice")
    return names


@dataclass
class VerificationSummary:
    """The tally of a run: pass counts, counterexamples and the resume point.

    :func:`run_verification` tallies semigroups one at a time, in the order
    the walk visits them.
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
    progress: Callable[[int, str | None], None] | None = None,
) -> VerificationSummary:
    """Run the named checks over a job's family and aggregate the outcome.

    The names go through :func:`validate_checks` before the walk starts.
    Counterexamples are collected as full report records (sorted by
    generators in the summary). A progress callback receives (count, token)
    each time the count reaches a multiple of 500, and the final summary
    carries the last token (by-genus jobs only), so interrupted runs resume.
    """
    checks = validate_checks(checks)
    summary = VerificationSummary(job, checks)
    for analysis, path in _stream(job):
        verdicts = {name: CHECKS[name](analysis) for name in checks}
        summary.total += 1
        for name, ok in verdicts.items():
            summary.pass_counts[name] += ok
        if not all(verdicts.values()):
            summary.counterexamples.append(build_report(analysis, verdicts))
        summary.last_token = format_token(path) if job.mode == "by-genus" else None
        if progress is not None and summary.total % _PROGRESS_EVERY == 0:
            progress(summary.total, summary.last_token)
    summary.counterexamples.sort(key=lambda r: r.generators)
    return summary
