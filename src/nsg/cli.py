"""Command-line workbench.

Subcommands: ``analyze`` (one-semigroup report), ``exponents`` (print the
expansion exponents), ``betti`` (Betti structure), ``enumerate`` (families by
genus or Frobenius number, with filters), ``verify`` (batch checks over a
family). Exit status 0 means every requested check passed, 1 signals a
counterexample (or an interrupt, or a reader that closed the output pipe),
2 a usage error, an export path that cannot be written included, found before
any work. ``verify`` walks its family serially, in this process.

Every command is a fresh interpreter, so the parser is the standard
library's ``argparse``, and nothing on this module's import path pulls in a
command-line framework or ``dataclasses``. For the same reason a run that
owns the process (the console script or ``python -m nsg.cli``) calls
:func:`gc.freeze` before it exits. The interpreter's exit-time collections
then skip every object the command loaded (the standard library, argparse,
nsg): collecting them would only free memory the system takes back with the
process. In-process callers keep their collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .bettiposet import SemigroupAnalysis
from .ci import gluing_decompose
from .export import dumps_json, write_csv, write_dot, write_json
from .semigroup import NumericalSemigroup
from .verification import (
    CHECKS,
    FILTERS,
    EnumerationJob,
    build_report,
    enumerate_job,
    run_verification,
    validate_checks,
)
from .witt import exponent_sequence


class UsageError(Exception):
    """Bad input found after parsing; :func:`main` reports it like argparse, exit 2."""


def _parse_semigroup(text: str) -> NumericalSemigroup:
    try:
        return NumericalSemigroup.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write(writer, data, path) -> None:
    """Export to a file; a path that cannot be written is a usage error."""
    try:
        writer(data, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _probe(_, path) -> None:
    """Open ``path`` for append, writing nothing; a file this creates is removed again."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _family_job(options, resume_token=None) -> EnumerationJob:
    """The job for exactly one of --genus-max, --frobenius; bad input is a usage error."""
    limits = {"by-genus": options.genus_max, "by-frobenius": options.frobenius}
    given = [mode for mode, limit in limits.items() if limit is not None]
    if len(given) != 1:
        raise UsageError("pass exactly one of --genus-max, --frobenius")
    filter_names = tuple(name for name in options.filters.split(",") if name)
    try:
        return EnumerationJob(given[0], limits[given[0]], filter_names, resume_token)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def analyze(options) -> int:
    """Full structural report for one semigroup, e.g. `nsg analyze 4,6,9`."""
    bound = options.bound
    if bound is not None and bound < 1:
        raise UsageError("--bound must be >= 1")
    S = _parse_semigroup(options.generators)
    analysis = SemigroupAnalysis(S)
    catalog = analysis.betti
    sequence = analysis.sequence if bound is None else analysis.sweep.prefix(bound)
    flags = analysis.classification
    print(f"generators: {', '.join(map(str, S.generators))}")
    print(f"frobenius: {S.frobenius}   genus: {S.genus}   multiplicity: {S.multiplicity}")
    print(f"gaps: {', '.join(map(str, S.gaps)) or '-'}")
    print(f"symmetric: {S.is_symmetric()}")
    print(f"cyclotomic: {analysis.cyclotomic}")
    ci = analysis.complete_intersection
    print(f"complete intersection: {ci}")
    if ci:
        tree = gluing_decompose(S)
        print(f"gluing tree: {dumps_json(tree.to_json()).strip()}")
    if catalog:
        print("betti elements (element: classes, isolated):")
        for b, data in catalog.items():
            print(f"  {b}: nc={data.nc}, isolated={data.isolated_count}")
    else:
        print("betti elements: none")
    print(f"classification: {flags.to_json_dict()}")
    print(f"exponents ({sequence.bound} entries): {sequence.format()}")
    if options.json_path:
        report = build_report(analysis, prefix=sequence)
        _write(write_json, report.to_json_dict(), options.json_path)
        print(f"wrote {options.json_path}", file=sys.stderr)
    if options.dot_path:
        diagram = analysis.betti_order.hasse()
        _write(write_dot, diagram.to_dot(), options.dot_path)
        print(f"wrote {options.dot_path}", file=sys.stderr)
    return 0


def exponents(options) -> int:
    """Print the first COUNT exponent-sequence entries, comma separated."""
    if options.count < 1:
        raise UsageError("--count must be >= 1")
    S = _parse_semigroup(options.generators)
    sequence = exponent_sequence(S, options.count)
    print(sequence.format())
    if options.csv_path:
        _write(write_csv, [list(sequence)], options.csv_path)
    if options.json_path:
        _write(write_json, sequence.to_json(), options.json_path)
    return 0


def betti(options) -> int:
    """Betti elements with class structure and cover relations."""
    analysis = SemigroupAnalysis(_parse_semigroup(options.generators))
    catalog = analysis.betti
    subset = analysis.betti_order
    diagram = subset.hasse()
    if not catalog:
        print("no betti elements")
    for b, data in catalog.items():
        print(f"{b}: nc={data.nc}, isolated={data.isolated_count}")
    if diagram.covers:
        print("covers: " + ", ".join(f"{a}->{b}" for a, b in diagram.covers))
    print(f"forest: {diagram.is_forest}")
    print("chain-downset part: " + (", ".join(map(str, subset.u_set())) or "-"))
    if options.dot_path:
        _write(write_dot, diagram.to_dot(), options.dot_path)
    if options.json_path:
        _write(
            write_json,
            {
                "betti": {str(b): [d.nc, d.isolated_count] for b, d in catalog.items()},
                "covers": [list(c) for c in diagram.covers],
                "forest": diagram.is_forest,
            },
            options.json_path,
        )
    return 0


def enumerate_family(options) -> int:
    """Stream a family of semigroups (generator lists) or just count it."""
    job = _family_job(options)
    count = 0
    emitted = []
    for S in enumerate_job(job):
        count += 1
        if not options.count_only:
            print(",".join(map(str, S.generators)))
        if options.json_path:
            emitted.append(list(S.generators))
    if options.count_only:
        print(count)
    if options.json_path:
        _write(write_json, {"count": count, "generators": emitted}, options.json_path)
    return 0


def verify(options) -> int:
    """Run named checks over a family; exit 1 on any counterexample."""
    job = _family_job(options, options.resume_token)
    try:
        check_names = validate_checks(name for name in options.checks.split(",") if name)
    except ValueError as exc:
        raise UsageError(f"--checks: {exc}") from exc

    def progress(done: int, token: str) -> None:
        print(f"checked {done} (token {token})", file=sys.stderr)

    summary = run_verification(job, check_names, progress=progress)
    for name in check_names:
        print(f"{name}: {summary.pass_counts[name]}/{summary.total} pass")
    if summary.counterexamples:
        print(f"counterexamples: {len(summary.counterexamples)}")
        for record in summary.counterexamples:
            print("  " + ",".join(map(str, record.generators)))
    else:
        print("no counterexamples")
    if options.json_path:
        _write(write_json, summary.to_json_dict(), options.json_path)
    return 1 if summary.counterexamples else 0


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Exact computations on numerical semigroups."
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run, name=None) -> argparse.ArgumentParser:
        sub = commands.add_parser(name or run.__name__, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run, parser=sub)
        return sub

    def family_options(sub) -> None:
        sub.add_argument("--genus-max", type=int)
        sub.add_argument("--frobenius", type=int)
        sub.add_argument(
            "--filter", dest="filters", default="", metavar="NAMES",
            help="Comma list: " + ",".join(FILTERS),
        )

    sub = command(analyze)
    sub.add_argument("generators", metavar="GENERATORS")
    sub.add_argument("--bound", type=int, help="Exponent truncation bound.")
    sub.add_argument("--json", dest="json_path", metavar="PATH")
    sub.add_argument("--dot", dest="dot_path", metavar="PATH")

    sub = command(exponents)
    sub.add_argument("generators", metavar="GENERATORS")
    sub.add_argument("--count", type=int, required=True, help="How many entries to print.")
    sub.add_argument("--csv", dest="csv_path", metavar="PATH")
    sub.add_argument("--json", dest="json_path", metavar="PATH")

    sub = command(betti)
    sub.add_argument("generators", metavar="GENERATORS")
    sub.add_argument("--dot", dest="dot_path", metavar="PATH")
    sub.add_argument("--json", dest="json_path", metavar="PATH")

    sub = command(enumerate_family, "enumerate")
    family_options(sub)
    sub.add_argument("--count-only", action="store_true")
    sub.add_argument("--json", dest="json_path", metavar="PATH")

    sub = command(verify)
    family_options(sub)
    sub.add_argument("--checks", required=True, metavar="NAMES", help="Comma list: " + ",".join(CHECKS))
    sub.add_argument("--resume", dest="resume_token", metavar="TOKEN", help="Token from a previous run.")
    sub.add_argument("--json", dest="json_path", metavar="PATH")
    return parser


def main(args: list[str] | None = None, prog_name: str = "nsg"):
    """Run one subcommand and end the process with its exit status.

    ``args`` defaults to the command line and ``prog_name`` names the
    program in usage lines. Every outcome raises SystemExit, with the
    status the module docstring lists, so the console script,
    ``python -m nsg.cli`` and an in-process caller see the same code.

    When ``args`` is None the run owns the process: once the command returns
    its status, it calls :func:`gc.freeze`, so the exit-time collections skip
    every object already loaded. Module teardown, file closing and atexit
    handlers run as before. A caller that passes ``args`` owns its heap, and
    nothing in it is frozen.
    """
    parser = _parser(prog_name)
    options = parser.parse_args(args)
    try:
        for name in ("json_path", "dot_path", "csv_path"):
            path = getattr(options, name, None)
            if path:  # fail before the work
                _write(_probe, None, path)
        status = options.run(options)
        sys.stdout.flush()  # inside the try: a closed pipe fails here, not at exit
    except UsageError as exc:
        options.parser.error(str(exc))
    except BrokenPipeError:
        # The reader went away (`nsg enumerate ... | head -1`). Exit 1 without
        # a traceback; stdout goes to devnull so the interpreter's last flush
        # cannot fail again (Python docs, signal module, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    if args is None:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
