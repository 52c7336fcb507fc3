"""Command-line workbench.

Subcommands: ``analyze`` (one-semigroup report), ``exponents`` (print the
expansion exponents), ``betti`` (Betti structure), ``enumerate`` (families by
genus or Frobenius number, with filters), ``verify`` (batch checks over a
family). Exit status 0 means every requested check passed, 1 signals a
counterexample, 2 a usage error. ``verify`` walks its family serially, in
this process.
"""

from __future__ import annotations

import sys

import click

from .analysis import SemigroupAnalysis
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


def _parse_semigroup(text: str) -> NumericalSemigroup:
    try:
        return NumericalSemigroup.parse(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _family_job(genus_max, frobenius, filters: str, resume_token=None) -> EnumerationJob:
    """The job for exactly one of --genus-max, --frobenius; bad input is a usage error."""
    if (genus_max is None) == (frobenius is None):
        raise click.UsageError("pass exactly one of --genus-max, --frobenius")
    filter_names = tuple(name for name in filters.split(",") if name)
    try:
        if genus_max is not None:
            return EnumerationJob("by-genus", genus_max, filter_names, resume_token)
        return EnumerationJob("by-frobenius", frobenius, filter_names, resume_token)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Exact computations on numerical semigroups."""


@main.command()
@click.argument("generators")
@click.option("--bound", type=int, default=None, help="Exponent truncation bound.")
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
def analyze(generators, bound, json_path, dot_path):
    """Full structural report for one semigroup, e.g. `nsg analyze 4,6,9`."""
    if bound is not None and bound < 1:
        raise click.UsageError("--bound must be >= 1")
    S = _parse_semigroup(generators)
    analysis = SemigroupAnalysis(S)
    catalog = analysis.betti
    sequence = analysis.sequence if bound is None else exponent_sequence(S, bound)
    flags = analysis.classification
    click.echo(f"generators: {', '.join(map(str, S.generators))}")
    click.echo(f"frobenius: {S.frobenius}   genus: {S.genus}   multiplicity: {S.multiplicity}")
    click.echo(f"gaps: {', '.join(map(str, S.gaps)) or '-'}")
    click.echo(f"symmetric: {S.is_symmetric()}")
    click.echo(f"cyclotomic: {analysis.cyclotomic}")
    ci = analysis.complete_intersection
    click.echo(f"complete intersection: {ci}")
    if ci:
        tree = gluing_decompose(S)
        click.echo(f"gluing tree: {dumps_json(tree.to_json()).strip()}")
    if catalog:
        click.echo("betti elements (element: classes, isolated):")
        for b, data in catalog.items():
            click.echo(f"  {b}: nc={data.nc}, isolated={data.isolated_count}")
    else:
        click.echo("betti elements: none")
    click.echo(f"classification: {flags.to_json_dict()}")
    click.echo(f"exponents ({sequence.bound} entries): {sequence.format()}")
    if json_path:
        record = build_report(analysis)
        write_json(record.to_json_dict(), json_path)
        click.echo(f"wrote {json_path}", err=True)
    if dot_path:
        diagram = analysis.betti_order.hasse()
        write_dot(diagram.to_dot(), dot_path)
        click.echo(f"wrote {dot_path}", err=True)


@main.command()
@click.argument("generators")
@click.option("--count", type=int, required=True, help="How many entries to print.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
def exponents(generators, count, csv_path, json_path):
    """Print the first COUNT exponent-sequence entries, comma separated."""
    if count < 1:
        raise click.UsageError("--count must be >= 1")
    S = _parse_semigroup(generators)
    sequence = exponent_sequence(S, count)
    click.echo(sequence.format())
    if csv_path:
        write_csv([list(sequence)], csv_path)
    if json_path:
        write_json(sequence.to_json(), json_path)


@main.command()
@click.argument("generators")
@click.option("--dot", "dot_path", type=click.Path(), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
def betti(generators, dot_path, json_path):
    """Betti elements with class structure and cover relations."""
    analysis = SemigroupAnalysis(_parse_semigroup(generators))
    catalog = analysis.betti
    subset = analysis.betti_order
    diagram = subset.hasse()
    if not catalog:
        click.echo("no betti elements")
    for b, data in catalog.items():
        click.echo(f"{b}: nc={data.nc}, isolated={data.isolated_count}")
    if diagram.covers:
        click.echo("covers: " + ", ".join(f"{a}->{b}" for a, b in diagram.covers))
    click.echo(f"forest: {diagram.is_forest}")
    click.echo("chain-downset part: " + (", ".join(map(str, subset.u_set())) or "-"))
    if dot_path:
        write_dot(diagram.to_dot(), dot_path)
    if json_path:
        write_json(
            {
                "betti": {str(b): [d.nc, d.isolated_count] for b, d in catalog.items()},
                "covers": [list(c) for c in diagram.covers],
                "forest": diagram.is_forest,
            },
            json_path,
        )


@main.command(name="enumerate")
@click.option("--genus-max", type=int, default=None)
@click.option("--frobenius", type=int, default=None)
@click.option("--filter", "filters", default="", help="Comma list: " + ",".join(FILTERS))
@click.option("--count-only", is_flag=True, default=False)
@click.option("--json", "json_path", type=click.Path(), default=None)
def enumerate_cmd(genus_max, frobenius, filters, count_only, json_path):
    """Stream a family of semigroups (generator lists) or just count it."""
    job = _family_job(genus_max, frobenius, filters)
    count = 0
    emitted = []
    for S in enumerate_job(job):
        count += 1
        if not count_only:
            click.echo(",".join(map(str, S.generators)))
        if json_path:
            emitted.append(list(S.generators))
    if count_only:
        click.echo(str(count))
    if json_path:
        write_json({"count": count, "generators": emitted}, json_path)


@main.command()
@click.option("--genus-max", type=int, default=None)
@click.option("--frobenius", type=int, default=None)
@click.option("--checks", required=True, help="Comma list: " + ",".join(CHECKS))
@click.option("--filter", "filters", default="")
@click.option("--resume", "resume_token", default=None, help="Token from a previous run.")
@click.option("--json", "json_path", type=click.Path(), default=None)
def verify(genus_max, frobenius, checks, filters, resume_token, json_path):
    """Run named checks over a family; exit 1 on any counterexample."""
    job = _family_job(genus_max, frobenius, filters, resume_token)
    try:
        check_names = validate_checks(name for name in checks.split(",") if name)
    except ValueError as exc:
        raise click.UsageError(f"--checks: {exc}")

    def progress(done: int, token: str | None) -> None:
        click.echo(f"checked {done}" + ("" if token is None else f" (token {token})"), err=True)

    summary = run_verification(job, check_names, progress=progress)
    for name in check_names:
        click.echo(f"{name}: {summary.pass_counts[name]}/{summary.total} pass")
    if summary.counterexamples:
        click.echo(f"counterexamples: {len(summary.counterexamples)}")
        for record in summary.counterexamples:
            click.echo("  " + ",".join(map(str, record.generators)))
    else:
        click.echo("no counterexamples")
    if json_path:
        write_json(summary.to_json_dict(), json_path)
    if summary.counterexamples:
        sys.exit(1)


if __name__ == "__main__":
    main()
