"""Command-line entry point.

Subcommands expose classification, the catalog, orbit classes, the
parity obstruction, witness search and the Monte Carlo estimators, all
with machine-readable output.  Exit codes: 0 success, 1 parse or domain
error, 2 degenerate input.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from .errors import CatalogError, DegenerateTable, DomainError
from .experiments import (
    SamplerConfig,
    Witness,
    WitnessArchive,
    estimate_2d_reversal,
    estimate_3d_conversion,
    search_witness,
)
from .feasibility import obstructing_vertices, write_feasibility_report
from .symmetry import key_rows, orbit_classes
from .tables import (
    Diagonal2D,
    Table2,
    Table3,
    classify_2d,
    correlation_profile,
    eval_form_signs,
    load_table,
    parse_rational,
)
from .triangulation import catalog_to_json_obj, classify_exact, get_catalog

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_DEGENERATE = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the domain-error code."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER_ERROR, f"{self.prog}: error: {message}\n")


# A command's JSON payload (None if unused) and text summary, or None.
Result = tuple[dict | list | None, str] | None


def _classification_report(table: Table3) -> dict:
    tri = classify_exact(table)
    profile = correlation_profile(table)
    return {
        "canonicalId": tri.canonical_id,
        "tetrahedra": [list(t.vertices) for t in tri.tetrahedra],
        "constraints": {letter: sign for letter, sign in sorted(tri.constraints)},
        "formSigns": eval_form_signs(table).as_dict(),
        "features": {
            "faceDiagonals": [list(d) for d in tri.face_diagonals],
            "fullVertices": list(tri.full_vertices),
            "emptyVertices": list(tri.empty_vertices),
            "hasHyperdiagonal": tri.has_hyperdiagonal,
            "typeClass": tri.type_class,
            "orbitRepresentative": tri.orbit_rep,
        },
        "correlationProfile": profile.as_dict(),
    }


def cmd_classify(args: argparse.Namespace) -> Result:
    table = load_table(args.table, allow_zero=args.smoothing is not None)
    report: dict = {"input": args.table}
    if args.smoothing is not None:
        eps = parse_rational(args.smoothing)
        table = table.smoothed(eps)
        report["smoothing"] = str(eps)
    if isinstance(table, Table2):
        verdict = classify_2d(table)
        if verdict is Diagonal2D.DEGENERATE:
            raise DegenerateTable("the 2x2 table's diagonal products are equal")
        report["kind"] = "2x2"
        report["diagonal"] = verdict.value
        summary = f"2x2 table: {verdict.value}"
    else:
        report["kind"] = "2x2x2"
        report.update(_classification_report(table))
        summary = (
            f"triangulation {report['canonicalId']}"
            f" (type {report['features']['typeClass']},"
            f" {len(report['tetrahedra'])} tetrahedra)"
        )
    return report, summary


def cmd_catalog(args: argparse.Namespace) -> Result:
    catalog = get_catalog()
    return catalog_to_json_obj(catalog), f"{len(catalog.entries)} triangulations"


def cmd_orbits(args: argparse.Namespace) -> Result:
    classes = orbit_classes(args.arity, get_catalog())
    # The members are built only for the JSON payload.
    payload = None if args.format == "text" else [
        {
            "representative": list(cls.representative),
            "size": cls.size,
            "members": [list(m) for m in cls.members],
        }
        for cls in classes
    ]
    return payload, f"{len(classes)} classes"


def cmd_feasibility(args: argparse.Namespace) -> Result:
    if args.pair is not None and args.triple is not None:
        raise DomainError("feasibility takes at most one of --pair or --triple")
    catalog = get_catalog()
    kind = "pair" if args.pair is not None else "triple"
    key = args.pair if args.pair is not None else args.triple
    if key is not None:
        if args.arity is not None:
            raise DomainError("--arity applies only to the report, not to a --pair or --triple")
        # The key as given, not its class representative, names the vertex.
        (vertex,) = obstructing_vertices(catalog, key_rows([key], catalog)).tolist()
        witness = vertex if vertex >= 0 else None
        payload = {kind: list(key), "obstructed": witness is not None, "obstructingVertex": witness}
        return payload, "not obstructed" if witness is None else f"obstructed at vertex {vertex}"
    if args.format not in (None, "csv"):
        raise DomainError(f"the feasibility report is CSV; --format {args.format} does not apply")
    if args.out is None:
        raise DomainError("the feasibility report requires --out PATH")
    pair_classes = orbit_classes(2, catalog) if args.arity in (None, 2) else ()
    triple_classes = orbit_classes(3, catalog) if args.arity in (None, 3) else ()
    write_feasibility_report(args.out, catalog, pair_classes, triple_classes)
    return None


def cmd_search(args: argparse.Namespace) -> Result:
    if (args.pair is None) == (args.triple is None):
        raise DomainError("search requires exactly one of --pair or --triple")
    key = tuple(args.pair) if args.pair is not None else tuple(args.triple)
    archive = None
    if args.archive is not None:
        archive = WitnessArchive(args.archive, len(key))
        archive.check_directory()
    result = search_witness(key, SamplerConfig(seed=args.seed), budget=args.budget)
    class_key = list(result.class_key)
    if isinstance(result, Witness):
        if archive is not None:
            archive.append([result])
        payload = {
            "status": "witness",
            "classKey": class_key,
            "f": [str(x) for x in result.f.entries],
            "g": [str(x) for x in result.g.entries],
            "verifiedAt": result.verified_at,
        }
        return payload, f"witness found for class {result.class_key}"
    payload = {"status": "exhausted", "classKey": class_key, "attempts": result.attempts}
    summary = f"budget exhausted for class {result.class_key} after {result.attempts} attempts"
    return payload, summary


def cmd_montecarlo(args: argparse.Namespace) -> Result:
    estimator = estimate_2d_reversal if args.dim == 2 else estimate_3d_conversion
    estimate = estimator(SamplerConfig(seed=args.seed, worker_count=args.workers), args.samples)
    lines = [
        f"{key}: {estimate.estimates[key]:.6f} (se {estimate.standard_errors[key]:.6f},"
        f" target {estimate.targets[key]})"
        for key in sorted(estimate.counts)
    ]
    lines.append(f"discarded {estimate.degenerate_discards} of {estimate.sample_count}")
    return estimate.to_json_obj(), "\n".join(lines)


def _add_common(
    parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "text")
) -> None:
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--out", default=None, help="write output to this path")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10**6)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count; it selects the random streams and is recorded as workerCount",
    )
    _add_common(parser)


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("table", help="path to a table JSON file")
    p.add_argument(
        "--smoothing",
        default=None,
        metavar="EPS",
        help="allow zero entries and add this rational to every cell first",
    )
    _add_common(p)
    p.set_defaults(func=cmd_classify)


def _catalog_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.set_defaults(func=cmd_catalog)


def _orbits_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arity", type=int, choices=(1, 2, 3), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_orbits)


def _feasibility_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", nargs=2, type=int, metavar=("A", "B"))
    p.add_argument("--triple", nargs=3, type=int, metavar=("A", "B", "C"))
    p.add_argument("--arity", type=int, choices=(2, 3), default=None)
    _add_common(p, ("json", "csv", "text"))
    # No default format: a verdict defaults to json, the report is always CSV.
    p.set_defaults(func=cmd_feasibility, format=None)


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", nargs=2, type=int, metavar=("A", "B"))
    p.add_argument("--triple", nargs=3, type=int, metavar=("A", "B", "C"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="not read: each class draws its starts from a stream of its own",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=10**7,
        help=(
            "loss-and-gradient evaluations of the witness descent per class; an"
            " exhausted search has spent all of them"
        ),
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--out", dest="archive", metavar="OUT", help="append the witness to this CSV archive"
    )
    p.set_defaults(func=cmd_search)


def _montecarlo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    _add_sampling(p)
    p.set_defaults(func=cmd_montecarlo)


def _reversal_arguments(p: argparse.ArgumentParser) -> None:
    _add_sampling(p)
    p.set_defaults(func=cmd_montecarlo, dim=2)


# Each subcommand's help line and the function adding its arguments and command.
SUBCOMMANDS = {
    "classify": ("classify a table file by its induced triangulation", _classify_arguments),
    "catalog": ("emit the 74-entry triangulation catalog", _catalog_arguments),
    "orbits": ("orbit classes of ids, pairs or triples", _orbits_arguments),
    "feasibility": ("parity obstruction verdicts and reports", _feasibility_arguments),
    "search": ("search an exact witness for a class key", _search_arguments),
    "montecarlo": ("frequency estimates from random tables", _montecarlo_arguments),
    "reversal": ("2x2 association reversal frequency", _reversal_arguments),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process: a parse reads it and
    returns a fresh namespace, so one parser serves every call."""
    parser = _Parser(prog="simpson3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its JSON or text result to stdout or ``--out``."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    out = getattr(args, "out", None)
    try:
        # A missing directory is found before the command runs, not after.
        if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise OSError(errno.ENOENT, f"cannot write {out}: its directory does not exist")
        result = args.func(args)
        if result is not None:
            payload, summary = result
            if args.format not in (None, "json", "text"):
                raise DomainError(f"format {args.format!r} is not supported by this command")
            text = summary if args.format == "text" else json.dumps(payload, indent=2)
            if out is None:
                sys.stdout.write(text + "\n")
            else:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
        return EXIT_OK
    except DegenerateTable as exc:
        sys.stderr.write(f"degenerate: {exc}\n")
        return EXIT_DEGENERATE
    except (DomainError, CatalogError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
