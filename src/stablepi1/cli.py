"""Command-line front end: list, run and verify scenarios, print Smith forms.

Exit codes: 0 success / all pass, 1 verification failure, 2 usage or input
error, a catalogue directory without scenario files included.  A scenario
file is named after its id: ``run <id>`` reads ``<id>.scn`` alone, and a
file whose id is not its name fails ``verify-all`` and stops ``list``.
``STABLEPI1_MAX_COSETS`` overrides the default coset limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .fpgroup import DEFAULT_MAX_COSETS
from .intlin import IntMatrix, smith_normal_form
from .scenarios import (
    ParseError,
    ValidationError,
    _int_token,
    bundled_catalogue_dir,
    load_catalogue,
    load_catalogue_file,
    run_scenario,
    verify_catalogue,
)


def _report_md(report):
    lines = [f"## {report.scenario}", ""]
    lines.append(f"- computed order: {report.order}")
    lines.append(f"- cyclic: {report.cyclic}")
    lines.append(f"- abelianization: {report.abelianization}")
    lines.append(f"- expected: order {report.expected_order}, cyclic {report.expected_cyclic}")
    lines.append(f"- verdict: **{report.verdict}**")
    lines.append(f"- elapsed: {report.elapsed_ms} ms")
    if report.presentation:
        lines.append(f"- presentation: `{report.presentation}`")
    for check in report.checks:
        lines.append(f"- check: {check}")
    if report.error:
        lines.append(f"- error: {report.error}")
    return "\n".join(lines)


def _table_md(reports):
    header = (
        "| id | computed | expected | cyclic | normal | smoothable | construction | verdict |"
    )
    rule = "|---|---|---|---|---|---|---|---|"
    rows = [header, rule]
    for r in reports:
        rows.append(
            "| {} | {} | {} | {} | {} | {} | {} | {} |".format(
                r.scenario,
                r.order if r.order is not None else "-",
                r.expected_order,
                {True: "yes", False: "no", None: "-"}[r.cyclic],
                r.meta.get("normal", "-"),
                r.meta.get("smoothable", "-"),
                r.meta.get("construction", "-"),
                r.verdict,
            )
        )
    return "\n".join(rows)


def _load_all(directory):
    try:
        return load_catalogue(directory)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_list(args):
    scenarios = _load_all(args.catalogue_dir)
    if scenarios is None:
        return 2
    for s in scenarios:
        cyc = "cyclic" if s.expected_cyclic else "non-cyclic"
        print(f"{s.id:8s} kind={s.kind:14s} expected |pi1| = {s.expected_order} ({cyc})")
    return 0


def _cmd_run(args):
    # the file named after the id, and no other: its siblings are not read
    sid = args.scenario
    path = args.catalogue_dir / f"{sid}.scn"
    if Path(sid).name != sid or not path.is_file():
        print(f"error: unknown scenario '{sid}'", file=sys.stderr)
        return 2
    try:
        scenario = load_catalogue_file(path)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(scenario, max_cosets=args.max_cosets)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_report_md(report))
    return 0 if report.passed else 1

def _cmd_verify_all(args):
    reports, summary = verify_catalogue(args.catalogue_dir, max_cosets=args.max_cosets)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "reports": [r.to_dict() for r in reports],
                    "passed": summary["passed"],
                    "total": summary["total"],
                },
                indent=2,
            )
        )
    else:
        print(_table_md(reports))
        print()
        print(f"{summary['passed']}/{summary['total']} scenarios pass")
    return 0 if summary["all_pass"] else 1


def _cmd_snf(args):
    data = sys.stdin.read().split("\n")
    rows = []
    for line in data:
        toks = line.split()
        if not toks:
            continue
        try:
            rows.append([_int_token(t) for t in toks])
        except ValueError:
            print("error: matrix entries must be integers", file=sys.stderr)
            return 2
    if not rows or len({len(r) for r in rows}) != 1:
        print("error: need a rectangular whitespace-separated integer matrix", file=sys.stderr)
        return 2
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "d": snf.d.to_rows(),
                    "u": snf.u.to_rows(),
                    "v": snf.v.to_rows(),
                    "diagonal": list(snf.diagonal()),
                },
                indent=2,
            )
        )
    else:
        print("D =")
        print(snf.d)
        print("U =")
        print(snf.u)
        print("V =")
        print(snf.v)
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--catalogue-dir",
        type=Path,
        default=None,
        help=f"scenario directory (default: bundled catalogue at {bundled_catalogue_dir()})",
    )
    common.add_argument("--format", choices=("json", "md"), default="md")
    common.add_argument(
        "--max-cosets",
        default=None,
        help=f"coset limit (default: $STABLEPI1_MAX_COSETS, else {DEFAULT_MAX_COSETS})",
    )
    parser = argparse.ArgumentParser(
        prog="stablepi1",
        description="Exact fundamental-group verification for the bundled surface catalogue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", parents=[common], help="print scenario ids and expected groups")
    run_p = sub.add_parser("run", parents=[common], help="run one scenario and print its report")
    run_p.add_argument("scenario")
    sub.add_parser(
        "verify-all", parents=[common], help="run every scenario; exit 0 iff all pass"
    )
    sub.add_parser(
        "snf", parents=[common], help="Smith normal form of an integer matrix read from stdin"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    source, limit = "--max-cosets", args.max_cosets
    if limit is None:
        source = "STABLEPI1_MAX_COSETS"
        limit = os.environ.get(source) or str(DEFAULT_MAX_COSETS)
    try:
        args.max_cosets = _int_token(limit, signed=False)
    except ValueError:
        args.max_cosets = 0
    if args.max_cosets < 1:
        print(f"error: {source} must be a positive integer, got {limit!r}", file=sys.stderr)
        return 2
    if args.command != "snf":
        directory = args.catalogue_dir = args.catalogue_dir or bundled_catalogue_dir()
        if not any(directory.glob("*.scn")):
            print(f"error: no scenario files in {directory}", file=sys.stderr)
            return 2
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "verify-all": _cmd_verify_all,
        "snf": _cmd_snf,
    }
    return handlers[args.command](args)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
