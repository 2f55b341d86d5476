"""Reference argument parser for differential tests: the argparse parser
that ``stablepi1.cli`` used before its hand-written one, kept verbatim.
``parse_args`` of the returned parser gives a namespace with ``command``,
``scenario`` (``run`` only), ``format``, ``max_cosets`` (the raw string or
None) and ``catalogue_dir`` (a ``Path`` or None), or exits with status 2 on
a usage error and 0 after printing help.
"""

import argparse
from pathlib import Path

from stablepi1.fpgroup import DEFAULT_MAX_COSETS
from stablepi1.scenarios import bundled_catalogue_dir


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
