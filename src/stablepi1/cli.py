"""Command-line front end: list, run and verify scenarios, print Smith forms.

    stablepi1 {list | run <id> | verify-all | snf} [--catalogue-dir DIR]
              [--format json|md] [--max-cosets N]

Options follow the subcommand, as ``--opt value`` or ``--opt=value``, and a
unique prefix names an option (``--form json``); ``-h``/``--help`` prints
usage to stdout, before or after the subcommand.  The parser is written by
hand: it accepts and refuses the argument lists that the ``argparse``
parser it replaced did under Python 3.11, and reads them the same way.
A value may be a negative number or contain a space, but not look like an
option; after ``--`` every word is a positional, and ``--opt=--`` gives the
value ``--``.  ``--catalogue-dir`` is read as a ``Path``, so ``./cat/``
names ``cat`` in every message.

Exit codes: 0 success / all pass / help, 1 verification failure, 2 usage or
input error, a catalogue directory without scenario files included, 141 when
the reader closes standard output early (nothing goes to stderr then).  A
usage error prints a ``usage: stablepi1 ...`` line to stderr.  A scenario
file is named after its id: ``run <id>`` reads ``<id>.scn`` alone, and a
file whose id is not its name fails ``verify-all`` and stops ``list``.
``STABLEPI1_MAX_COSETS`` overrides the default coset limit.

Start-up stays short: this module imports neither ``argparse`` nor ``json``
(loaded only to write a JSON document) nor ``pathlib`` (loaded by the
functions that build paths), so ``python -S -m stablepi1`` starts on a bare
interpreter.
"""

import os
import sys

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


def _print_json(document):
    import json

    print(json.dumps(document, indent=2))


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
    from pathlib import Path

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
        _print_json(report.to_dict())
    else:
        print(_report_md(report))
    return 0 if report.passed else 1


def _cmd_verify_all(args):
    reports, summary = verify_catalogue(args.catalogue_dir, max_cosets=args.max_cosets)
    if args.format == "json":
        _print_json(
            {
                "reports": [r.to_dict() for r in reports],
                "passed": summary["passed"],
                "total": summary["total"],
            }
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
        _print_json(
            {
                "d": snf.d.to_rows(),
                "u": snf.u.to_rows(),
                "v": snf.v.to_rows(),
                "diagonal": list(snf.diagonal()),
            }
        )
    else:
        print("D =")
        print(snf.d)
        print("U =")
        print(snf.u)
        print("V =")
        print(snf.v)
    return 0


_COMMANDS = {
    "list": "print scenario ids and expected groups",
    "run": "run one scenario and print its report",
    "verify-all": "run every scenario; exit 0 iff all pass",
    "snf": "Smith normal form of an integer matrix read from stdin",
}
_HELP = ("-h", "--help")
_OPTIONS = (*_HELP, "--catalogue-dir", "--format", "--max-cosets")
_FORMATS = ("json", "md")


class UsageExit(Exception):
    """``parse_args`` found help (status 0, text for stdout) or a usage
    error (status 2, text for stderr)."""

    def __init__(self, status, text):
        super().__init__(text)
        self.status = status
        self.text = text


class Args:
    """A parsed command line; ``max_cosets`` is still the raw string."""

    __slots__ = ("command", "scenario", "catalogue_dir", "format", "max_cosets")

    def __init__(self, command):
        self.command = command
        self.scenario = None
        self.catalogue_dir = None
        self.format = "md"
        self.max_cosets = None


def _usage(command):
    if command is None:
        return "usage: stablepi1 [-h] {list,run,verify-all,snf} ..."
    line = (
        f"usage: stablepi1 {command} [-h] [--catalogue-dir DIR] [--format {{json,md}}]"
        " [--max-cosets N]"
    )
    return line + " scenario" if command == "run" else line


def _error(command, message):
    prog = "stablepi1" if command is None else f"stablepi1 {command}"
    return UsageExit(2, f"{_usage(command)}\n{prog}: error: {message}")


def _help_text(command):
    if command is None:
        commands = "\n".join(f"  {name:12}{text}" for name, text in _COMMANDS.items())
        return (
            f"{_usage(None)}\n\n"
            "Exact fundamental-group verification for the bundled surface catalogue.\n\n"
            f"commands:\n{commands}\n\n"
            "options:\n  -h, --help  show this help message and exit\n\n"
            "The options of a command follow it: stablepi1 <command> -h lists them."
        )
    scenario = "\npositional arguments:\n  scenario             scenario id; reads <id>.scn\n"
    return (
        f"{_usage(command)}\n\n{_COMMANDS[command]}\n"
        f"{scenario if command == 'run' else ''}\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --catalogue-dir DIR  scenario directory\n"
        f"                       (default: bundled catalogue at {bundled_catalogue_dir()})\n"
        "  --format {json,md}   report format (default: md)\n"
        "  --max-cosets N       coset limit\n"
        f"                       (default: $STABLEPI1_MAX_COSETS, else {DEFAULT_MAX_COSETS})\n\n"
        "An option is written --opt value or --opt=value, or shortened to a unique prefix."
    )


def _is_negative_number(tok):
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final newline
    body = tok[1:-1] if tok.endswith("\n") else tok[1:]
    whole, dot, frac = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (not whole or whole.isdecimal())


def _classify(tok, names, command):
    """How argparse reads ``tok`` (not ``--``) given the option ``names``:
    None for a positional, else (the option named, or None for an unknown
    one; the value attached to it, or None)."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok in names:
        return tok, None
    name, eq, value = tok.partition("=")
    if eq and name in names:
        return name, value
    if tok[1] == "-":
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise _error(command, f"ambiguous option: {tok} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif tok.startswith("-h"):
        return "-h", tok[2:]
    if _is_negative_number(tok) or " " in tok:
        return None
    return None, None


def _help(command, option, value):
    # -h takes no value, but argparse reads -hh as -h -h
    if value is None or (option == "-h" and value and not value.strip("h")):
        raise UsageExit(0, _help_text(command))
    raise _error(command, f"argument -h/--help: ignored explicit argument {value!r}")


def parse_args(argv):
    """The ``Args`` of a command line, read as argparse read it for this
    grammar; raises ``UsageExit`` for help and for a usage error.  Unknown
    options and surplus words are reported only if nothing else is wrong,
    so ``-h`` after them still prints help."""
    unrecognized = []
    for i, tok in enumerate(argv):
        hit = None if tok == "--" else _classify(tok, _HELP, None)
        if hit is None:
            break
        if hit[0] is None:
            unrecognized.append(tok)
        else:
            _help(None, *hit)
    else:
        raise _error(None, "the following arguments are required: command")
    # argparse keeps a '--' before the command as the command's name
    if tok not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _error(None, f"argument command: invalid choice: {tok!r} (choose from {choices})")
    args = Args(tok)
    rest = argv[i + 1 :]
    end = rest.index("--") if "--" in rest else len(rest)
    # every word before '--' is read before any is acted on: an ambiguous
    # prefix is an error even after -h
    readings = [_classify(word, _OPTIONS, args.command) for word in rest[:end]]
    need_scenario = args.command == "run"
    k = 0
    while k < len(rest):
        tok = rest[k]
        hit = readings[k] if k < end else None
        k += 1
        if hit is None:
            if k - 1 == end:  # the '--': every word after it is positional
                if need_scenario and k < len(rest):
                    args.scenario, need_scenario = rest[k], False
                    k += 1
                    continue
            elif need_scenario:
                args.scenario, need_scenario = tok, False
                k += k == end  # a '--' right after the scenario goes with it
                continue
            unrecognized.append(tok)
            continue
        option, value = hit
        if option is None:
            unrecognized.append(tok)
            continue
        if option in _HELP:
            _help(args.command, option, value)
        if value is None:
            if k >= end or readings[k] is not None:
                raise _error(args.command, f"argument {option}: expected one argument")
            value = rest[k]
            k += 1
        if option == "--format":
            if value not in _FORMATS:
                message = f"argument --format: invalid choice: {value!r} (choose from 'json', 'md')"
                raise _error(args.command, message)
            args.format = value
        elif option == "--catalogue-dir":
            from pathlib import Path

            args.catalogue_dir = Path(value)
        else:
            args.max_cosets = value
    if need_scenario:
        raise _error(args.command, "the following arguments are required: scenario")
    if unrecognized:
        raise _error(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageExit as exc:
        print(exc.text, file=sys.stderr if exc.status else sys.stdout)
        return exc.status
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
    """``main`` as a program: a reader that closes the pipe early ends it
    with status 141 (128 + SIGPIPE), as it would a C program, not with a
    traceback."""
    try:
        status = main()
        sys.stdout.flush()  # short outputs are written only here
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 141
    raise SystemExit(status)
