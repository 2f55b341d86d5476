"""The hand-written parser of ``stablepi1.cli`` against the argparse parser it
replaced (``reference_cli_parser``).  Both must agree on every argument
list of two corpora: whether it is refused (exit 2), answered with help
(exit 0) or parsed, and when parsed on the command, the scenario, the
format, the raw ``--max-cosets`` string and the catalogue directory.

The words are the four subcommands, values, each option spelled out, with
``=value`` and as a unique prefix, an unknown long and short option and
``--``.  ``-h`` with more letters attached (``-hh``, ``-hx``) is left out:
argparse 3.13.0 reads it differently from 3.10-3.12.1, whose reading the
CLI keeps (``test_cli.py`` pins it).  Both corpora agree on 3.10.13,
3.11.7, 3.12.1 and 3.13.0.
"""

import contextlib
import io
import itertools
import random

from reference_cli_parser import build_parser

from stablepi1.cli import UsageExit, parse_args

COMMANDS = ["list", "run", "verify-all", "snf"]
WORDS = [
    *COMMANDS,
    "P1", "json", "md", "xml", "0", "-3", "DIR",
    "--catalogue-dir", "--catalogue-dir=DIR", "--cat",
    "--format", "--format=json", "--form",
    "--max-cosets", "--max-cosets=-3", "--max",
    "--frobnicate", "-x", "--",
]
# the random corpus also asks for help and tries empty, spaced and odd values
MORE_WORDS = [
    *WORDS,
    "-h", "--help", "--he", "--format=xml", "--form=md", "--cat=", "--m=5",
    "--=x", "-", "", "-3.5", "a b", "--f=x y",
]


def reference_outcome(parser, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code
    return ns.command, getattr(ns, "scenario", None), ns.format, ns.max_cosets, ns.catalogue_dir


def outcome(argv):
    try:
        args = parse_args(argv)
    except UsageExit as exc:
        return exc.status
    return args.command, args.scenario, args.format, args.max_cosets, args.catalogue_dir


def disagreements(corpus):
    parser = build_parser()
    found = []
    for argv in corpus:
        want, got = reference_outcome(parser, list(argv)), outcome(list(argv))
        if got != want:
            found.append((argv, want, got))
    return found


def test_every_short_argument_list_parses_as_argparse_did():
    corpus = [argv for n in range(4) for argv in itertools.product(WORDS, repeat=n)]
    assert len(corpus) == 1 + 23 + 23**2 + 23**3
    assert disagreements(corpus)[:10] == []


def test_seeded_argument_lists_parse_as_argparse_did():
    rng = random.Random(20)
    corpus = []
    for _ in range(3000):
        argv = [rng.choice(MORE_WORDS) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.8:  # most lists name a command, not always first
            argv.insert(rng.randint(0, min(1, len(argv))), rng.choice(COMMANDS))
        corpus.append(argv)
    parsed = [argv for argv in corpus if not isinstance(outcome(argv), int)]
    assert len(parsed) > 300  # the corpus is not all errors
    assert disagreements(corpus)[:10] == []
