"""Command-line behaviour: formats, exit codes, stdin handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stablepi1.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# dataclasses imports inspect, fractions decimal, argparse gettext and re,
# pathlib re and fnmatch, re enum: each once weighed on start-up
SLOW_MODULES = {
    "dataclasses", "inspect", "fractions", "decimal",
    "argparse", "gettext", "json", "pathlib", "re", "enum",
}


def test_import_adds_no_slow_stdlib_modules():
    """``import stablepi1.cli`` loads no module of SLOW_MODULES beyond what
    the interpreter has loaded before it, with the site (which may load
    some of them itself) and under ``-S``, where nothing else has."""
    script = (
        "import sys; bare = set(sys.modules); import stablepi1.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    for flags in ([], ["-S"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=_src_env(), capture_output=True, text=True, check=True,
        )
        extra = set(proc.stdout.split())
        assert "stablepi1.cli" in extra
        assert extra & SLOW_MODULES == set(), flags


def test_verify_all_runs_without_the_site():
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "stablepi1", "verify-all", "--format", "json"],
        env=_src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] == payload["total"] == 23


@pytest.mark.parametrize(
    "argv", [["verify-all"], ["verify-all", "--format", "json"], ["run", "R3"], ["list"]]
)
def test_a_reader_that_quits_ends_with_status_141_and_no_traceback(argv):
    # the read end is closed before the program starts: its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stablepi1", *argv],
            stdout=write, stderr=subprocess.PIPE, env=_src_env(), text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_run_json(capsys):
    code, out, _err = run_cli(capsys, ["run", "P1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["verdict"] == "pass"
    assert payload["abelianization"] == {"free_rank": 0, "torsion": [4]}
    assert payload["expected"] == {"order": 4, "cyclic": True}
    assert set(payload) >= {
        "scenario",
        "order",
        "cyclic",
        "abelianization",
        "expected",
        "verdict",
        "elapsed_ms",
    }


def test_run_md(capsys):
    code, out, _err = run_cli(capsys, ["run", "B1"])
    assert code == 0
    assert "verdict: **pass**" in out


def test_unknown_scenario(capsys):
    code, _out, err = run_cli(capsys, ["run", "NOPE"])
    assert code == 2
    assert "unknown scenario" in err


def test_unknown_flag(capsys):
    code, _out, _err = run_cli(capsys, ["run", "P1", "--frobnicate"])
    assert code == 2


def test_list(capsys):
    code, out, _err = run_cli(capsys, ["list"])
    assert code == 0
    for sid in ("P1", "X1.5", "B2", "E4", "dP", "R5"):
        assert sid in out


def test_verify_all_passes(capsys):
    code, out, _err = run_cli(capsys, ["verify-all"])
    assert code == 0
    assert "23/23 scenarios pass" in out


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_verify_all_parses_each_file_once(capsys, monkeypatch, fmt):
    from stablepi1 import scenarios

    parsed = []
    parse_lines = scenarios._parse_lines

    def counting(path):
        parsed.append(path)
        return parse_lines(path)

    monkeypatch.setattr(scenarios, "_parse_lines", counting)
    code, out, _err = run_cli(capsys, ["verify-all", "--format", fmt])
    assert code == 0
    assert len(parsed) == len(set(parsed)) == 23
    if fmt == "md":
        assert "| B1 | 4 | 4 | yes | yes | yes | bi-elliptic quotient" in out


def test_verify_all_json(capsys):
    code, out, _err = run_cli(capsys, ["verify-all", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] == 23


def test_verify_all_failure_exit(capsys, tmp_path):
    import shutil

    from stablepi1.scenarios import bundled_catalogue_dir

    text = (bundled_catalogue_dir() / "R3.scn").read_text()
    (tmp_path / "R3.scn").write_text(text.replace("order 3", "order 4"))
    code, _out, _err = run_cli(
        capsys, ["verify-all", "--catalogue-dir", str(tmp_path)]
    )
    assert code == 1


def test_snf_stdin(capsys, monkeypatch):
    code, out, _err = run_cli(
        capsys, ["snf", "--format", "json"], stdin="1 1\n1 -1\n", monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"] == [1, 2]


def test_snf_bad_input(capsys, monkeypatch):
    code, _out, err = run_cli(
        capsys, ["snf"], stdin="1 x\n", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize("token", ["\u0662", "1_0", "+2", "\uff12"])
def test_snf_integers_are_ascii(capsys, monkeypatch, token):
    # int() would read each of these as an integer
    code, _out, err = run_cli(capsys, ["snf"], stdin=f"1 {token}\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "integer" in err


def test_max_cosets_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STABLEPI1_MAX_COSETS", "250000")
    code, _out, _err = run_cli(capsys, ["run", "X1.3"])
    assert code == 0


def test_max_cosets_must_be_positive(capsys):
    code, _out, err = run_cli(capsys, ["run", "P1", "--max-cosets", "0"])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_max_cosets_env_must_be_positive_int(capsys, monkeypatch, value):
    monkeypatch.setenv("STABLEPI1_MAX_COSETS", value)
    code, out, err = run_cli(capsys, ["run", "P1"])
    assert code == 2
    assert out == ""
    assert "STABLEPI1_MAX_COSETS" in err and repr(value) in err


@pytest.mark.parametrize("value", ["5_000", "+5000", "\u0665\u0660\u0660\u0660", "\uff15000"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_max_cosets_is_ascii(capsys, monkeypatch, source, value):
    # int() would read each of these as 5000
    argv = ["run", "P1"]
    if source == "flag":
        argv += ["--max-cosets", value]
    else:
        monkeypatch.setenv("STABLEPI1_MAX_COSETS", value)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    name = "--max-cosets" if source == "flag" else "STABLEPI1_MAX_COSETS"
    assert name in err and repr(value) in err


def test_max_cosets_flag_overrides_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("STABLEPI1_MAX_COSETS", "abc")
    code, _out, _err = run_cli(capsys, ["run", "P1", "--max-cosets", "100"])
    assert code == 0


DATA = Path(__file__).parent / "data"


def _without_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _without_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_without_elapsed(v) for v in obj]
    return obj


def test_verify_all_json_matches_golden_report(capsys):
    # tests/data/verify_all.json is `verify-all --format json` with every
    # elapsed_ms key removed; any other byte of the reports must not drift
    code, out, _err = run_cli(capsys, ["verify-all", "--format", "json"])
    assert code == 0
    got = json.dumps(_without_elapsed(json.loads(out)), indent=2) + "\n"
    assert got == (DATA / "verify_all.json").read_text(encoding="utf-8")


def test_verify_all_md_matches_golden_report(capsys):
    code, out, _err = run_cli(capsys, ["verify-all", "--format", "md"])
    assert code == 0
    assert out == (DATA / "verify_all.md").read_text(encoding="utf-8")


def _interpreter(minor):
    """The executable of Python 3.minor, or None.  ``python3.X`` on PATH may
    be a version manager's shim that fails or starts another version, so
    the candidate is asked for its own executable and version first."""
    import shutil

    found = shutil.which(f"python3.{minor}")
    if found is None:
        return None
    probe = subprocess.run(
        [found, "-S", "-c", "import sys; print(sys.executable, *sys.version_info[:2])"],
        capture_output=True, text=True,
    )
    out = probe.stdout.rsplit(maxsplit=2)  # executable, major, minor
    if probe.returncode or out[1:] != ["3", str(minor)]:
        return None
    return out[0]


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_reports_are_the_same_on_every_interpreter(minor):
    """verify-all on a bare Python 3.10 to 3.13 reproduces tests/data, under
    two hash seeds, so no report depends on the version or on the order of
    a string-keyed set."""
    exe = _interpreter(minor)
    if exe is None:
        pytest.skip(f"python3.{minor} is not installed")
    for seed in ("0", "4097"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        for fmt in ("json", "md"):
            proc = subprocess.run(
                [exe, "-S", "-m", "stablepi1", "verify-all", "--format", fmt],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            out = proc.stdout
            if fmt == "json":
                out = json.dumps(_without_elapsed(json.loads(out)), indent=2) + "\n"
            assert out == (DATA / f"verify_all.{fmt}").read_text(encoding="utf-8"), (exe, seed, fmt)


@pytest.mark.parametrize("command", ["verify-all", "list"])
@pytest.mark.parametrize("missing", [False, True])
def test_directory_without_scenarios_is_a_usage_error(capsys, tmp_path, command, missing):
    directory = tmp_path / "nonexistent" if missing else tmp_path
    code, out, err = run_cli(capsys, [command, "--catalogue-dir", str(directory)])
    assert code == 2
    assert f"no scenario files in {directory}" in err
    assert out == ""


@pytest.mark.parametrize("command, want", [("verify-all", 1), ("list", 2)])
def test_unreadable_scenario_file_is_reported_not_raised(capsys, tmp_path, command, want):
    # a directory named like a scenario file: the read fails even as root
    import shutil

    from stablepi1.scenarios import bundled_catalogue_dir

    shutil.copy(bundled_catalogue_dir() / "R3.scn", tmp_path / "R3.scn")
    (tmp_path / "x.scn").mkdir()
    code, out, err = run_cli(capsys, [command, "--catalogue-dir", str(tmp_path), "--format", "json"])
    assert code == want
    if command == "list":
        assert out == "" and err.startswith(f"error: {tmp_path / 'x.scn'}: cannot read: ")
    else:
        reports = {r["scenario"]: r for r in json.loads(out)["reports"]}
        assert reports["R3"]["verdict"] == "pass"
        assert reports["x"]["error"].startswith(f"ParseError: {tmp_path / 'x.scn'}: cannot read: ")
        assert "Traceback" not in err


def _catalogue_with(tmp_path, *names):
    import shutil

    from stablepi1.scenarios import bundled_catalogue_dir

    for name in names:
        shutil.copy(bundled_catalogue_dir() / f"{name}.scn", tmp_path / f"{name}.scn")


def test_run_reads_only_the_file_named_after_the_id(capsys, tmp_path):
    # a sibling that cannot be read does not stop another scenario's run
    _catalogue_with(tmp_path, "R3")
    (tmp_path / "x.scn").mkdir()
    code, out, err = run_cli(capsys, ["run", "R3", "--catalogue-dir", str(tmp_path)])
    assert code == 0 and err == ""
    assert "verdict: **pass**" in out


def test_a_file_not_named_after_its_id_is_refused(capsys, tmp_path):
    _catalogue_with(tmp_path, "B1")
    dup = tmp_path / "Zdup.scn"
    dup.write_text((tmp_path / "B1.scn").read_text())
    where = ["--catalogue-dir", str(tmp_path)]
    code, out, _err = run_cli(capsys, ["verify-all", "--format", "json", *where])
    assert code == 1
    reports = {r["scenario"]: r for r in json.loads(out)["reports"]}
    assert reports["B1"]["verdict"] == "pass"
    assert reports["Zdup"]["verdict"] == "fail"
    assert reports["Zdup"]["error"] == (
        f"ValidationError: {dup}: scenario id 'B1' does not match the file name"
    )
    code, out, err = run_cli(capsys, ["list", *where])
    assert code == 2 and out == ""
    assert err == f"error: {dup}: scenario id 'B1' does not match the file name\n"
    code, out, err = run_cli(capsys, ["run", "Zdup", *where])
    assert code == 2 and out == ""
    assert "does not match the file name" in err
    code, _out, _err = run_cli(capsys, ["run", "B1", *where])
    assert code == 0


def test_even_bitri_file_without_glue_is_refused_at_load(capsys, tmp_path):
    # the even case names its glue subgroup; without the line the file used
    # to load and list, and failed only when verify-all ran it
    _catalogue_with(tmp_path, "E2", "R3")
    e2 = tmp_path / "E2.scn"
    text = e2.read_text()
    assert "glue G1\n" in text
    e2.write_text(text.replace("glue G1\n", ""))
    message = f"{e2}: bad bi-tri-elliptic parameters: the even case needs a glue line (G1 or G2)"
    where = ["--catalogue-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, ["list", *where])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    code, out, _err = run_cli(capsys, ["verify-all", "--format", "json", *where])
    assert code == 1
    reports = {r["scenario"]: r for r in json.loads(out)["reports"]}
    assert reports["R3"]["verdict"] == "pass"
    assert reports["E2"]["verdict"] == "fail"
    assert reports["E2"]["error"] == f"ValidationError: {message}"


@pytest.mark.parametrize("sid", ["sub/R3", "../catalogue/R3", "R3/", ""])
def test_run_id_must_be_a_plain_file_name(capsys, tmp_path, sid):
    _catalogue_with(tmp_path, "R3")
    (tmp_path / "sub").mkdir()
    _catalogue_with(tmp_path / "sub", "R3")
    code, out, err = run_cli(capsys, ["run", sid, "--catalogue-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert f"unknown scenario '{sid}'" in err


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("command", [None, "list", "run", "verify-all", "snf"])
def test_help_prints_usage_and_exits_0(capsys, flag, command):
    argv = [flag] if command is None else [command, flag]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    if command is None:
        assert out.startswith("usage: stablepi1 [-h] {list,run,verify-all,snf} ...\n")
        for name in ("list", "run", "verify-all", "snf"):
            assert f"\n  {name} " in out
    else:
        assert out.startswith(f"usage: stablepi1 {command} [-h] ")
        for option in ("-h, --help", "--catalogue-dir DIR", "--format {json,md}", "--max-cosets N"):
            assert f"\n  {option} " in out
        assert out.split("\n", 1)[0].endswith(" scenario") == (command == "run")


def test_help_wins_over_a_later_unknown_option_but_not_an_earlier_error(capsys):
    # argparse acted on each word in turn and reported unknown words last
    code, out, _err = run_cli(capsys, ["run", "--frobnicate", "-h"])
    assert code == 0 and out.startswith("usage: stablepi1 run ")
    code, out, err = run_cli(capsys, ["run", "--format", "xml", "-h"])
    assert code == 2 and out == ""
    assert "invalid choice: 'xml'" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--format", "json", "list"],
        ["nope"],
        ["run"],
        ["run", "P1", "P2"],
        ["list", "P1"],
        ["run", "P1", "--frobnicate"],
        ["run", "P1", "-x"],
        ["run", "P1", "--catalogue-dir"],
        ["run", "P1", "--catalogue-dir", "--format"],
        ["run", "P1", "--format", "--max"],
        ["run", "P1", "--max-cosets", "--frobnicate"],
        ["list", "--format", "xml"],
        ["list", "--format=xml"],
        ["list", "--=json"],
        ["list", "--help=x"],
        ["list", "-hx"],
        ["-h=x"],
        ["--", "list"],
        ["list", "--"],
        ["list", "--format", "--", "json"],
    ],
)
def test_usage_errors_print_usage_and_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: stablepi1")


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (["run", "P1", "--format=json"], "json"),
        (["run", "P1", "--form", "json"], "json"),
        (["run", "P1", "--f=json"], "json"),
        (["run", "--format", "json", "P1"], "json"),
        (["run", "--format", "json", "--format", "md", "P1"], "md"),
        (["run", "--format", "json", "--", "P1"], "json"),
        (["run", "P1", "--"], "md"),
    ],
)
def test_option_forms(capsys, argv, fmt):
    code, out, _err = run_cli(capsys, argv)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["scenario"] == "P1"
    else:
        assert out.startswith("## P1\n")


def test_options_read_values_as_argparse_did(capsys):
    # a negative number is a value; -hh is -h twice
    code, out, err = run_cli(capsys, ["run", "P1", "--max-cosets", "-3"])
    assert code == 2 and out == ""
    assert err == "error: --max-cosets must be a positive integer, got '-3'\n"
    code, out, _err = run_cli(capsys, ["list", "-hh"])
    assert code == 0 and out.startswith("usage: stablepi1 list ")
    code, out, _err = run_cli(capsys, ["run", "--", "--"])
    assert code == 2 and out == ""


def test_catalogue_dir_is_normalised_as_a_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cat").mkdir()
    code, out, err = run_cli(capsys, ["list", "--catalogue-dir", "./cat/"])
    assert code == 2 and out == ""
    assert err == "error: no scenario files in cat\n"


@pytest.mark.parametrize(
    "option, message",
    [
        ("--format=--", "invalid choice: '--'"),
        ("--catalogue-dir=--", "error: no scenario files in --"),
        ("--max-cosets=--", "error: --max-cosets must be a positive integer, got '--'"),
    ],
)
def test_an_attached_double_dash_is_the_value(capsys, option, message):
    # the value is the word after '=', as in argparse 3.13; 3.10-3.12
    # dropped it and stored [] (--max-cosets=-- then raised a traceback)
    code, out, err = run_cli(capsys, ["list", option])
    assert code == 2 and out == ""
    assert message in err
