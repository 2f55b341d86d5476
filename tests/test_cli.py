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


def test_import_adds_no_slow_stdlib_modules():
    """``import stablepi1.cli`` loads none of dataclasses (which imports
    inspect) and fractions (which imports decimal) beyond what a bare
    interpreter has loaded: those imports once dominated start-up."""
    script = (
        "import sys; bare = set(sys.modules); import stablepi1.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    extra = set(proc.stdout.split())
    assert "stablepi1.cli" in extra
    assert extra & {"dataclasses", "fractions", "decimal", "inspect"} == set()


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
