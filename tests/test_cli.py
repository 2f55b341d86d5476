"""Command-line behaviour: formats, exit codes, stdin handling."""

import json
from pathlib import Path

import pytest

from stablepi1.cli import main


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
