"""Scenario parsing, validation, runner behaviour, catalogue integrity."""

import random
import re
import shutil
import time

import pytest

from stablepi1 import fpgroup, torus
from stablepi1.scenarios import (
    BiTriPayload,
    ParseError,
    Scenario,
    ValidationError,
    VanKampenPayload,
    bundled_catalogue_dir,
    load_catalogue,
    load_scenario,
    run_scenario,
    verify_catalogue,
)
from test_fpgroup import enum_menu_groups, power_groups

EXPECTED_ORDERS = {
    "P1": 4,
    "P2": 1,
    "P3": 3,
    "X1.1": 1,
    "X1.2": 1,
    "X1.3": 3,
    "X1.4": 4,
    "X1.5": 5,
    "B1": 4,
    "B2": 3,
    "E1": 1,
    "E2": 2,
    "E3": 3,
    "E4": 4,
    "E5": 5,
    "E2red": 1,
    "E3red": 1,
    "E4red": 1,
    "E5red": 1,
    "dP": 1,
    "R3": 3,
    "R4": 4,
    "R5": 5,
}


def run_b1_variant(tmp_path, *replacements):
    """Run the bundled B1 scenario with each (old, new) text replaced."""
    text = (bundled_catalogue_dir() / "B1.scn").read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "B1.scn"
    path.write_text(text)
    return run_scenario(load_scenario(path))


class TestLoad:
    def test_bundled_p1(self):
        s = load_scenario(bundled_catalogue_dir() / "P1.scn")
        assert s.id == "P1"
        assert s.kind == "vankampen"
        assert isinstance(s.payload, VanKampenPayload)
        assert (s.expected_order, s.expected_cyclic) == (4, True)

    def test_bundled_e2(self):
        s = load_scenario(bundled_catalogue_dir() / "E2.scn")
        assert s.kind == "torus-lattice"
        assert isinstance(s.payload, BiTriPayload)
        assert (s.expected_order, s.expected_cyclic) == (2, True)

    def test_dangling_edge_rejected(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "meta\nid BAD\nkind vankampen\nexpected\norder 1\ncyclic yes\n"
            "complex dbar\nbasepoint P\nvertex P\nedge e P MISSING\n"
            "complex d\nbasepoint Q\nvertex Q\n"
            "map\nvertex P Q\nedge e -e\n"
        )
        with pytest.raises(ValidationError, match="dangling"):
            load_scenario(bad)

    def test_syntax_error_carries_line(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("meta\nid BAD\nkind vankampen\nexpected\norder nope\n")
        with pytest.raises(ParseError, match="bad.scn:5"):
            load_scenario(bad)

    def test_bare_vector_line_carries_line(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "meta\nid BAD\nkind torus-lattice\nexpected\norder 1\ncyclic yes\n"
            "torus\nmode cover\nvector\n"
        )
        with pytest.raises(ParseError, match="bad.scn:9"):
            load_scenario(bad)

    @pytest.mark.parametrize("line", ["edge e P Q", "cell e", "vertex P", "degphy 3"])
    def test_unknown_torus_key_carries_line(self, tmp_path, line):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "meta\nid BAD\nkind torus-lattice\nexpected\norder 1\ncyclic yes\n"
            f"torus\nmode bitri\n{line}\ndegphi 2\n"
        )
        key = line.split()[0]
        with pytest.raises(ParseError, match=f"bad.scn:9: unknown torus key '{key}'"):
            load_scenario(bad)

    def test_every_torus_key_of_the_catalogue_is_known(self):
        # a ParseError here would name the bundled file and line
        for path in sorted(bundled_catalogue_dir().glob("*.scn")):
            load_scenario(path)

    def test_unknown_kind(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("meta\nid BAD\nkind telepathy\nexpected\norder 1\ncyclic yes\n")
        with pytest.raises(ValidationError, match="kind"):
            load_scenario(bad)

    def test_node_relation_enforced(self, tmp_path):
        text = (bundled_catalogue_dir() / "P1.scn").read_text()
        tampered = text.replace("nodes 4", "nodes 5")
        bad = tmp_path / "P1.scn"
        bad.write_text(tampered)
        with pytest.raises(ValidationError):
            load_scenario(bad)

    def test_twist_must_match_params(self, tmp_path):
        text = (bundled_catalogue_dir() / "E5.scn").read_text()
        bad = tmp_path / "E5.scn"
        bad.write_text(text.replace("twist 5", "twist 4"))
        with pytest.raises(ValidationError, match="twist"):
            load_scenario(bad)

    @pytest.mark.parametrize(
        "name, old, new, token",
        [
            ("E1", "case odd\n", "case odd\nglue G7\n", "G7"),
            ("E2", "glue G1", "glue g1", "g1"),
        ],
    )
    def test_bad_glue_token_is_refused_at_load(self, tmp_path, name, old, new, token):
        # only G1 and G2 name a glue subgroup; any other token is an error,
        # in the odd case too, where a valid one would also be refused
        text = (bundled_catalogue_dir() / f"{name}.scn").read_text()
        assert old in text
        (tmp_path / f"{name}.scn").write_text(text.replace(old, new))
        with pytest.raises(ValidationError, match=f"glue must be G1 or G2, not '{token}'"):
            load_scenario(tmp_path / f"{name}.scn")
        reports, summary = verify_catalogue(tmp_path)
        assert summary == {"total": 1, "passed": 0, "all_pass": False}
        assert f"'{token}'" in reports[0].error

    @pytest.mark.parametrize(
        "name, old, new, line, what",
        [
            ("P1", "family P1", "family P1\nfamily P2", 9, "meta key family"),
            ("P1", "cyclic yes", "cyclic yes\ncyclic no", 19, "expected cyclic"),
            ("P1", "cell A B F G", "cell A B F G\ncomplex dbar", 45, "complex dbar"),
            ("P1", "basepoint Q2", "basepoint Q2\nbasepoint Q1", 22, "basepoint"),
            ("P1", "vertex Q1 Q", "vertex Q1 Q\nvertex Q1 Q", 48, "map vertex Q1"),
            # the last edge line once won: P1 then computed order 2 and failed
            ("P1", "edge a1 A", "edge a1 A\nedge a1 -B", 52, "map edge a1"),
            ("R3", "mode isogeny", "mode isogeny\nmode isogeny", 19, "torus scalar mode"),
            # the last matrix once won: R3 then ran on diag(1, 3) and passed
            ("R3", "-1 2", "-1 2\ntorus\nmatrix isogeny 2 2\n1 0\n0 3", 23, "matrix isogeny"),
            ("B1", "deck.translation 0 1 0 0", "deck.translation 0 1 0 0\n"
             "vector deck.translation 0 0 0 1", 57, "vector deck.translation"),
        ],
        ids=["meta", "expected", "complex", "basepoint", "map-vertex", "map-edge",
             "torus-scalar", "matrix", "vector"],
    )
    def test_a_name_defined_twice_is_refused(self, tmp_path, name, old, new, line, what):
        text = (bundled_catalogue_dir() / f"{name}.scn").read_text()
        assert text.count(old) == 1
        bad = tmp_path / f"{name}.scn"
        bad.write_text(text.replace(old, new))
        with pytest.raises(ParseError, match=re.escape(f"{bad}:{line}: {what} is defined twice")):
            load_scenario(bad)


class TestRun:
    def test_interleaved_lines_order_five(self):
        s = load_scenario(bundled_catalogue_dir() / "X1.5.scn")
        r = run_scenario(s)
        assert r.passed and r.order == 5 and r.cyclic

    def test_triple_diagonal_cover(self):
        s = load_scenario(bundled_catalogue_dir() / "B2.scn")
        r = run_scenario(s)
        assert r.passed and r.order == 3
        assert any("free action" in c for c in r.checks)
        assert any("3 points" in c for c in r.checks)

    def test_cover_group_with_fixed_point_rejected(self, tmp_path):
        # without its translation, the second generator of B1 fixes u = v = 0;
        # the group keeps order 4, so only the freeness check can reject it
        r = run_b1_variant(tmp_path, ("gen2.translation 0 1 0 0", "gen2.translation 0 0 0 0"))
        assert not r.passed
        assert r.error == "ValidationError: bi-elliptic group action is not free"

    def test_cover_deck_of_wrong_order_rejected(self, tmp_path):
        r = run_b1_variant(tmp_path, ("deck_order 4", "deck_order 2"))
        assert not r.passed
        assert r.error == "ValidationError: deck transformation has the wrong order"

    def test_cover_deck_with_fixed_point_rejected(self, tmp_path):
        # -I with zero translation has order 2 and fixes the origin
        r = run_b1_variant(
            tmp_path,
            (
                "matrix deck.linear 4 4\n0 0 1 0\n0 0 0 1\n1 0 0 0\n0 1 0 0\n",
                "matrix deck.linear 4 4\n-1 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 -1\n",
            ),
            ("deck.translation 0 1 0 0", "deck.translation 0 0 0 0"),
            ("deck_order 4", "deck_order 2"),
        )
        assert not r.passed
        assert r.error == "ValidationError: deck transformation is not free"

    def test_infinite_group_is_refused_without_enumeration(self, tmp_path):
        # pi_1(D) is free on the loop A and the normalisation is a point,
        # so the group is Z; at the default limit enumeration would take
        # seconds before giving up
        path = tmp_path / "Z.scn"
        path.write_text(
            "meta\nid Z\nkind vankampen\nexpected\norder 1\ncyclic yes\n"
            "complex dbar\nbasepoint P\nvertex P\n"
            "complex d\nbasepoint Q\nvertex Q\nedge A Q Q\n"
            "map\nvertex P Q\n"
        )
        start = time.perf_counter()
        r = run_scenario(load_scenario(path))
        assert time.perf_counter() - start < 1.0
        assert not r.passed and r.order is None
        assert r.error == "ValidationError: group is infinite: abelianization Z"

    def test_reducible_configuration_trivial(self):
        s = load_scenario(bundled_catalogue_dir() / "E5red.scn")
        r = run_scenario(s)
        assert r.passed and r.order == 1

    def test_failure_is_captured_not_raised(self):
        s = load_scenario(bundled_catalogue_dir() / "R4.scn")
        wrong = Scenario(
            id=s.id,
            kind=s.kind,
            payload=s.payload,
            expected_order=5,
            expected_cyclic=True,
            meta=s.meta,
        )
        r = run_scenario(wrong)
        assert not r.passed and r.order == 4 and r.error is None

    @pytest.mark.parametrize("name", ["E2", "E4"])
    def test_wrong_glue_subgroup_pair_fails_the_even_report(self, monkeypatch, name):
        s = load_scenario(bundled_catalogue_dir() / f"{name}.scn")
        params = s.payload.params
        normalized = torus.enumerate_glue_subgroups(params, normalized=True)
        others = [g for g in torus.enumerate_glue_subgroups(params) if g not in normalized]
        assert len(others) == 2 and run_scenario(s).passed
        monkeypatch.setattr(torus, "glue_subgroup_pair", lambda p: tuple(others))
        r = run_scenario(s)
        assert not r.passed
        assert r.error == "ValidationError: normalised glue subgroups are not the glue subgroup pair"
        assert not any("after normalisation" in c for c in r.checks)

    def test_payload_without_runner_is_a_failed_report(self):
        s = load_scenario(bundled_catalogue_dir() / "B1.scn")
        odd = Scenario(
            id=s.id,
            kind=s.kind,
            payload=object(),
            expected_order=4,
            expected_cyclic=True,
            meta=s.meta,
        )
        r = run_scenario(odd)
        assert not r.passed
        assert r.error == f"ValidationError: no runner for kind {s.kind}"

    def test_failed_reports_on_every_route(self, tmp_path):
        # every way a report can fail: its dict (less elapsed_ms), meta and verdict
        def failed(sid, order, cyclic, checks, error):
            return {"scenario": sid, "order": None, "cyclic": None, "abelianization": None,
                    "expected": {"order": order, "cyclic": cyclic}, "verdict": "fail",
                    "presentation": "", "checks": checks, "error": error}

        (tmp_path / "broken.scn").write_text("meta\nid Z\n???\n")
        (report,), _summary = verify_catalogue(tmp_path)
        assert report.elapsed_ms == 0.0
        error = f"ParseError: {tmp_path / 'broken.scn'}:3: meta lines are 'key value...'"
        cases = [(report, failed("broken", 0, False, [], error), {})]

        b1 = load_scenario(bundled_catalogue_dir() / "B1.scn")
        report = run_b1_variant(
            tmp_path,
            (
                "matrix deck.linear 4 4\n0 0 1 0\n0 0 0 1\n1 0 0 0\n0 1 0 0\n",
                "matrix deck.linear 4 4\n-1 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 -1\n",
            ),
            ("deck.translation 0 1 0 0", "deck.translation 0 0 0 0"),
            ("deck_order 4", "deck_order 2"),
        )
        error = "ValidationError: deck transformation is not free"
        cases.append((report, failed("B1", 4, True, ["free action of a group of order 4"], error), b1.meta))

        path = tmp_path / "Z.scn"
        path.write_text(
            "meta\nid Z\nkind vankampen\nexpected\norder 1\ncyclic yes\n"
            "complex dbar\nbasepoint P\nvertex P\n"
            "complex d\nbasepoint Q\nvertex Q\nedge A Q Q\n"
            "map\nvertex P Q\n"
        )
        checks = ["double-curve skeleton has graph rank 0", "glued over a simply connected normalisation"]
        error = "ValidationError: group is infinite: abelianization Z"
        meta = {"id": "Z", "kind": "vankampen"}
        cases.append((run_scenario(load_scenario(path)), failed("Z", 1, True, checks, error), meta))

        report = run_scenario(b1._replace(payload=object()))
        error = "ValidationError: no runner for kind torus-lattice"
        cases.append((report, failed("B1", 4, True, [], error), b1.meta))

        r4 = load_scenario(bundled_catalogue_dir() / "R4.scn")
        checks = ["isogeny cokernel is cyclic of order 4", "coset enumeration closed at order 4",
                  "abelianization Z/4"]
        wrong = failed("R4", 5, True, checks, None)
        wrong.update(order=4, cyclic=True, abelianization={"free_rank": 0, "torsion": [4]},
                     presentation="< t | t t t t >")
        cases.append((run_scenario(r4._replace(expected_order=5)), wrong, r4.meta))

        for report, expected, meta in cases:
            d = report.to_dict()
            assert isinstance(d.pop("elapsed_ms"), float)
            assert (d, report.meta, report.passed) == (expected, meta, False)

    def test_report_dict_shape(self):
        s = load_scenario(bundled_catalogue_dir() / "P3.scn")
        d = run_scenario(s).to_dict()
        assert d["scenario"] == "P3"
        assert d["order"] == 3
        assert d["abelianization"] == {"free_rank": 0, "torsion": [3]}
        assert d["expected"] == {"order": 3, "cyclic": True}
        assert d["verdict"] == "pass"
        assert isinstance(d["elapsed_ms"], float)


class TestCatalogue:
    def test_all_pass_with_expected_orders(self):
        reports, summary = verify_catalogue()
        assert summary["total"] == len(EXPECTED_ORDERS) >= 18
        assert summary["all_pass"]
        for r in reports:
            assert r.passed, (r.scenario, r.error)
            assert r.order == EXPECTED_ORDERS[r.scenario]
            assert r.cyclic is True

    def test_ids_are_sorted_and_unique(self):
        reports, _ = verify_catalogue()
        ids = [r.scenario for r in reports]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_empty_directory(self, tmp_path):
        reports, summary = verify_catalogue(tmp_path)
        assert reports == [] and summary == {"total": 0, "passed": 0, "all_pass": True}

    def test_corrupt_file_isolated(self, tmp_path):
        for name in ("P1.scn", "R3.scn"):
            shutil.copy(bundled_catalogue_dir() / name, tmp_path / name)
        (tmp_path / "broken.scn").write_text("meta\nid Z\n???\n")
        reports, summary = verify_catalogue(tmp_path)
        assert summary["total"] == 3 and summary["passed"] == 2
        broken = next(r for r in reports if r.scenario == "broken")
        assert not broken.passed and "ParseError" in broken.error

    def test_unreadable_file_is_a_parse_error(self, tmp_path):
        # a directory, not a permission change: root may read any file
        (tmp_path / "x.scn").mkdir()
        with pytest.raises(ParseError, match="x.scn: cannot read"):
            load_scenario(tmp_path / "x.scn")
        reports, summary = verify_catalogue(tmp_path)
        assert summary == {"total": 1, "passed": 0, "all_pass": False}
        assert reports[0].scenario == "x" and reports[0].error.startswith("ParseError: ")

    def test_twisting_number_matches_id_numeral(self):
        for s in load_catalogue():
            if isinstance(s.payload, BiTriPayload):
                assert s.id == f"E{torus.twisting_number(s.payload.params)}"
            if "twist" in s.meta:
                digits = "".join(ch for ch in s.id if ch.isdigit())
                assert s.meta["twist"] == digits

    def test_metadata_strings_preserved(self):
        smoothable = {s.id: s.meta.get("smoothable") for s in load_catalogue()}
        assert smoothable["dP"] == "no"
        assert smoothable["E2"] == "unknown"
        assert smoothable["B1"] == "yes"


# Tokens that replace one token of a line in the mutation test: digits that
# str.isdigit accepts but int rejects, bare signs, junk, and keywords that
# are valid in another section.
POOL = ("²", "-", "x", "cell", "0", "-1", "7", "yes", "matrix", "edge", "meta")
KINDS_OF_MUTATION = ("delete", "duplicate", "swap", "truncate", "replace", "non-UTF-8")


def one_line_mutations(lines, rng):
    """One mutation of each content line, of a kind drawn from
    KINDS_OF_MUTATION: delete it, duplicate it, swap it with the next line,
    cut it in half, replace a random token by one from POOL, or append a byte
    that is not UTF-8.  Yields (label, file bytes)."""
    for i, line in enumerate(lines):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        out = [x.encode() for x in lines]
        kind = rng.choice(KINDS_OF_MUTATION)
        if kind == "delete":
            del out[i]
        elif kind == "duplicate":
            out.insert(i, out[i])
        elif kind == "swap":
            j = i + 1 if i + 1 < len(out) else i - 1
            out[i], out[j] = out[j], out[i]
        elif kind == "truncate":
            out[i] = out[i][: len(out[i]) // 2]
        elif kind == "replace":
            k = rng.randrange(len(toks))
            out[i] = " ".join(toks[:k] + [rng.choice(POOL)] + toks[k + 1 :]).encode()
        else:
            out[i] += b"\xff"
        yield f"{kind} line {i + 1}", b"\n".join(out) + b"\n"


class TestParserTotality:
    @pytest.mark.parametrize(
        "name, old, new, error",
        [
            ("P1.scn", "order 4", b"order 4\xff", ParseError),
            ("P1.scn", "order 4", "order ²".encode(), ParseError),
            ("R3.scn", "matrix isogeny 2 2", "matrix isogeny ² 2".encode(), ParseError),
            ("E5.scn", "twist 5", b"twist x", ValidationError),
            # int() reads these as 3, 10, 4, 2, 4 and 4: integers are ASCII
            # digits after an optional '-', nothing else
            ("R3.scn", "order 3", "order \u0663".encode(), ParseError),
            ("R3.scn", "-1 2", "-\u0661 2".encode(), ParseError),
            ("R3.scn", "-1 2", b"-1 1_0", ParseError),
            ("P1.scn", "order 4", b"order 0_4", ParseError),
            ("R3.scn", "-1 2", b"-1 +2", ParseError),
            ("B1.scn", "translation 1 0 1 0", "translation 1 0 1 \uff10".encode(), ParseError),
            ("B1.scn", "deck_order 4", "deck_order \u0664".encode(), ValidationError),
            ("E5.scn", "twist 5", "twist \u0665".encode(), ValidationError),
        ],
        ids=[
            "non-UTF-8",
            "order-superscript",
            "matrix-superscript",
            "twist-x",
            "order-arabic-indic",
            "matrix-row-arabic-indic",
            "matrix-row-underscore",
            "order-underscore",
            "matrix-row-plus",
            "vector-fullwidth",
            "scalar-arabic-indic",
            "twist-arabic-indic",
        ],
    )
    def test_escape_is_a_clean_error(self, tmp_path, name, old, new, error):
        data = (bundled_catalogue_dir() / name).read_bytes()
        assert old.encode() in data
        bad = tmp_path / name
        bad.write_bytes(data.replace(old.encode(), new))
        with pytest.raises(error, match=re.escape(str(bad))):
            load_scenario(bad)

    def test_one_line_mutations_of_every_bundled_file(self, tmp_path):
        rng = random.Random(20261018)
        escapes = []
        count = 0
        for src in sorted(bundled_catalogue_dir().glob("*.scn")):
            path = tmp_path / src.name
            for label, data in one_line_mutations(src.read_text().splitlines(), rng):
                count += 1
                path.write_bytes(data)
                try:
                    assert isinstance(load_scenario(path), Scenario)
                except (ParseError, ValidationError) as exc:
                    if str(path) not in str(exc):
                        escapes.append((src.name, label, f"unnamed file: {exc}"))
                except Exception as exc:  # anything else is a traceback for the user
                    escapes.append((src.name, label, f"{type(exc).__name__}: {exc}"))
        assert count > 700
        assert not escapes, escapes[:10]


def certified_presentations(monkeypatch):
    """{id: (presentation, enumerations)} for every bundled scenario: the
    presentation that run_scenario hands to todd_coxeter_order, and the
    lengths of the subgroup words of each _CosetTable.enumerate it ran."""
    presentations, runs, out = [], [], {}
    order_, enumerate_ = fpgroup.todd_coxeter_order, fpgroup._CosetTable.enumerate

    def order(p, max_cosets):
        presentations.append(p)
        return order_(p, max_cosets)

    def recorded(self):
        runs.append([len(fwd) for fwd, _bwd in self.subgroup])
        return enumerate_(self)

    monkeypatch.setattr(fpgroup, "todd_coxeter_order", order)
    monkeypatch.setattr(fpgroup._CosetTable, "enumerate", recorded)
    for s in load_catalogue():
        presentations.clear()
        runs.clear()
        report = run_scenario(s)
        assert report.passed and report.order == EXPECTED_ORDERS[s.id], s.id
        (p,) = presentations
        out[s.id] = p, list(runs)
    monkeypatch.undo()
    return out


def test_every_scenario_enumerates_once(monkeypatch):
    # No catalogue presentation has a dihedral root, so each of the 23,
    # dP's of no generators included, enumerates the trivial subgroup
    # exactly once, E2-E5 and P3 (which have power relators) among them
    runs = {sid: r for sid, (_p, r) in certified_presentations(monkeypatch).items()}
    assert runs == dict.fromkeys(EXPECTED_ORDERS, [[]])


def test_orders_need_no_smith_form(monkeypatch):
    """Coset enumeration and the Smith form are the two independent routes
    to every order, so todd_coxeter_order must not reach the Smith form."""
    groups = [(p, EXPECTED_ORDERS[sid]) for sid, (p, _runs) in certified_presentations(monkeypatch).items()]
    assert len(groups) == 23
    groups += enum_menu_groups() + power_groups()

    def refused(*args):
        raise AssertionError("todd_coxeter_order reached the Smith form")

    monkeypatch.setattr(fpgroup, "abelianization", refused)
    monkeypatch.setattr(fpgroup, "cokernel_invariants", refused)
    for p, n in groups:
        assert fpgroup.todd_coxeter_order(p) == n, p.describe()


def test_catalogue_passes_at_seven_live_cosets():
    # E5's enumeration of the trivial subgroup needs 7 live cosets, the most
    # of any scenario, so this is the lowest limit that passes them all
    _reports, summary = verify_catalogue(max_cosets=7)
    assert summary == {"total": 23, "passed": 23, "all_pass": True}
