"""The bundled catalogue: machine-readable scenario files and their runner.

Scenario files are line-oriented UTF-8 with ``#`` comments and four kinds of
section:

    meta                         key/value pairs (id, kind, flags, counts)
    expected                     order <n> / cyclic yes|no
    complex <name>               basepoint / vertex / edge / cell lines
    map                          vertex a b / edge lab [-]lab lines
    torus                        mode plus scalars, ``matrix NAME R C`` blocks
                                 (R following lines of C integers each) and
                                 ``vector NAME ints...`` lines

Integers are ASCII digits, after a '-' where a negative value is allowed.
Every name is defined once: a second meta or expected key, complex, basepoint,
map vertex or edge source, torus scalar, matrix or vector is a ``ParseError``.
Conventions for torus data: translations of group generators are integers
over the declared ``denominator``; cover lattices, deck transformations and
curve-class rows are written in the scaled coordinates (ambient coordinates
multiplied by the denominator), which keeps every matrix integral.

Each scenario carries the expected fundamental-group invariants; running it
recomputes them from the payload and reports pass or fail.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple

from . import fpgroup, torus, vankampen
from .intlin import (
    IntMatrix,
    RatVector,
    cokernel_invariants,
    hermite_normal_form,
    solve_integral,
)
from .fpgroup import DEFAULT_MAX_COSETS


class ParseError(ValueError):
    """Syntax error in a scenario file (message carries the line number)."""


class ValidationError(ValueError):
    """Scenario data violates a structural invariant."""


KINDS = ("vankampen", "torus-lattice", "parametric", "constant")

# Scalar keys of a torus section; ``basis`` only documents the coordinates.
TORUS_SCALARS = frozenset(
    "mode degphi degphiprime case glue rank denominator group_order deck_order"
    " crossing_count nodes_downstairs basis".split()
)


VanKampenPayload = namedtuple("VanKampenPayload", "dbar d gluing")
BiTriPayload = namedtuple("BiTriPayload", "params")
ReduciblePayload = namedtuple("ReduciblePayload", "endo_q endo_pi")
# A bi-elliptic quotient verified through an explicit intermediate cover;
# classes holds (name, IntMatrix of generator rows in scaled coordinates).
CoverPayload = namedtuple("CoverPayload", "rank denominator group_gens group_order deck"
                          " deck_order cover_lattice classes crossing crossing_count nodes_downstairs")
IsogenyPayload = namedtuple("IsogenyPayload", "matrix")
ConstantPayload = namedtuple("ConstantPayload", ())
Scenario = namedtuple("Scenario", "id kind payload expected_order expected_cyclic meta")


class Report:
    """One scenario's result, built by ``run_scenario`` or, for a file that
    does not parse, by ``verify_catalogue``.  A failed run keeps its checks
    and carries ``error`` as "{type}: {message}", no order and an empty
    presentation; the verdict is pass iff there is no error and the order
    and cyclicity match.  ``meta`` is the scenario's meta section, kept for
    tables; it is not part of the report."""

    __slots__ = ("scenario", "order", "cyclic", "abelianization", "presentation", "expected_order",
                 "expected_cyclic", "verdict", "elapsed_ms", "checks", "error", "meta")

    def __init__(self, scenario, order, cyclic, abelianization, presentation, expected_order,
                 expected_cyclic, verdict, elapsed_ms, checks, error, meta):
        self.scenario = scenario
        self.order = order
        self.cyclic = cyclic
        self.abelianization = abelianization
        self.presentation = presentation
        self.expected_order = expected_order
        self.expected_cyclic = expected_cyclic
        self.verdict = verdict
        self.elapsed_ms = elapsed_ms
        self.checks = checks
        self.error = error
        self.meta = meta

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_dict(self):
        inv = self.abelianization
        return {
            "scenario": self.scenario,
            "order": self.order,
            "cyclic": self.cyclic,
            "abelianization": None
            if inv is None
            else {"free_rank": inv.free_rank, "torsion": list(inv.torsion)},
            "expected": {"order": self.expected_order, "cyclic": self.expected_cyclic},
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
            "presentation": self.presentation,
            "checks": list(self.checks),
            "error": self.error,
        }


# -- parsing -------------------------------------------------------------


def _parse_lines(path):
    out = []
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    for lineno, line in enumerate(raw, start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


class _ComplexBuilder:
    def __init__(self):
        self.vertices = []
        self.edges = []
        self.cells = []
        self.basepoint = None


def _int_token(tok, signed=True):
    """The int that ``tok`` spells in ASCII digits, after a '-' if ``signed``;
    ValueError otherwise.  int() alone also takes every Unicode digit, '_' and '+'."""
    digits = tok[1:] if signed and tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: '{tok}'")
    return int(tok)


def _signed_token(tok):
    if tok.startswith("-"):
        return tok[1:], -1
    return tok, 1


def load_scenario(path) -> Scenario:
    """Parse and fully validate one scenario file."""
    lines = _parse_lines(path)
    meta = {}
    expected = {}
    complexes = {}
    vmap = {}
    emap = {}
    have_map = False
    tdata = {"matrices": {}, "vectors": {}, "scalars": {}}
    section = None
    current_complex = None
    pending = None  # (name, cols, rows_left, rows)

    def fail(lineno, msg):
        raise ParseError(f"{path}:{lineno}: {msg}")

    def define(lineno, table, name, value, what):
        if name in table:
            fail(lineno, f"{what} {name} is defined twice")
        table[name] = value

    def integers(lineno, tokens, msg, signed=True):
        try:
            return [_int_token(t, signed) for t in tokens]
        except ValueError:
            fail(lineno, msg)

    for lineno, toks in lines:
        if pending is not None:
            name, cols, left, rows = pending
            row = integers(lineno, toks, f"expected an integer row of matrix {name}")
            if len(row) != cols:
                fail(lineno, f"matrix {name} row needs {cols} entries")
            rows.append(row)
            left -= 1
            pending = (name, cols, left, rows) if left else None
            if pending is None:
                tdata["matrices"][name] = IntMatrix.from_rows(rows, cols=cols)
            continue
        key = toks[0]
        if key == "meta":
            section = "meta"
            continue
        if key == "expected":
            section = "expected"
            continue
        if key == "complex":
            if len(toks) != 2:
                fail(lineno, "complex needs a name")
            section = "complex"
            current_complex = _ComplexBuilder()
            define(lineno, complexes, toks[1], current_complex, "complex")
            continue
        if key == "map":
            section = "map"
            have_map = True
            continue
        if key == "torus":
            section = "torus"
            continue
        if section == "meta":
            if len(toks) < 2:
                fail(lineno, "meta lines are 'key value...'")
            define(lineno, meta, key, " ".join(toks[1:]), "meta key")
        elif section == "expected":
            usage = "expected lines are 'order <n>' or 'cyclic yes|no'"
            if key == "order" and len(toks) == 2:
                value = integers(lineno, toks[1:], usage, signed=False)[0]
                define(lineno, expected, key, value, "expected")
            elif key == "cyclic" and len(toks) == 2 and toks[1] in ("yes", "no"):
                define(lineno, expected, key, toks[1] == "yes", "expected")
            else:
                fail(lineno, usage)
        elif section == "complex":
            b = current_complex
            if key == "vertex" and len(toks) == 2:
                b.vertices.append(toks[1])
            elif key == "basepoint" and len(toks) == 2:
                if b.basepoint is not None:
                    fail(lineno, "basepoint is defined twice")
                b.basepoint = toks[1]
            elif key == "edge" and len(toks) == 4:
                b.edges.append((toks[1], toks[2], toks[3]))
            elif key == "cell" and len(toks) >= 2:
                b.cells.append(tuple(_signed_token(t) for t in toks[1:]))
            else:
                fail(lineno, f"bad complex line '{' '.join(toks)}'")
        elif section == "map":
            if key == "vertex" and len(toks) == 3:
                define(lineno, vmap, toks[1], toks[2], "map vertex")
            elif key == "edge" and len(toks) == 3:
                define(lineno, emap, toks[1], _signed_token(toks[2]), "map edge")
            else:
                fail(lineno, f"bad map line '{' '.join(toks)}'")
        elif section == "torus":
            if key == "matrix":
                usage = "matrix lines are 'matrix NAME ROWS COLS'"
                if len(toks) != 4:
                    fail(lineno, usage)
                nrows, ncols = integers(lineno, toks[2:], usage, signed=False)
                # the empty matrix stands in until the rows are read
                define(lineno, tdata["matrices"], toks[1], IntMatrix.zeros(0, ncols), "matrix")
                if nrows:
                    pending = (toks[1], ncols, nrows, [])
            elif key == "vector":
                if len(toks) < 2:
                    fail(lineno, "vector lines are 'vector NAME ints...'")
                value = integers(lineno, toks[2:], "vector entries must be integers")
                define(lineno, tdata["vectors"], toks[1], value, "vector")
            elif key in TORUS_SCALARS:
                define(lineno, tdata["scalars"], key, " ".join(toks[1:]), "torus scalar")
            else:
                fail(lineno, f"unknown torus key '{key}'")
        else:
            fail(lineno, f"line outside any section: '{' '.join(toks)}'")

    if pending is not None:
        raise ParseError(f"{path}: matrix {pending[0]} is missing rows")
    if "id" not in meta or "kind" not in meta:
        raise ValidationError(f"{path}: meta must declare id and kind")
    kind = meta["kind"]
    if kind not in KINDS:
        raise ValidationError(f"{path}: unknown kind '{kind}'")
    if "order" not in expected or "cyclic" not in expected:
        raise ValidationError(f"{path}: expected order and cyclic are required")
    if not 1 <= expected["order"] <= 5:
        raise ValidationError(f"{path}: expected order must be in 1..5")

    payload = _build_payload(path, kind, meta, complexes, vmap, emap, have_map, tdata)
    return Scenario(
        id=meta["id"],
        kind=kind,
        payload=payload,
        expected_order=expected["order"],
        expected_cyclic=expected["cyclic"],
        meta=meta,
    )


def _build_complex(path, name, builder):
    if builder.basepoint is None:
        raise ValidationError(f"{path}: complex {name} needs a basepoint")
    try:
        return vankampen.GluingComplex(
            tuple(builder.vertices),
            tuple(builder.edges),
            tuple(builder.cells),
            builder.basepoint,
        )
    except ValueError as exc:
        raise ValidationError(f"{path}: complex {name}: {exc}") from exc


def _build_payload(path, kind, meta, complexes, vmap, emap, have_map, tdata):
    if kind == "vankampen":
        if set(complexes) != {"dbar", "d"} or not have_map:
            raise ValidationError(f"{path}: vankampen needs complexes dbar, d and a map")
        dbar = _build_complex(path, "dbar", complexes["dbar"])
        d = _build_complex(path, "d", complexes["d"])
        gluing = vankampen.GluingMap(dict(vmap), dict(emap))
        try:
            vankampen.check_map(gluing, dbar, d)
        except vankampen.IncompatibleMap as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        _check_node_counts(path, meta, dbar)
        return VanKampenPayload(dbar, d, gluing)

    if kind == "constant":
        return ConstantPayload()

    scalars = tdata["scalars"]
    matrices = tdata["matrices"]
    vectors = tdata["vectors"]
    mode = scalars.get("mode")

    if kind == "parametric":
        if mode != "isogeny" or "isogeny" not in matrices:
            raise ValidationError(f"{path}: parametric scenarios carry an isogeny matrix")
        return IsogenyPayload(matrices["isogeny"])

    # torus-lattice
    if mode == "bitri":
        try:
            glue = scalars.get("glue")
            if glue not in (None, "G1", "G2"):
                raise ValueError(f"glue must be G1 or G2, not '{glue}'")
            if glue is None and scalars.get("case") == "even":
                raise ValueError("the even case needs a glue line (G1 or G2)")
            params = torus.BiTriEllipticParams(
                d=_int_token(scalars["degphi"]),
                d_prime=_int_token(scalars["degphiprime"]),
                case=scalars["case"],
                glue={"G1": 0, "G2": 1}.get(glue),
            )
            twist = _int_token(meta["twist"]) if "twist" in meta else None
        except (KeyError, ValueError, torus.InvalidParams) as exc:
            raise ValidationError(f"{path}: bad bi-tri-elliptic parameters: {exc}") from exc
        if twist is not None and torus.twisting_number(params) != twist:
            raise ValidationError(f"{path}: declared twist does not match the parameters")
        return BiTriPayload(params)
    if mode == "reducible":
        try:
            return ReduciblePayload(matrices["endo_q"], matrices["endo_pi"])
        except KeyError as exc:
            raise ValidationError(f"{path}: reducible scenarios need endo_q and endo_pi") from exc
    if mode == "cover":
        try:
            rank = _int_token(scalars["rank"])
            den = _int_token(scalars["denominator"])
            gens = []
            i = 1
            while f"gen{i}.linear" in matrices:
                gens.append(
                    torus.AffineTorusMap(
                        matrices[f"gen{i}.linear"],
                        RatVector(tuple(vectors[f"gen{i}.translation"]), den),
                    )
                )
                i += 1
            if not gens:
                raise ValidationError(f"{path}: cover scenarios need group generators")
            deck = torus.conjugate_into_lattice(
                matrices["deck.linear"],
                RatVector.integers(vectors["deck.translation"]),
                matrices["cover_lattice"],
            )
            classes = tuple(
                (name.split(".", 1)[1], matrices[name])
                for name in sorted(matrices)
                if name.startswith("class.")
            )
            return CoverPayload(
                rank=rank,
                denominator=den,
                group_gens=tuple(gens),
                group_order=_int_token(scalars["group_order"]),
                deck=deck,
                deck_order=_int_token(scalars["deck_order"]),
                cover_lattice=matrices["cover_lattice"],
                classes=classes,
                crossing=matrices["crossing"],
                crossing_count=_int_token(scalars["crossing_count"]),
                nodes_downstairs=_int_token(scalars["nodes_downstairs"]),
            )
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"{path}: incomplete cover data: {exc}") from exc
    raise ValidationError(f"{path}: torus section needs a valid mode")


def _check_node_counts(path, meta, dbar):
    """Declared singularity bookkeeping must satisfy the double-locus count:
    nodes = ramification/2 + 2*cusps + 2, and match the skeleton."""
    if not all(k in meta for k in ("nodes", "ramification", "cusps")):
        return
    try:
        nodes = _int_token(meta["nodes"])
        ram = _int_token(meta["ramification"])
        cusps = _int_token(meta["cusps"])
    except ValueError as exc:
        raise ValidationError(f"{path}: node/cusp counts must be integers") from exc
    if ram % 2 or nodes != ram // 2 + 2 * cusps + 2:
        raise ValidationError(f"{path}: node/cusp counts violate the double-locus relation")
    if nodes != len(dbar.vertices):
        raise ValidationError(f"{path}: declared nodes do not match the 1-skeleton")


# -- running -------------------------------------------------------------


def _certify(pres, max_cosets, checks):
    inv = fpgroup.abelianization(pres)
    if inv.free_rank:
        # a positive free rank proves the group infinite: do not enumerate
        raise ValidationError(f"group is infinite: abelianization {inv}")
    order = fpgroup.todd_coxeter_order(pres, max_cosets)
    cyclic = fpgroup.cyclic_given_order(order, inv)
    checks.append(f"coset enumeration closed at order {order}")
    checks.append(f"abelianization {inv}")
    return order, cyclic, inv


def _run_constant(payload, checks):
    checks.append("rigid gluing: simply connected by construction")
    return fpgroup.trivial_presentation()


def _run_vankampen(payload, checks):
    src = vankampen.pi1_presentation(payload.dbar)
    tgt = vankampen.pi1_presentation(payload.d)
    rank = len(payload.dbar.edges) - len(payload.dbar.vertices) + 1
    if src.graph_rank != rank:
        raise ValidationError("spanning-tree rank disagrees with Euler count")
    checks.append(f"double-curve skeleton has graph rank {rank}")
    images = vankampen.induced_hom(payload.gluing, src, tgt)
    checks.append("glued over a simply connected normalisation")
    # the amalgam over a trivial normalisation group: pi_1(D) / <<image^-1>>
    return fpgroup.amalgamated_product(
        fpgroup.trivial_presentation(), tgt.presentation, [((), w) for w in images]
    )


def _run_bitri(payload, checks):
    m = torus.twisting_number(payload.params)
    checks.append(f"twisting number {m}")
    if payload.params.case == "even":
        count = len(torus.enumerate_glue_subgroups(payload.params))
        if count != 4:
            raise ValidationError(f"expected 4 glue subgroups, found {count}")
        normalized = torus.enumerate_glue_subgroups(payload.params, normalized=True)
        if normalized != sorted(torus.glue_subgroup_pair(payload.params)):
            raise ValidationError("normalised glue subgroups are not the glue subgroup pair")
        checks.append("4 admissible glue subgroups, 2 after normalisation")
    theta = torus.theta_fbar_intersection(payload.params)
    if theta != 3:
        raise ValidationError(f"polarisation product {theta} != 3")
    checks.append("polarisation meets the glued curve in 3 points")
    return torus.eplus_presentation(payload.params)


def _run_reducible(payload, checks):
    # Two abelian surfaces-worth of homology glued over the two-component
    # curve: the section side identifies the targets, the bisection side
    # compares the degree-2 endomorphism with the identification.
    za = fpgroup.Presentation(("x1", "x2"), ((1, 2, -1, -2),))
    zb = fpgroup.Presentation(("y1", "y2"), ((1, 2, -1, -2),))
    q, p = payload.endo_q, payload.endo_pi
    if q.rows != 2 or q.cols != 2 or p.rows != 2 or p.cols != 2:
        raise ValidationError("reducible payload needs 2x2 matrices")

    def column_word(mat, j):
        return fpgroup.power_word(1, mat.at(0, j)) + fpgroup.power_word(2, mat.at(1, j))

    pairs = [((1,), (1,)), ((2,), (2,))]
    pairs += [(column_word(q, j), column_word(p, j)) for j in (0, 1)]
    checks.append(f"bisection endomorphism degree {abs(q.det())}")
    return fpgroup.amalgamated_product(za, zb, pairs)


def _run_cover(payload, checks):
    elements = torus.generated_group(payload.group_gens)
    if len(elements) != payload.group_order:
        raise ValidationError(
            f"group closure has order {len(elements)}, expected {payload.group_order}"
        )
    if not torus.is_free_action(elements):
        raise ValidationError("bi-elliptic group action is not free")
    checks.append(f"free action of a group of order {payload.group_order}")

    powers = torus.generated_group([payload.deck], cap=64)
    if len(powers) != payload.deck_order:
        raise ValidationError("deck transformation has the wrong order")
    if not torus.is_free_action(powers):
        raise ValidationError("deck transformation is not free")
    checks.append(f"deck transformation of order {payload.deck_order} acts freely")

    count = torus.preimage_count(payload.crossing)
    if count != payload.crossing_count:
        raise ValidationError(f"crossing count {count} != {payload.crossing_count}")
    checks.append(f"curve translates cross in {count} points")

    basis = hermite_normal_form(payload.cover_lattice)
    if basis.rows != payload.rank:
        raise ValidationError("cover lattice must have full rank")
    all_rows = []
    class_lattices = []
    for name, mat in payload.classes:
        rows = []
        for i in range(mat.rows):
            coords = solve_integral(basis, list(mat.row(i)))
            if coords is None:
                raise ValidationError(f"class {name} not contained in the cover lattice")
            rows.append(coords)
        all_rows.extend(rows)
        class_lattices.append(torus.subtorus_class(rows))
    nodes = 0
    for i in range(len(class_lattices)):
        for j in range(i + 1, len(class_lattices)):
            nodes += torus.intersection_number(class_lattices[i], class_lattices[j])
    if nodes != payload.deck_order * payload.nodes_downstairs:
        raise ValidationError(
            f"node count {nodes} != deck order x downstairs nodes"
        )
    checks.append(f"pulled-back double curve carries {nodes} nodes")

    inv = cokernel_invariants(IntMatrix.from_rows(all_rows, cols=payload.rank), payload.rank)
    if not inv.is_trivial:
        raise ValidationError(f"contracted classes leave {inv} of the cover homology")
    checks.append("contracted curve classes generate the cover homology")
    return fpgroup.cyclic_presentation(payload.deck_order)


def _run_isogeny(payload, checks):
    inv = torus.isogeny_cokernel(payload.matrix)
    order = inv.order()
    if not inv.is_cyclic:
        raise ValidationError(f"isogeny cokernel {inv} is not cyclic")
    if not 3 <= order <= 5:
        raise ValidationError(f"isogeny degree {order} outside 3..5")
    checks.append(f"isogeny cokernel is cyclic of order {order}")
    return fpgroup.cyclic_presentation(order)


_RUNNERS = {
    VanKampenPayload: _run_vankampen,
    ConstantPayload: _run_constant,
    IsogenyPayload: _run_isogeny,
    BiTriPayload: _run_bitri,
    ReduciblePayload: _run_reducible,
    CoverPayload: _run_cover,
}


def run_scenario(s: Scenario, max_cosets=DEFAULT_MAX_COSETS) -> Report:
    """Compute the scenario's fundamental-group invariants and compare."""
    start = time.perf_counter()
    checks = []
    order = cyclic = inv = pres = error = None
    try:
        runner = _RUNNERS.get(type(s.payload))
        if runner is None:
            raise ValidationError(f"no runner for kind {s.kind}")
        pres = runner(s.payload, checks)
        order, cyclic, inv = _certify(pres, max_cosets, checks)
    except Exception as exc:  # computational failures become failed reports
        error = f"{type(exc).__name__}: {exc}"
    elapsed = round((time.perf_counter() - start) * 1000.0, 3)
    passed = error is None and order == s.expected_order and cyclic == s.expected_cyclic
    return Report(s.id, order, cyclic, inv, "" if error else pres.describe(), s.expected_order,
                  s.expected_cyclic, "pass" if passed else "fail", elapsed, tuple(checks), error, s.meta)


def bundled_catalogue_dir():
    """The ``Path`` of the catalogue shipped with the package."""
    from pathlib import Path

    return Path(__file__).resolve().parent / "catalogue"


def verify_catalogue(directory=None, max_cosets=DEFAULT_MAX_COSETS):
    """Run every scenario file in the directory; returns (reports, summary).

    Individual parse or validation failures are captured as failed reports;
    they never abort the rest of the catalogue.
    """
    from pathlib import Path

    directory = Path(directory) if directory is not None else bundled_catalogue_dir()
    reports = []
    for path in sorted(directory.glob("*.scn")):
        try:
            scenario = load_catalogue_file(path)
        except (ParseError, ValidationError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            reports.append(Report(path.stem, None, None, None, "", 0, False, "fail", 0.0, (), error, {}))
            continue
        reports.append(run_scenario(scenario, max_cosets))
    reports.sort(key=lambda r: r.scenario)
    passed = sum(1 for r in reports if r.passed)
    summary = {"total": len(reports), "passed": passed, "all_pass": passed == len(reports)}
    return reports, summary


def load_catalogue_file(path) -> Scenario:
    """``load_scenario`` for a catalogue file, which must be named after its id."""
    scenario = load_scenario(path)
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name  # as Path(path).stem
    if scenario.id != stem:
        raise ValidationError(f"{path}: scenario id '{scenario.id}' does not match the file name")
    return scenario


def load_catalogue(directory=None):
    """All bundled scenarios, sorted by id.  Raises on a malformed file or
    one not named after its id."""
    from pathlib import Path

    directory = Path(directory) if directory is not None else bundled_catalogue_dir()
    scenarios = [load_catalogue_file(p) for p in sorted(directory.glob("*.scn"))]
    scenarios.sort(key=lambda s: s.id)
    return scenarios
