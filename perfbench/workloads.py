"""Seeded inputs, timed calls and independent answer checks for each workload.

A workload is a sequence of passes.  Every pass holds the same menu of
operations ("ops"); the seed and the pass number only choose the order of the
ops and the variation inside each one (relabelling, rotation, the random
unimodular factors of a matrix).  Keeping the menu fixed makes the work per
pass nearly independent of the seed, so figures from different seeds agree.

Each op is either a *close* op, which computes an answer that is checked, or a
*reject* op, which must be refused in a stated way.  Checks never call the
code under test: they use closed-form group orders, the planted Smith
invariants of a matrix, or the ``expected`` section of a scenario file.
"""

from __future__ import annotations

import hashlib
import random
from math import factorial
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    kind: str  # "close" or "reject"
    label: str
    call: Callable[[], object]
    check: Callable[[object, "BaseException | None"], bool] = field(repr=False)
    # Group order (or lattice index) that a correct close op certifies; the
    # numerator of cosets_per_s.
    cosets: int = 0
    # Grouping key of the traced per-family / per-size breakdown.
    group: str = ""


def pass_rng(workload, seed, k):
    # str seeds are hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the process.
    return random.Random(f"{workload}:{seed}:{k}")


# -- catalogue -------------------------------------------------------------


def parse_scn(text):
    """Split a scenario file into [(header tokens, [line tokens...]), ...]."""
    sections = []
    headers = {"meta", "expected", "complex", "map", "torus"}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] in headers and len(toks) == (2 if toks[0] == "complex" else 1):
            sections.append((toks, []))
        else:
            sections[-1][1].append(toks)
    return sections


def render_scn(sections):
    out = []
    for header, lines in sections:
        out.append(" ".join(header))
        out.extend("  " + " ".join(t) for t in lines)
        out.append("")
    return "\n".join(out)


def expected_invariants(order, cyclic):
    """Abelian invariants implied by the expected section (orders <= 5)."""
    if cyclic:
        return (0, (order,) if order > 1 else ())
    if order == 4:
        return (0, (2, 2))
    raise ValueError(f"no closed form for a non-cyclic group of order {order}")


def relabel_vankampen(sections, rng):
    """Fresh vertex and edge labels, shuffled edge and map lines.

    A renaming changes nothing, and a different edge order only picks another
    spanning tree; the glued group is the same up to isomorphism, so order,
    cyclicity and abelianization are unchanged.
    """
    rename = {}
    for header, lines in sections:
        if header[0] != "complex":
            continue
        cname = header[1]
        verts = [t[1] for t in lines if t[0] == "vertex"]
        edges = [t[1] for t in lines if t[0] == "edge"]
        vnums = rng.sample(range(100 * len(verts)), len(verts))
        enums = rng.sample(range(100 * len(edges)), len(edges))
        rename[cname] = {
            **{v: f"{cname}V{n}" for v, n in zip(verts, vnums)},
            **{e: f"{cname}E{n}" for e, n in zip(edges, enums)},
        }

    def signed(tok, names):
        return "-" + names[tok[1:]] if tok.startswith("-") else names[tok]

    out = []
    for header, lines in sections:
        kind = header[0]
        if kind == "complex":
            names = rename[header[1]]
            fixed = []
            edge_lines = []
            for t in lines:
                if t[0] == "edge":
                    edge_lines.append(["edge"] + [names[x] for x in t[1:]])
                elif t[0] == "cell":
                    fixed.append(["cell"] + [signed(x, names) for x in t[1:]])
                else:
                    fixed.append([t[0], names[t[1]]])
            rng.shuffle(edge_lines)
            lines = fixed + edge_lines
        elif kind == "map":
            src, tgt = rename["dbar"], rename["d"]
            lines = [
                [t[0], src[t[1]], tgt[t[2]] if t[0] == "vertex" else signed(t[2], tgt)]
                for t in lines
            ]
            rng.shuffle(lines)
        out.append((header, lines))
    return out


def _has_cell(sections):
    return any(t[0] == "cell" for h, lines in sections if h[0] == "complex" for t in lines)


def mutate(variants, how, rng):
    """A spec violation the loader must refuse, applied to one of the pass's
    relabelled van Kampen files: (scenario id, sections, exception name)."""
    if how == "cell-edge":
        variants = [v for v in variants if _has_cell(v[1])]
    sid, sections = rng.choice(variants)
    sections = [(h, [list(t) for t in lines]) for h, lines in sections]
    sec = {(h[0], h[1] if len(h) > 1 else None): lines for h, lines in sections}
    if how == "map-target":
        # an edge mapped to a label the target complex does not have
        lines = [t for t in sec[("map", None)] if t[0] == "edge"]
        rng.choice(lines)[2] = "nosuchedge"
        return sid, sections, "ValidationError"
    if how == "cell-edge":
        # a 2-cell boundary through an undeclared edge
        cells = [t for t in sec[("complex", "dbar")] + sec[("complex", "d")] if t[0] == "cell"]
        cell = rng.choice(cells)
        cell[rng.randrange(1, len(cell))] = "nosuchedge"
        return sid, sections, "ValidationError"
    if how == "edge-arity":
        # an edge line without its target vertex
        rng.choice([t for t in sec[("complex", "d")] if t[0] == "edge"]).pop()
        return sid, sections, "ParseError"
    raise ValueError(how)


class Catalogue:
    """One op loads and runs one scenario file; a pass covers all of them."""

    name = "catalogue"
    trace_passes = 39
    MUTATIONS = ("map-target", "cell-edge", "edge-arity")

    def __init__(self, pkg, seed, root, workdir):
        self.sc = pkg.scenarios
        self.seed = seed
        self.dir = Path(workdir) / "catalogue"
        (self.dir / "reject").mkdir(parents=True, exist_ok=True)
        self.files = []  # (path, sections or None, id, order, cyclic)
        for path in sorted((Path(root) / "src" / "stablepi1" / "catalogue").glob("*.scn")):
            sections = parse_scn(path.read_text(encoding="utf-8"))
            meta = {t[0]: t[1:] for h, lines in sections if h[0] == "meta" for t in lines}
            exp = {t[0]: t[1] for h, lines in sections if h[0] == "expected" for t in lines}
            order, cyclic = int(exp["order"]), exp["cyclic"] == "yes"
            vk = meta["kind"] == ["vankampen"]
            self.files.append((path, sections if vk else None, meta["id"][0], order, cyclic))

    def _check_report(self, sid, order, cyclic):
        free, torsion = expected_invariants(order, cyclic)

        def check(report, exc):
            if exc is not None:
                return False
            inv = report.abelianization
            return (
                report.scenario == sid
                and report.verdict == "pass"
                and report.error is None
                and report.order == order
                and report.cyclic == cyclic
                and inv is not None
                and (inv.free_rank, tuple(inv.torsion)) == (free, torsion)
            )

        return check

    def pass_ops(self, k):
        rng = pass_rng(self.name, self.seed, k)
        sc = self.sc
        ops = []
        variants = []
        for path, sections, sid, order, cyclic in self.files:
            if sections is not None:
                sections = relabel_vankampen(sections, rng)
                variants.append((sid, sections))
                path = self.dir / path.name
                path.write_text(render_scn(sections), encoding="utf-8")
            ops.append(
                Op(
                    "close",
                    f"catalogue:{sid}",
                    lambda p=path: sc.run_scenario(sc.load_scenario(p)),
                    self._check_report(sid, order, cyclic),
                    cosets=order,
                    group="scenario",
                )
            )
        for i, how in enumerate(self.MUTATIONS):
            sid, bad, expect = mutate(variants, how, rng)
            path = self.dir / "reject" / f"{i}.scn"
            path.write_text(render_scn(bad), encoding="utf-8")
            ops.append(
                Op(
                    "reject",
                    f"catalogue:reject:{how}:{sid}",
                    lambda p=path: sc.load_scenario(p),
                    lambda r, exc, expect=expect: type(exc).__name__ == expect,
                    group="reject",
                )
            )
        rng.shuffle(ops)
        return ops

    def inputs_digest(self, k):
        self.pass_ops(k)
        h = hashlib.sha256()
        for path in sorted(self.dir.rglob("*.scn")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


# -- enum ------------------------------------------------------------------


def coxeter_relators(ngens, labels):
    """s_i^2 and (s_i s_j)^m_ij, with m_ij = 2 unless given in labels."""
    rels = [(i + 1, i + 1) for i in range(ngens)]
    for i in range(ngens):
        for j in range(i + 1, ngens):
            rels.append((i + 1, j + 1) * labels.get((i, j), 2))
    return rels


def coxeter_a(n):
    return n, coxeter_relators(n, {(i, i + 1): 3 for i in range(n - 1)})


def coxeter_b(n):
    labels = {(i, i + 1): 3 for i in range(n - 1)}
    labels[(0, 1)] = 4
    return n, coxeter_relators(n, labels)


def coxeter_d(n):
    labels = {(i, i + 1): 3 for i in range(1, n - 1)}
    labels[(0, 2)] = 3
    return n, coxeter_relators(n, labels)


def triangle_237(k):
    """<a, b | a^2, b^3, (ab)^7, [a, b]^k>."""
    return 2, [(1, 1), (2, 2, 2), (1, 2) * 7, (1, 2, -1, -2) * k]


# (family, label, build, closed-form order); orders from the Handbook of
# Computational Group Theory, ch. 5 and the literature on (2,3,7;k) groups:
# |W(A_n)| = (n+1)!, |W(B_n)| = 2^n n!, |W(D_n)| = 2^(n-1) n!,
# (2,3,7;4) = PSL(2,7), (2,3,7;7) = PSL(2,13), (2,3,7;8) has order 10752.
ENUM_MENU = (
    ("coxeter", "A3", lambda: coxeter_a(3), factorial(4)),
    ("coxeter", "B3", lambda: coxeter_b(3), 2**3 * factorial(3)),
    ("coxeter", "A4", lambda: coxeter_a(4), factorial(5)),
    ("coxeter", "A5", lambda: coxeter_a(5), factorial(6)),
    ("coxeter", "A6", lambda: coxeter_a(6), factorial(7)),
    ("coxeter", "B4", lambda: coxeter_b(4), 2**4 * factorial(4)),
    ("coxeter", "B5", lambda: coxeter_b(5), 2**5 * factorial(5)),
    ("coxeter", "D4", lambda: coxeter_d(4), 2**3 * factorial(4)),
    ("longrel", "237;4", lambda: triangle_237(4), 168),
    ("longrel", "237;7", lambda: triangle_237(7), 1092),
    ("longrel", "237;8", lambda: triangle_237(8), 10752),
    ("cyclic", "Z450", lambda: (1, [(1,) * 450]), 450),
    ("cyclic", "Z700", lambda: (1, [(1,) * 700]), 700),
    ("cyclic", "Z1000", lambda: (1, [(1,) * 1000]), 1000),
    ("cyclic", "Z1500", lambda: (1, [(1,) * 1500]), 1500),
)

# Infinite groups: the free group of rank 2, Z^2 and the hyperbolic (2,3,7)
# triangle group.  Each must stop with CosetLimitExceeded at the limit.
ENUM_REJECTS = (
    ("F2", lambda: (2, [])),
    ("Z2", lambda: (2, [(1, 2, -1, -2)])),
    ("237", lambda: (2, [(1, 1), (2, 2, 2), (1, 2) * 7])),
)
REJECT_COSET_LIMIT = 4000


def relabel_presentation(ngens, rels, rng):
    """Permute generators, rotate each relator and invert it half the time."""
    perm = list(range(1, ngens + 1))
    rng.shuffle(perm)
    names = [f"x{i}" for i in rng.sample(range(10 * ngens), ngens)]
    out = []
    for w in rels:
        w = tuple(perm[abs(x) - 1] * (1 if x > 0 else -1) for x in w)
        r = rng.randrange(len(w))
        w = w[r:] + w[:r]
        if rng.random() < 0.5:
            w = tuple(-x for x in reversed(w))
        out.append(w)
    return tuple(names), tuple(out)


class Enum:
    """Todd-Coxeter on groups of order 24 to 10752, plus infinite rejects."""

    name = "enum"
    trace_passes = 1

    def __init__(self, pkg, seed, root, workdir):
        self.fp = pkg.fpgroup
        self.seed = seed

    def _presentations(self, k):
        rng = pass_rng(self.name, self.seed, k)
        out = []
        for family, label, build, order in ENUM_MENU:
            out.append(("close", family, label, relabel_presentation(*build(), rng), order))
        # Two relabellings of each reject, for twice the samples at the median.
        for label, build in ENUM_REJECTS * 2:
            out.append(("reject", "reject", label, relabel_presentation(*build(), rng), 0))
        rng.shuffle(out)
        return out

    def pass_ops(self, k):
        fp = self.fp
        ops = []
        for kind, family, label, (names, rels), order in self._presentations(k):
            p = fp.Presentation(names, rels)
            if kind == "close":
                ops.append(
                    Op(
                        "close",
                        f"enum:{family}:{label}",
                        lambda p=p: fp.todd_coxeter_order(p),
                        lambda r, exc, order=order: exc is None and r == order,
                        cosets=order,
                        group=family,
                    )
                )
            else:
                ops.append(
                    Op(
                        "reject",
                        f"enum:reject:{label}",
                        lambda p=p: fp.todd_coxeter_order(p, REJECT_COSET_LIMIT),
                        lambda r, exc: isinstance(exc, fp.CosetLimitExceeded),
                        group="reject",
                    )
                )
        return ops

    def inputs_digest(self, k):
        return hashlib.sha256(repr(self._presentations(k)).encode()).hexdigest()


# -- smith -----------------------------------------------------------------


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_unimodular(n, rng, inverse=True):
    """(Q, Q^-1) with Q = Pi L R: a row permutation of a unit lower times a
    unit upper triangular matrix with entries in {-1, 0, 1}.  Q^-1 is None
    unless asked for."""
    low = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    q = matmul(low, up)
    q = [q[i] for i in perm]
    if not inverse:
        return q, None
    # (Pi L R)^-1 = R^-1 L^-1 Pi^-1; unit triangular inverses by substitution
    low_inv = identity(n)
    for i in range(n):
        for j in range(i):
            low_inv[i][j] = -sum(low[i][k] * low_inv[k][j] for k in range(j, i))
    up_inv = identity(n)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            up_inv[i][j] = -sum(up[i][k] * up_inv[k][j] for k in range(i + 1, j + 1))
    li_pt = [[row[perm[j]] for j in range(n)] for row in low_inv]
    return q, matmul(up_inv, li_pt)


def sparse_unimodular(n, rng, inverse=True):
    """(Q, Q^-1) from n elementary row additions with multiplier +-1; Q^-1
    is None unless asked for."""
    q, qinv = identity(n), identity(n) if inverse else None
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        q[i] = [a + s * b for a, b in zip(q[i], q[j])]
        for row in qinv or ():
            row[j] -= s * row[i]
    return q, qinv


# (shape, n, rows, rank, torsion); torsion is planted on the last diagonal
# entries, so the cokernel is Z^(n - rank) + sum of Z/d.  Full-rank shapes
# use a fixed torsion so their lattice index, the numerator of cosets_per_s,
# does not depend on the seed.
SMITH_MENU = tuple(
    [("dense", n, n, n, (2, 6)) for n in (10, 20, 30, 40)]
    + [("deficient", n, n, n - n // 5, (3, 9)) for n in (10, 20, 30, 40)]
    + [("sparse", n, n + n // 5, n, (2, 6, 12)) for n in (20, 35, 50)]
)


@dataclass
class Planted:
    shape: str
    rows: list
    q: list
    qinv: list
    diag: tuple  # Smith diagonal, length min(m, n)
    rank: int
    torsion: tuple
    ncols: int


def planted_matrix(shape, n, m, rank, torsion, rng):
    """A = P D Q with P, Q unimodular and D the planted Smith form."""
    make = sparse_unimodular if shape == "sparse" else dense_unimodular
    p, _ = make(m, rng, inverse=False)
    q, qinv = make(n, rng)
    diag = (1,) * (rank - len(torsion)) + torsion + (0,) * (min(m, n) - rank)
    # P D is P with column i scaled by d_i (and columns past the rank dropped)
    pd = [[row[i] * diag[i] for i in range(rank)] for row in p]
    rows = matmul(pd, q[:rank])
    return Planted(shape, rows, q, qinv, diag, rank, torsion, n)


def det_mod(a, prime):
    """Determinant modulo a prime by Gaussian elimination."""
    m = [[x % prime for x in row] for row in a]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % prime
        inv = pow(m[c][c], -1, prime)
        for r in range(c + 1, n):
            f = m[r][c] * inv % prime
            if f:
                m[r] = [(x - f * y) % prime for x, y in zip(m[r], m[c])]
    return det % prime


CHECK_PRIMES = (2**61 - 1, 2**31 - 1)


def unimodular_mod_primes(a):
    return all(det_mod(a, p) in (1, p - 1) for p in CHECK_PRIMES)


def check_snf(res, a: Planted, rng):
    """U A V = D (Freivalds' test with two random vectors, exact integers),
    D the planted diagonal, U and V of determinant +-1 modulo two primes."""
    m, n = len(a.rows), a.ncols
    d = res.d.to_rows()
    if (res.d.rows, res.d.cols) != (m, n):
        return False
    if any(d[i][j] != (a.diag[i] if i == j else 0) for i in range(m) for j in range(n)):
        return False
    u, v = res.u.to_rows(), res.v.to_rows()
    for _ in range(2):
        x = [rng.getrandbits(64) for _ in range(n)]
        if matvec(u, matvec(a.rows, matvec(v, x))) != matvec(d, x):
            return False
    return unimodular_mod_primes(u) and unimodular_mod_primes(v)


def check_hnf(res, a: Planted):
    """Row Hermite form of the same lattice: echelon with positive pivots and
    reduced entries above them, every row of A in its span (exact
    back-substitution), every row of H in the planted lattice z Q with
    z_i in d_i Z (i < rank) and z_i = 0 beyond."""
    h = res.to_rows()
    if len(h) != a.rank or res.cols != a.ncols:
        return False
    pivots = []
    for i, row in enumerate(h):
        pc = next((j for j, x in enumerate(row) if x), None)
        if pc is None or row[pc] <= 0 or (pivots and pc <= pivots[-1]):
            return False
        if any(not 0 <= h[r][pc] < row[pc] for r in range(i)):
            return False
        pivots.append(pc)
    for vec in a.rows:
        vec = list(vec)
        for row, pc in zip(h, pivots):
            q, r = divmod(vec[pc], row[pc])
            if r:
                return False
            if q:
                vec = [x - q * y for x, y in zip(vec, row)]
        if any(vec):
            return False
    qinv_t = [list(col) for col in zip(*a.qinv)]
    for row in h:
        z = matvec(qinv_t, row)
        if any(z[i] % a.diag[i] for i in range(a.rank)) or any(z[a.rank :]):
            return False
    return True


class Smith:
    """Cokernel, Smith and Hermite forms of planted matrices, 10x10 to 60x50."""

    name = "smith"
    trace_passes = 3

    def __init__(self, pkg, seed, root, workdir):
        self.il = pkg.intlin
        self.seed = seed

    def _matrices(self, k):
        rng = pass_rng(self.name, self.seed, k)
        return [planted_matrix(*spec, rng=rng) for spec in SMITH_MENU], rng

    def pass_ops(self, k):
        il = self.il
        planted, rng = self._matrices(k)
        check_rng = random.Random(rng.getrandbits(64))
        ops = []
        for a in planted:
            mat = il.IntMatrix.from_rows(a.rows)
            n = a.ncols
            size = f"n{n}"
            expect_inv = (n - a.rank, a.torsion)
            index = 1
            for t in a.torsion:
                index *= t
            full = a.rank == n
            ops.append(
                Op(
                    "close",
                    f"smith:cokernel:{a.shape}:{size}",
                    lambda mat=mat, n=n: il.cokernel_invariants(mat, n),
                    lambda r, exc, e=expect_inv: exc is None
                    and (r.free_rank, tuple(r.torsion)) == e,
                    cosets=index if full else 0,
                    group=size,
                )
            )
            ops.append(
                Op(
                    "close",
                    f"smith:snf:{a.shape}:{size}",
                    lambda mat=mat: il.smith_normal_form(mat),
                    lambda r, exc, a=a: exc is None and check_snf(r, a, check_rng),
                    group=size,
                )
            )
            ops.append(
                Op(
                    "close",
                    f"smith:hnf:{a.shape}:{size}",
                    lambda mat=mat: il.hermite_normal_form(mat),
                    lambda r, exc, a=a: exc is None and check_hnf(r, a),
                    group=size,
                )
            )
            # Row of Q at the largest invariant: its z-coordinates are a unit
            # vector e_i with d_i > 1, so it lies outside the lattice.
            outside = a.q[a.rank - 1]
            ops.append(
                Op(
                    "reject",
                    f"smith:member:{a.shape}:{size}",
                    lambda mat=mat, v=outside: il.lattice_contains(mat, v),
                    lambda r, exc: exc is None and r is False,
                    group=size,
                )
            )
        rng.shuffle(ops)
        return ops

    def inputs_digest(self, k):
        planted, _ = self._matrices(k)
        return hashlib.sha256(repr([a.rows for a in planted]).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Catalogue, Enum, Smith)}
