"""Differential tests of the Smith-form kernel.

``intlin._smith_rows`` takes Hermite rows H of full row rank and
alternates Hermite insertion of their columns and rows; the rows of U and
V^T ride along, each from given starting rows, so only the transforms a
caller asks for are built.  On the Hermite rows of every corpus matrix it
must return the diagonal and rank of the reference kernel
(``tests/reference_snf.py``, an earlier pivot-search kernel), with
U*H*V = D and U, V unimodular, the same U and V whichever of them are asked
for, and U times the starting rows.  ``saturation`` reads U only; it must
equal the Hermite form of the first rank rows of the reference kernel's
V^-1.  ``smith_normal_form`` runs the kernel on the Hermite rows, so its U
and V stay small on dense input.  The public results are also compared with
sympy's Smith form over ZZ when sympy is installed.
"""

import copy
import io
import itertools
import json
import random
import sys
import time

import pytest

from reference_snf import reference_snf_core
from stablepi1 import intlin
from stablepi1.cli import main
from stablepi1.intlin import (
    IntMatrix,
    cokernel_invariants,
    hermite_normal_form,
    saturation,
    smith_normal_form,
)

ACCUMULATORS = ("u", "vt")
SUBSETS = [
    frozenset(combo)
    for k in range(len(ACCUMULATORS) + 1)
    for combo in itertools.combinations(ACCUMULATORS, k)
]


def random_rows(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def unimodular(n, rng):
    """Product of n elementary row additions with multipliers in [-2, 2]."""
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-2, -1, 1, 2))
        q[i] = [a + s * b for a, b in zip(q[i], q[j])]
    return q


def planted(rng, r, c):
    """P D Q with P, Q unimodular and a divisibility chain on D's diagonal."""
    k = min(r, c)
    rank = rng.randint(k - k // 4, k)
    diag = []
    d = 1
    for _ in range(rank):
        d *= rng.choice((1, 1, 1, 2, 3))
        diag.append(d)
    pd = [[row[i] * diag[i] for i in range(rank)] for row in unimodular(r, rng)]
    return matmul(pd, unimodular(c, rng)[:rank])


def corpus():
    """(label, rows) pairs: 323 seeded matrices of every awkward shape."""
    rng = random.Random(20240611)
    cases = [("empty", []), ("zero-width", [[], [], []]), ("1x1 zero", [[0]])]
    for _ in range(20):
        cases.append(("1x1", [[rng.randint(-50, 50)]]))
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(("square-ish", random_rows(rng, r, c)))
    for _ in range(40):
        c = rng.randint(1, 4)
        cases.append(("tall", random_rows(rng, rng.randint(c + 2, 9), c)))
    for _ in range(40):
        r = rng.randint(1, 4)
        cases.append(("wide", random_rows(rng, r, rng.randint(r + 2, 9))))
    for _ in range(50):
        r, c, k = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 2)
        rows = matmul(random_rows(rng, r, k, -4, 4), random_rows(rng, k, c, -4, 4))
        cases.append(("rank-deficient", rows))
    for _ in range(30):
        rows = random_rows(rng, rng.randint(2, 6), rng.randint(1, 6))
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
        cases.append(("zero rows", rows))
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(("negative", random_rows(rng, r, c, -30, -1)))
    for _ in range(20):
        rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(8)] for _ in range(10)]
        cases.append(("sparse", rows))
    for _ in range(30):
        r, c = rng.randint(10, 20), rng.randint(10, 20)
        cases.append(("planted", planted(rng, r, c)))
    return cases


CORPUS = corpus()


def test_corpus_size_and_shapes():
    assert len(CORPUS) >= 300
    assert {label for label, _ in CORPUS} >= {
        "empty", "1x1", "tall", "wide", "rank-deficient", "zero rows", "negative", "planted",
    }


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def hermite_rows(rows):
    """The rows the kernel is handed: the Hermite rows of ``rows``."""
    width = len(rows[0]) if rows else 0
    return intlin._hermite_rows([list(row) for row in rows], width)[0], width


def smith_rows(h, width, subset):
    starts = {"u": identity_rows(len(h)), "vt": identity_rows(width)}
    return intlin._smith_rows(h, **{name: starts[name] for name in subset})


def assert_unimodular(rows):
    assert abs(IntMatrix.from_rows(rows, cols=len(rows)).det()) == 1


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_every_accumulator_subset_matches_reference(index):
    label, rows = CORPUS[index]
    m, _u, _v, _vinv, rank = reference_snf_core(rows)
    h, width = hermite_rows(rows)
    diag, u, vt = smith_rows(h, width, SUBSETS[-1])
    assert diag == [m[i][i] for i in range(rank)], label
    d = [[diag[i] if i == j else 0 for j in range(width)] for i in range(rank)]
    if h:
        assert matmul(matmul(u, h), [list(col) for col in zip(*vt)]) == d, label
        assert_unimodular(u)
    if width:
        assert_unimodular(vt)
    for subset in SUBSETS:
        got = smith_rows(h, width, subset)
        assert got[0] == diag, (label, subset)
        for slot, name, want in ((1, "u", u), (2, "vt", vt)):
            if name in subset:
                assert got[slot] == want, (label, subset, name)
            else:
                assert not any(got[slot]), (label, subset, name)  # empty rows


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_seeded_u_is_reference_u_times_seed(index):
    label, rows = CORPUS[index]
    h, width = hermite_rows(rows)
    rng = random.Random(index)
    u_seed = random_rows(rng, len(h), len(h) + 2, -3, 3)
    vt_seed = random_rows(rng, width, width + 2, -3, 3)
    diag, u, vt = intlin._smith_rows(h, identity_rows(len(h)), identity_rows(width))
    for with_vt in (False, True):
        got = intlin._smith_rows(h, u_seed, vt_seed if with_vt else None)
        assert got[0] == diag, label
        assert got[1] == matmul(u, u_seed), label
        assert (got[2] == matmul(vt, vt_seed)) if with_vt else not any(got[2]), label


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_saturation_matches_reference_vinv(index):
    label, rows = CORPUS[index]
    a = IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
    _m, _u, _v, vinv, rank = reference_snf_core(rows)
    want = hermite_normal_form(IntMatrix.from_rows(vinv[:rank], cols=a.cols))
    assert saturation(a) == want, label


def test_input_rows_are_not_modified():
    # the second input is diagonal after its column pass, so the chain step
    # acts on the starting rows of U before any row pass has copied them
    for rows, want in (([[4, 6], [6, 9], [2, -3]], [1, 12]), ([[2, 0], [0, 3]], [1, 6])):
        h, width = hermite_rows(rows)
        u, vt = identity_rows(len(h)), identity_rows(width)
        before = copy.deepcopy((rows, h, u, vt))
        diag, _u, _vt = intlin._smith_rows(h, u, vt)
        assert diag == want
        intlin._smith_rows(h, h)
        assert (rows, h, u, vt) == before


def snf_cli(monkeypatch, capsys, text, fmt):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["snf", "--format", fmt]) == 0
    return capsys.readouterr().out


def render(res, fmt):
    """What ``snf`` prints for the result ``res``."""
    if fmt == "json":
        out = {"d": res.d.to_rows(), "u": res.u.to_rows(), "v": res.v.to_rows()}
        return json.dumps({**out, "diagonal": list(res.diagonal())}, indent=2) + "\n"
    return "".join(f"{name} =\n{mat}\n" for name, mat in (("D", res.d), ("U", res.u), ("V", res.v)))


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_snf_cli_output_matches_reference_kernel(monkeypatch, capsys, fmt):
    samples = [label_rows[1] for label_rows in CORPUS[3::17] if label_rows[1]]
    for rows in samples:
        text = "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
        a = IntMatrix.from_rows(rows)
        res = smith_normal_form(a)
        assert res.d == IntMatrix.from_rows(reference_snf_core(rows)[0]), rows
        assert res.u.mul(a).mul(res.v) == res.d, rows
        assert abs(res.u.det()) == 1 and abs(res.v.det()) == 1, rows
        assert snf_cli(monkeypatch, capsys, text, fmt) == render(res, fmt)


def dense_planted(rng, n, diag):
    """L D R with L, R unit triangular, entries in {-1, 0, 1}, rows shuffled."""
    def unit_triangular(lower):
        return [
            [1 if i == j else rng.choice((-1, 0, 1)) if (j < i if lower else j > i) else 0
             for j in range(n)]
            for i in range(n)
        ]

    ld = [[x * d for x, d in zip(row, diag)] for row in unit_triangular(True)]
    rows = matmul(ld, unit_triangular(False))
    rng.shuffle(rows)
    return rows


def transform_inputs():
    """A planted dense 40 x 40 matrix, on which the raw kernel's U and V
    reached hundreds of bits, and sparse ones wide enough that mostly zero
    basis rows are updated column by column in the Hermite step."""
    rng = random.Random(40)
    cases = [("dense 40x40", dense_planted(rng, 40, [1] * 38 + [2, 6]))]
    for _ in range(8):
        r, c = rng.randint(20, 40), rng.randint(20, 40)
        rows = [[int(i == j) for j in range(c)] for i in range(r)]
        for _ in range(r + c):
            rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((-2, -1, 1, 2, 3))
        cases.append(("sparse", rows))
    return cases


@pytest.mark.parametrize("label, rows", transform_inputs())
def test_transforms_are_exact_and_small(label, rows):
    a = IntMatrix.from_rows(rows)
    res = smith_normal_form(a)
    assert res.d == IntMatrix.from_rows(reference_snf_core(rows)[0]), label
    assert res.u.mul(a).mul(res.v) == res.d, label
    bits = max(abs(x).bit_length() for x in res.u.entries + res.v.entries)
    assert bits <= 128, (label, bits)
    assert abs(res.u.det()) == 1 and abs(res.v.det()) == 1, label


HERMITE_INPUTS = [
    # saturated fbar coordinates of E1 and E5: what eplus_presentation passes
    (
        [[1, 0, 0, 0], [0, 1, 0, 2]],
        {
            "d": [[1, 0, 0, 0], [0, 1, 0, 0]],
            "u": [[1, 0], [0, 1]],
            "v": [[1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 0], [0, 0, 0, 1]],
            "diagonal": [1, 1],
        },
    ),
    (
        [[5, 0, -2, 0], [0, 1, 0, 0]],
        {
            "d": [[1, 0, 0, 0], [0, 1, 0, 0]],
            "u": [[1, 0], [0, 1]],
            "v": [[1, 0, 2, 0], [0, 1, 0, 0], [2, 0, 5, 0], [0, 0, 0, 1]],
            "diagonal": [1, 1],
        },
    ),
]


@pytest.mark.parametrize("rows, want", HERMITE_INPUTS)
def test_snf_of_a_hermite_matrix_keeps_its_transforms(monkeypatch, capsys, rows, want):
    # inserting the rows of a Hermite form changes nothing, so U and V are
    # those of the kernel on the matrix itself
    text = "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
    assert json.loads(snf_cli(monkeypatch, capsys, text, "json")) == want


def random_hermite(rng):
    """A random Hermite form: pivot columns strictly increasing, positive
    pivots, entries above a pivot in [0, pivot), anything right of it."""
    c = rng.randint(1, 7)
    pivots = sorted(rng.sample(range(c), rng.randint(1, c)))
    rows = []
    for p in pivots:
        row = [0] * p + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(c - p - 1)]
        rows.append(row)
    for i, p in enumerate(pivots):
        for h in rows[:i]:
            h[p] = rng.randrange(rows[i][p])
    return rows


def hermite_corpus():
    rng = random.Random(16)
    out = [random_hermite(rng) for _ in range(300)]
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        out.append(hermite_normal_form(IntMatrix.from_rows(random_rows(rng, r, c))).to_rows())
    return [rows for rows in out if rows]


def test_augmented_insertion_of_a_hermite_input_returns_it():
    """Inserting the rows of a Hermite form A, each followed by its row of
    the identity, changes nothing: every row joins the basis at its pivot,
    with nothing above it to reduce, so the basis is [A | I] and no row
    reaches the kernel.  The Smith kernel then starts from H = A, U1 = I."""
    for rows in hermite_corpus():
        a = IntMatrix.from_rows(rows)
        basis, kernel = intlin._hermite_with_identity(a)
        assert basis == [row + [int(i == j) for j in range(a.rows)] for i, row in enumerate(rows)]
        assert kernel == []
        res = smith_normal_form(a)
        assert res.u.mul(a).mul(res.v) == res.d


def oracle_matrices():
    rng = random.Random(7)
    out = []
    for k in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if k % 4 == 0:
            inner = rng.randint(1, min(r, c))
            rows = matmul(random_rows(rng, r, inner, -3, 3), random_rows(rng, inner, c, -3, 3))
            rows = [[max(-9, min(9, x)) for x in row] for row in rows]
        else:
            rows = random_rows(rng, r, c)
        out.append(rows)
    return out


def test_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.domains import ZZ

    shapes = set()
    for rows in oracle_matrices():
        r, c = len(rows), len(rows[0])
        shapes.add("tall" if r > c else "wide" if r < c else "square")
        a = IntMatrix.from_rows(rows)
        s = sympy.Matrix(rows)
        want_diag = tuple(abs(int(s_ij)) for s_ij in sympy_snf(s, domain=ZZ).diagonal())
        assert smith_normal_form(a).diagonal() == want_diag, rows
        factors = [abs(int(f)) for f in invariant_factors(s, domain=ZZ)]
        nonzero = [f for f in factors if f]
        assert list(want_diag[: len(nonzero)]) == nonzero, rows
        inv = cokernel_invariants(a, c)
        assert inv.free_rank == c - len(nonzero), rows
        assert inv.torsion == tuple(f for f in nonzero if f > 1), rows
    assert shapes == {"tall", "wide", "square"}


@pytest.mark.parametrize("rows", [[[2, 3]], [[4, 6, 9], [10, 15, 7]], [[3, 0], [0, 5]]])
def test_pivot_that_does_not_shrink_fails_fast(rows, monkeypatch):
    # a broken round that changes nothing; [[3, 0], [0, 5]] is diagonal but
    # breaks the chain, which only a round can mend
    monkeypatch.setattr(intlin, "_smith_round", lambda m, u, vt: (m, u, vt))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="did not shrink at diagonal position 0"):
        cokernel_invariants(IntMatrix.from_rows(rows), len(rows[0]))
    assert time.perf_counter() - start < 1.0
