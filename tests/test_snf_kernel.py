"""Differential tests of the Smith-form kernel.

``intlin._snf_core`` builds only the transforms it is asked for (U, V or
both).  Against the kernel it replaced (``tests/reference_snf.py``, which
always builds U, V and V^-1) it must return the same diagonal form, rank and
requested transforms, bit for bit, for every choice of transforms.
``saturation`` reads U only; it must equal the Hermite form of the first
rank rows of the reference kernel's V^-1.  The public results are also
compared with sympy's Smith form over ZZ when sympy is installed.
"""

import io
import itertools
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

ACCUMULATORS = ("u", "v")
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


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_every_accumulator_subset_matches_reference(index):
    label, rows = CORPUS[index]
    want = reference_snf_core(rows)
    for subset in SUBSETS:
        got = intlin._snf_core(rows, **{name: True for name in subset})
        assert got[0] == want[0], (label, subset, "m")
        assert got[3] == want[4], (label, subset, "rank")
        for slot, name in enumerate(ACCUMULATORS, start=1):
            if name in subset:
                assert got[slot] == want[slot], (label, subset, name)
            else:
                assert got[slot] is None, (label, subset, name)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_saturation_matches_reference_vinv(index):
    label, rows = CORPUS[index]
    a = IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
    _m, _u, _v, vinv, rank = reference_snf_core(rows)
    want = hermite_normal_form(IntMatrix.from_rows(vinv[:rank], cols=a.cols))
    assert saturation(a) == want, label


def test_input_rows_are_not_modified():
    rows = [[4, 6], [6, 9], [2, -3]]
    intlin._snf_core(rows, u=True, v=True)
    assert rows == [[4, 6], [6, 9], [2, -3]]


def reference_without_vinv(rows_in, **_):
    """The reference kernel in place of ``_snf_core``: U and V always built."""
    m, u, v, _vinv, rank = reference_snf_core(rows_in)
    return m, u, v, rank


def snf_cli(monkeypatch, capsys, text, fmt):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["snf", "--format", fmt]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_snf_cli_output_matches_reference_kernel(monkeypatch, capsys, fmt):
    samples = [label_rows[1] for label_rows in CORPUS[3::17] if label_rows[1]]
    for rows in samples:
        text = "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
        with monkeypatch.context() as patch:
            patch.setattr(intlin, "_snf_core", reference_without_vinv)
            want = snf_cli(patch, capsys, text, fmt)
        assert snf_cli(monkeypatch, capsys, text, fmt) == want


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


def largest_pivot(m, t, rows):
    """A broken pivot search: the entry of largest absolute value."""
    cells = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, len(m[i])) if m[i][j]]
    if not cells:
        return None
    _a, i, j = max(cells)
    return i, j


@pytest.mark.parametrize("rows", [[[2, 3]], [[4, 6, 9], [10, 15, 7]], [[3, 0], [0, 5]]])
def test_pivot_that_does_not_shrink_fails_fast(rows, monkeypatch):
    monkeypatch.setattr(intlin, "_min_pivot", largest_pivot)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="did not shrink at diagonal position 0"):
        cokernel_invariants(IntMatrix.from_rows(rows), len(rows[0]))
    assert time.perf_counter() - start < 1.0
