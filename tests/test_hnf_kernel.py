"""Differential tests of the row-insertion Hermite kernel.

``intlin.hermite_normal_form`` inserts rows one at a time into a basis kept
in Hermite form.  The Hermite form of a lattice is unique, so against the
column-Euclid kernel it replaced (``tests/reference_hnf.py``) it must return
the same matrix, bit for bit, on every seeded input: the Smith-kernel
corpus, planted dense, rank-deficient and sparse matrices up to 20 x 20,
sparse ones up to 45 x 45, entries up to 10^6 in absolute value, and empty
and all-zero shapes.
``cokernel_invariants`` reads the Smith diagonal of the Hermite rows; it
must match the diagonal the reference Smith kernel gives on the input
itself.  Row permutations and unimodular row operations leave the lattice,
and so its Hermite form, unchanged.
"""

import random

import pytest

from reference_hnf import reference_hermite_normal_form
from reference_snf import reference_snf_core
from stablepi1.intlin import AbelianInvariants, IntMatrix, cokernel_invariants, hermite_normal_form
from test_snf_kernel import CORPUS, matmul, planted, random_rows, unimodular


def sparse(rng, r, c):
    """Mostly zero rows: a unit diagonal with some +-1 and +-2 entries."""
    rows = [[int(i == j) for j in range(c)] for i in range(r)]
    for _ in range(rng.randint(1, r + c)):
        rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((-2, -1, 1, 2))
    return rows


def hnf_corpus():
    """(label, rows, cols) triples: the Smith corpus and larger seeded shapes."""
    cases = [(label, rows, len(rows[0]) if rows else 0) for label, rows in CORPUS]
    cases += [("0x5", [], 5), ("4x0", [[]] * 4, 0), ("zero 3x4", [[0] * 4] * 3, 4)]
    rng = random.Random(20261019)
    for _ in range(30):
        r, c = rng.randint(2, 20), rng.randint(2, 20)
        cases.append(("planted dense", planted(rng, r, c), c))
    for _ in range(30):
        r, c = rng.randint(2, 20), rng.randint(2, 20)
        k = rng.randint(1, min(r, c) - 1) if min(r, c) > 1 else 1
        rows = matmul(random_rows(rng, r, k, -5, 5), random_rows(rng, k, c, -5, 5))
        cases.append(("rank-deficient", rows, c))
    for _ in range(30):
        r, c = rng.randint(2, 20), rng.randint(2, 20)
        cases.append(("sparse", sparse(rng, r, c), c))
    for _ in range(30):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(("large entries", random_rows(rng, r, c, -10**6, 10**6), c))
    # wide enough that mostly-zero basis rows are updated column by column
    for _ in range(20):
        r, c = rng.randint(20, 45), rng.randint(20, 45)
        cases.append(("wide sparse", sparse(rng, r, c), c))
    return cases


HNF_CORPUS = hnf_corpus()


def test_corpus_covers_every_shape():
    assert len(HNF_CORPUS) >= 440
    assert {label for label, _rows, _cols in HNF_CORPUS} >= {
        "empty", "0x5", "4x0", "zero 3x4", "planted dense", "rank-deficient", "sparse",
        "large entries", "wide sparse",
    }
    assert max(len(rows) for label, rows, _cols in HNF_CORPUS if label == "planted dense") == 20


@pytest.mark.parametrize("index", range(len(HNF_CORPUS)))
def test_hermite_form_matches_reference(index):
    label, rows, cols = HNF_CORPUS[index]
    a = IntMatrix.from_rows(rows, cols=cols)
    assert hermite_normal_form(a) == reference_hermite_normal_form(a), label


@pytest.mark.parametrize("index", range(len(HNF_CORPUS)))
def test_cokernel_matches_reference_smith_diagonal(index):
    label, rows, cols = HNF_CORPUS[index]
    m, _u, _v, _vinv, rank = reference_snf_core(rows)
    want = AbelianInvariants(cols - rank, tuple(m[i][i] for i in range(rank) if m[i][i] > 1))
    assert cokernel_invariants(IntMatrix.from_rows(rows, cols=cols), cols) == want, label


def test_row_operations_leave_the_hermite_form_unchanged():
    rng = random.Random(5)
    for label, rows, cols in HNF_CORPUS[::3]:
        if not rows:
            continue
        u = unimodular(len(rows), rng) if len(rows) > 1 else [[-1]]
        moved = matmul(u, rows)
        rng.shuffle(moved)
        want = hermite_normal_form(IntMatrix.from_rows(rows, cols=cols))
        assert hermite_normal_form(IntMatrix.from_rows(moved, cols=cols)) == want, label
