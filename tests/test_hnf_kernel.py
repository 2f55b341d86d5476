"""Differential tests of the row-insertion Hermite kernel.

``intlin.hermite_normal_form`` inserts rows one at a time into a basis kept
in Hermite form.  The Hermite form of a lattice is unique, so against the
column-Euclid kernel it replaced (``tests/reference_hnf.py``) it must return
the same matrix, bit for bit, on every seeded input: the Smith-kernel
corpus, planted dense, rank-deficient and sparse matrices up to 20 x 20,
sparse ones up to 45 x 45, entries up to 10^6 in absolute value, and empty
and all-zero shapes.
``cokernel_invariants`` reads the Smith diagonal of the kernel's echelon
basis, without the final reduction, with its unit pivots eliminated first
by substitution; it must match the diagonal the reference Smith kernel
gives on the input itself, on lattices whose Hermite pivots are all 1, some
1 and none 1 among the rest, and the planted invariants of P*D*Q matrices
up to 40 x 40 whose unit pivots sit between non-unit ones.
``lattice_contains`` solves on the same echelon basis; it must agree with
``solve_integral`` on the Hermite form, and with the planted lattice.  Row
permutations and unimodular row operations leave the lattice, and so its
Hermite form, unchanged.

The kernel reduces only the rows each insertion changed and, for the
callers that read H, every row once at the end.  When a row with riders
vanishes, it takes that row back, reduces the whole basis, inserts the row
again and from then on reduces the whole basis after every insertion.  H is
unique, so the reduced rider-free basis must equal the first ``width``
columns of the basis with the identity riding along, and the echelon one
must have H as its Hermite form.  While the rows inserted so far are
independent, the transform riding along is unique, so every transform must
be the one the kernel gave when, with riders, it reduced the whole basis
after every insertion (``tests/reference_hermite_schedule.py``): the
augmented basis and kernel, D, U and V of ``smith_normal_form``,
``left_kernel`` and ``saturation``, bit for bit, on the corpora above, on
planted dense, rank-deficient and tall sparse matrices up to 40 x 40, and
on rows that take gcd steps before they vanish, a zero first row and inputs
whose rows all depend on the first.
"""

import random

import pytest

from reference_hermite_schedule import reference_hermite_rows
from reference_hnf import reference_hermite_normal_form
from reference_snf import reference_snf_core
from stablepi1 import intlin
from stablepi1.intlin import (
    AbelianInvariants,
    IntMatrix,
    _deflate,
    _hermite_rows,
    _hermite_with_identity,
    cokernel_invariants,
    hermite_normal_form,
    lattice_contains,
    left_kernel,
    saturation,
    smith_normal_form,
    solve_integral,
)
from test_snf_kernel import CORPUS, matmul, planted, random_rows, unimodular


def pivots_of(h):
    return [next(x for x in row if x) for row in h]


def sparse(rng, r, c):
    """Mostly zero rows: a unit diagonal with some +-1 and +-2 entries."""
    rows = [[int(i == j) for j in range(c)] for i in range(r)]
    for _ in range(rng.randint(1, r + c)):
        rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((-2, -1, 1, 2))
    return rows


def scrambled_hermite(rng, c, pivots, extra):
    """Rows whose Hermite form has ``pivots`` on its diagonal, in random
    increasing columns of c: that form times a unimodular matrix, with
    ``extra`` integer combinations of its rows mixed in."""
    cols = sorted(rng.sample(range(c), len(pivots)))
    h = []
    for p, d in zip(cols, pivots):
        h.append([0] * p + [d] + [rng.randint(-9, 9) for _ in range(p + 1, c)])
    for i, (p, d) in enumerate(zip(cols, pivots)):
        for k in range(i):
            q = h[k][p] // d
            h[k] = [x - q * y for x, y in zip(h[k], h[i])]
    rows = matmul(unimodular(len(h), rng), h)
    rows += matmul(random_rows(rng, extra, len(h), -2, 2), h) if extra else []
    rng.shuffle(rows)
    return rows


def some_units(rng, n):
    pivots = [1, rng.choice((2, 3, 5))] + [rng.choice((1, 2, 3, 4, 6)) for _ in range(n - 2)]
    rng.shuffle(pivots)
    return pivots


def pivot_cases(rng):
    """Lattices whose Hermite pivots are all 1, some 1 and none 1."""
    cases = []
    for label, choose in (
        ("unit pivots", lambda rng, n: [1] * n),
        ("some unit pivots", some_units),
        ("no unit pivots", lambda rng, n: [rng.choice((2, 3, 4, 5, 6)) for _ in range(n)]),
    ):
        for _ in range(15):
            c = rng.randint(2, 20)
            n = rng.randint(2, c)
            cases.append((label, scrambled_hermite(rng, c, choose(rng, n), rng.randint(0, n)), c))
    return cases


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
    return cases + pivot_cases(rng)


HNF_CORPUS = hnf_corpus()


def schedule_corpus():
    """200 seeded matrices: tall, wide, rank-deficient and with zero rows."""
    rng = random.Random(18)
    cases = []
    for _ in range(50):
        c = rng.randint(1, 12)
        cases.append(("tall", random_rows(rng, rng.randint(c + 1, 3 * c), c, -2, 2), c))
    for _ in range(50):
        r = rng.randint(1, 10)
        c = rng.randint(r + 1, 2 * r + 4)
        cases.append(("wide", random_rows(rng, r, c), c))
    for _ in range(50):
        r, c = rng.randint(2, 14), rng.randint(2, 14)
        k = rng.randint(1, min(r, c) - 1)
        rows = matmul(random_rows(rng, r, k, -5, 5), random_rows(rng, k, c, -5, 5))
        cases.append(("rank-deficient", rows, c))
    for _ in range(50):
        r, c = rng.randint(1, 10), rng.randint(1, 10)
        rows = random_rows(rng, r, c)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * c)
        cases.append(("zero rows", rows, c))
    return cases


SCHEDULE_CORPUS = HNF_CORPUS + schedule_corpus()


def pdq_corpus():
    """50 seeded (diagonal, P*D*Q, Q) triples, 16 x 16 to 40 x 40.  Q is
    unit upper triangular, so D*Q is echelon and the Hermite pivots are D's
    nonzero entries: 8 or more entries in [2, 6] between unit ones, and in
    every third matrix 1 to 4 zeros as well.  P mixes the rows unimodularly,
    so the kernel's echelon basis keeps entries above the unit pivots."""
    rng = random.Random(26)
    cases = []
    for k in range(50):
        n = rng.randint(16, 40)
        diag = [1] * n
        for i in rng.sample(range(1, n - 1), rng.randint(8, n // 2)):
            diag[i] = rng.choice((2, 3, 4, 5, 6))
        if k % 3 == 2:
            for i in rng.sample(range(n), rng.randint(1, 4)):
                diag[i] = 0
        q = [[0] * i + [1] + [rng.randint(-2, 2) for _ in range(i + 1, n)] for i in range(n)]
        pd = [[x * d for x, d in zip(row, diag)] for row in unimodular(n, rng)]
        cases.append((diag, matmul(pd, q), q))
    return cases


PDQ_CORPUS = pdq_corpus()


def test_corpus_covers_every_shape():
    assert len(HNF_CORPUS) >= 440
    assert {label for label, _rows, _cols in HNF_CORPUS} >= {
        "empty", "0x5", "4x0", "zero 3x4", "planted dense", "rank-deficient", "sparse",
        "large entries", "wide sparse", "unit pivots", "some unit pivots", "no unit pivots",
    }
    assert max(len(rows) for label, rows, _cols in HNF_CORPUS if label == "planted dense") == 20


@pytest.mark.parametrize("index", range(len(HNF_CORPUS)))
def test_hermite_form_matches_reference(index):
    label, rows, cols = HNF_CORPUS[index]
    a = IntMatrix.from_rows(rows, cols=cols)
    assert hermite_normal_form(a) == reference_hermite_normal_form(a), label


def reference_cokernel(rows, cols):
    m, _u, _v, _vinv, rank = reference_snf_core(rows)
    return AbelianInvariants(cols - rank, tuple(m[i][i] for i in range(rank) if m[i][i] > 1))


@pytest.mark.parametrize("index", range(len(SCHEDULE_CORPUS)))
def test_cokernel_matches_reference_smith_diagonal(index):
    label, rows, cols = SCHEDULE_CORPUS[index]
    want = reference_cokernel(rows, cols)
    assert cokernel_invariants(IntMatrix.from_rows(rows, cols=cols), cols) == want, label


@pytest.mark.parametrize("index", range(len(PDQ_CORPUS)))
def test_cokernel_of_planted_matrices_with_interleaved_unit_pivots(index):
    diag, rows, _q = PDQ_CORPUS[index]
    n = len(diag)
    a = IntMatrix.from_rows(rows)
    assert pivots_of(hermite_normal_form(a).to_rows()) == [d for d in diag if d]
    # D is unsorted: the reference merges its entries into invariant factors
    want = reference_cokernel([[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)], n)
    assert cokernel_invariants(a, n) == want


def test_deflation_substitutes_a_unit_row_into_the_kept_rows_above():
    # x1 = -x2 and 2*x0 = -x1 = x2 with 2*x2 = 0: generated by x0, of order 4.
    # Dropping the unit row and its column without substituting would leave
    # [[2, 0], [0, 2]], which is Z/2 + Z/2.
    rows = [[2, 1, 0], [0, 1, 1], [0, 0, 2]]
    assert _hermite_rows([list(row) for row in rows], 3, echelon=True)[0] == rows
    assert _deflate(rows) == [[2, -1], [0, 2]]
    assert rows == [[2, 1, 0], [0, 1, 1], [0, 0, 2]]
    assert cokernel_invariants(IntMatrix.from_rows(rows), 3) == AbelianInvariants(0, (4,))


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


def test_pivot_cases_have_the_pivots_they_are_named_for():
    seen = set()
    for label, rows, cols in HNF_CORPUS:
        if label.endswith("unit pivots"):
            h = hermite_normal_form(IntMatrix.from_rows(rows, cols=cols)).to_rows()
            units = [d == 1 for d in pivots_of(h)]
            kind = "unit pivots" if all(units) else "no unit pivots" if not any(units) else "some unit pivots"
            assert kind == label
            seen.add(label)
    assert len(seen) == 3


@pytest.mark.parametrize("index", range(len(HNF_CORPUS)))
def test_deflation_keeps_the_other_pivots(index):
    label, rows, cols = HNF_CORPUS[index]
    h = _hermite_rows([list(row) for row in rows], cols)[0]
    m = _deflate(h)
    # the Hermite form of a lattice is unique, so m is one iff it is its own
    assert m == [] or hermite_normal_form(IntMatrix.from_rows(m)).to_rows() == m
    assert pivots_of(m) == [d for d in pivots_of(h) if d != 1], label
    if m:
        assert len(m[0]) == cols - (len(h) - len(m))


def test_all_unit_pivots_never_reach_the_smith_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("entered _smith_rows")

    monkeypatch.setattr(intlin, "_smith_rows", refuse)
    cases = [(rows, cols) for label, rows, cols in HNF_CORPUS if label == "unit pivots"]
    assert len(cases) >= 15
    for rows, cols in cases:
        a = IntMatrix.from_rows(rows, cols=cols)
        h = hermite_normal_form(a)
        assert cokernel_invariants(a, cols) == AbelianInvariants(cols - h.rows, ())
        assert saturation(a) == h


@pytest.mark.parametrize("index", range(len(SCHEDULE_CORPUS)))
def test_rider_free_basis_is_the_augmented_basis_cut_to_width(index):
    # no riders: changed rows reduced after each insertion, every row at the
    # end; the identity riding along: the whole basis after each insertion
    label, rows, cols = SCHEDULE_CORPUS[index]
    a = IntMatrix.from_rows(rows, cols=cols)
    basis, kernel = _hermite_rows(a.to_rows(), cols, echelon=False)
    with_identity, identity_kernel = _hermite_with_identity(a)
    assert basis == [row[:cols] for row in with_identity], label
    assert len(kernel) == len(identity_kernel) and not any(map(any, kernel)), label


ECHELON_CORPUS = SCHEDULE_CORPUS + [("planted P*D*Q", rows, len(d)) for d, rows, _q in PDQ_CORPUS]


def assert_echelon(rows):
    """Nonzero rows, positive pivots in strictly increasing columns."""
    last = -1
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        assert p > last and row[p] > 0
        last = p


@pytest.mark.parametrize("index", range(len(ECHELON_CORPUS)))
def test_deflating_an_echelon_basis_gives_the_lattice_of_the_hermite_form(index):
    # the kernel without its final reduction: an echelon basis of the same
    # lattice.  Deflating it spans what deflating H spans, the vectors of L
    # that vanish at the unit pivot columns, with those columns left out.
    label, rows, cols = ECHELON_CORPUS[index]
    echelon, kernel = _hermite_rows([list(row) for row in rows], cols, echelon=True)
    h, h_kernel = _hermite_rows([list(row) for row in rows], cols)
    assert_echelon(echelon)
    assert len(kernel) == len(h_kernel), label
    assert hermite_normal_form(IntMatrix.from_rows(echelon, cols=cols)).to_rows() == h, label
    before = [list(row) for row in echelon]
    m = _deflate(echelon)
    assert echelon == before, label
    assert_echelon(m)
    assert pivots_of(m) == [d for d in pivots_of(h) if d != 1], label
    assert m == [] or hermite_normal_form(IntMatrix.from_rows(m)).to_rows() == _deflate(h), label


def substitutions(echelon):
    """How many unit rows of an echelon basis are nonzero in the column of a
    kept row above them: the substitutions ``_deflate`` makes."""
    count = 0
    kept = []
    for row, d in zip(echelon, pivots_of(echelon)):
        p = row.index(d)
        if d != 1:
            kept.append(row)
        else:
            count += sum(1 for k in kept if k[p])
    return count


def test_the_echelon_bases_need_the_substitution():
    # without the final reduction, entries above unit pivots survive: on
    # every planted matrix, and on the random corpora as well
    fired = [
        substitutions(_hermite_rows([list(row) for row in rows], cols, echelon=True)[0])
        for _label, rows, cols in ECHELON_CORPUS
    ]
    assert all(fired[-len(PDQ_CORPUS) :])
    assert sum(map(bool, fired[: -len(PDQ_CORPUS)])) >= 50


def lattice_probes(rng, rows, cols):
    """Integer combinations of ``rows`` (inside), and those plus a unit
    vector (inside or not)."""
    probes = []
    for _ in range(2):
        v = [0] * cols
        for row in rows:
            c = rng.randint(-2, 2)
            v = [x + c * y for x, y in zip(v, row)]
        probes.append(v)
        w = list(v)
        w[rng.randrange(cols)] += rng.choice((-1, 1))
        probes.append(w)
    return probes


def test_lattice_contains_matches_the_solve_on_the_hermite_form():
    rng = random.Random(2026)
    answers = set()
    for label, rows, cols in SCHEDULE_CORPUS:
        if not cols:
            continue
        a = IntMatrix.from_rows(rows, cols=cols)
        h = hermite_normal_form(a)
        for v in lattice_probes(rng, rows, cols):
            want = solve_integral(h, v) is not None
            assert lattice_contains(a, v) == want, label
            answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize("index", range(len(PDQ_CORPUS)))
def test_lattice_contains_on_planted_vectors(index):
    # the lattice is {z*Q : z_i in d_i*Z}; a row of Q at an entry d_i != 1
    # lies outside it, and stays outside when a lattice vector is added
    diag, rows, q = PDQ_CORPUS[index]
    n = len(diag)
    a = IntMatrix.from_rows(rows)
    h = hermite_normal_form(a)
    rng = random.Random(index)
    for _ in range(4):
        z = [d * rng.randint(-3, 3) for d in diag]
        inside = [sum(zi * qi[j] for zi, qi in zip(z, q)) for j in range(n)]
        assert lattice_contains(a, inside) and solve_integral(h, inside) is not None
        i = rng.choice([i for i, d in enumerate(diag) if d != 1])
        outside = [x + y for x, y in zip(inside, q[i])]
        assert not lattice_contains(a, outside) and solve_integral(h, outside) is None


def rider_corpus():
    """(label, rows, cols) triples for the transforms: the schedule corpus,
    the P*D*Q corpus, planted matrices up to 40 x 40 and hand-made rows
    that vanish."""
    rng = random.Random(29)
    cases = list(SCHEDULE_CORPUS) + [("planted P*D*Q", rows, len(d)) for d, rows, _q in PDQ_CORPUS]
    for n in (25, 32, 40):
        cases.append(("planted dense", planted(rng, n, n), n))
        k = n - n // 5
        rows = matmul(random_rows(rng, n, k, -3, 3), random_rows(rng, k, n, -3, 3))
        cases.append(("rank-deficient product", rows, n))
        cases.append(("tall sparse", sparse(rng, n + n // 5, n), n))
    cases += [
        # the second row's gcd step makes the pivot 1, then the row vanishes
        ("gcd steps, then vanishes", [[2], [3]], 1),
        ("gcd steps, then vanishes", [[4, 6, 1], [0, 3, 5], [6, 9, 0], [2, 0, 7], [1, 1, 1]], 3),
        ("zero first row", [[0, 0, 0], [2, 3, 5], [1, -4, 6], [3, 1, 2]], 3),
        ("zero first row", [[0, 0], [0, 0], [4, 6]], 2),
        ("all rows dependent", [[2, 4, -6], [3, 6, -9], [-5, -10, 15], [0, 0, 0]], 3),
        ("all rows dependent", [[0, 0, 0, 0]] * 3, 4),
    ]
    return cases


RIDER_CORPUS = rider_corpus()


def transforms(a):
    """Every output that reads the riders of ``_hermite_rows``."""
    snf = smith_normal_form(a)
    return (
        _hermite_with_identity(a),
        (snf.d, snf.u, snf.v),
        left_kernel(a),
        saturation(a),
    )


def test_rider_corpus_covers_every_case():
    labels = {label for label, _rows, _cols in RIDER_CORPUS}
    assert labels >= {
        "planted P*D*Q", "planted dense", "rank-deficient product", "tall sparse",
        "gcd steps, then vanishes", "zero first row", "all rows dependent",
    }
    assert max(len(rows) for label, rows, _cols in RIDER_CORPUS if label == "planted dense") == 40


@pytest.mark.parametrize("index", range(len(RIDER_CORPUS)))
def test_transforms_match_the_per_insertion_schedule(index, monkeypatch):
    label, rows, cols = RIDER_CORPUS[index]
    a = IntMatrix.from_rows(rows, cols=cols)
    got = transforms(a)
    monkeypatch.setattr(intlin, "_hermite_rows", reference_hermite_rows)
    assert got == transforms(a), label

