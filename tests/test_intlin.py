"""Exact linear algebra: normal forms, membership, saturation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_snf import reference_snf_core
from stablepi1.intlin import (
    AbelianInvariants,
    IntMatrix,
    RatVector,
    cokernel_invariants,
    hermite_normal_form,
    lattice_contains,
    left_kernel,
    membership,
    saturation,
    smith_normal_form,
    solve_integral,
)


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def snf_oracle_2x2(a):
    """Independent row/column-reduction oracle for 2x2 Smith diagonals:
    d1 = gcd of all entries, d1*d2 = |det|."""
    from math import gcd

    g = 0
    for e in a.entries:
        g = gcd(g, e)
    d = abs(a.det())
    if d == 0:
        return (g, 0)
    return (g, d // g)


class TestSmithNormalForm:
    def test_two_by_two_example(self):
        a = mat([[1, 1], [1, -1]])
        # oracle: gcd 1, |det| 2 -> diag (1, 2)
        assert snf_oracle_2x2(a) == (1, 2)
        res = smith_normal_form(a)
        assert res.diagonal() == (1, 2)
        assert res.u.mul(a).mul(res.v) == res.d

    def test_already_diagonal(self):
        a = mat([[2, 0], [0, 2]])
        assert smith_normal_form(a).diagonal() == (2, 2)

    def test_one_by_one(self):
        assert smith_normal_form(mat([[3]])).diagonal() == (3,)

    def test_unimodular_transforms(self):
        rng = random.Random(7)
        for _ in range(60):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            a = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            res = smith_normal_form(a)
            assert res.u.mul(a).mul(res.v) == res.d
            assert abs(res.u.det()) == 1
            assert abs(res.v.det()) == 1
            diag = [d for d in res.diagonal() if d]
            for x, y in zip(diag, diag[1:]):
                assert y % x == 0
            if r == c:
                prod = 1
                for d in res.diagonal():
                    prod *= d
                assert prod == abs(a.det())

    def test_off_diagonal_zero(self):
        res = smith_normal_form(mat([[0, 4], [6, 0], [0, 0]]))
        d = res.d
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.at(i, j) == 0
        assert res.diagonal() == (2, 12)


class TestCokernel:
    def test_free(self):
        assert cokernel_invariants(IntMatrix(0, 4, ()), 4) == AbelianInvariants(4, ())

    def test_zero_rows_free(self):
        assert cokernel_invariants(IntMatrix(3, 4, (0,) * 12), 4).free_rank == 4

    def test_invariant_under_row_operations(self):
        rng = random.Random(3)
        for _ in range(40):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            base = cokernel_invariants(mat(rows), 3)
            # append a row already in the span
            extra = [a + b for a, b in zip(rows[0], rows[1])]
            assert cokernel_invariants(mat(rows + [extra]), 3) == base
            # unimodular row operation
            rows2 = [row[:] for row in rows]
            rows2[2] = [a - 2 * b for a, b in zip(rows2[2], rows2[0])]
            assert cokernel_invariants(mat(rows2), 3) == base

    def test_divisibility_chain_enforced(self):
        inv = cokernel_invariants(mat([[2, 0], [0, 4]]), 2)
        assert inv.torsion == (2, 4)
        with pytest.raises(ValueError):
            AbelianInvariants(0, (4, 2))

    def test_three_diagonal_classes_generate_cover_homology(self):
        # Nine generator rows of the three rotated diagonal classes, written
        # in scaled coordinates; the cover lattice is the scaled unit lattice
        # extended by the diagonal third-point.
        basis = mat([[1, -1, 1, -1], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
        generators = [
            (3, 0, 3, 0),
            (0, 3, 0, 3),
            (1, -1, 1, -1),
            (3, 0, 0, 3),
            (0, 3, -3, -3),
            (1, -1, 1, 2),
            (3, 0, -3, -3),
            (0, 3, 3, 0),
            (1, -1, -2, -1),
        ]
        coords = []
        for g in generators:
            c = solve_integral(basis, list(g))
            assert c is not None, g
            coords.append(c)
        rows = mat(coords)
        assert cokernel_invariants(rows, 4).is_trivial
        # independent oracle: every lattice basis vector is an integer
        # combination of the nine rows (Hermite membership, no Smith form)
        for i in range(4):
            unit = [1 if j == i else 0 for j in range(4)]
            assert lattice_contains(rows, unit)

    def test_worked_relation_rows_give_order_three(self):
        # relations alpha = 2a, beta = 0, 3a = 0, b = 0 over (a, b, alpha, beta)
        rows = mat([(2, 0, -1, 0), (0, 0, 0, 1), (3, 0, 0, 0), (0, 1, 0, 0)])
        inv = cokernel_invariants(rows, 4)
        assert inv.free_rank == 0 and inv.torsion == (3,)


class TestMembership:
    def test_half_point_not_in_unit_lattice(self):
        # a 1/2-coordinate translation admits no fixed point certificate
        t = RatVector((0, 1, 0, 0), 2)
        assert membership(t, IntMatrix(4, 0, ())) is False

    def test_zero_vector_always_member(self):
        t = RatVector.zero(3)
        a = mat([[1, 0], [0, 1], [0, 0]])
        assert membership(t, a) is True

    def test_lattice_point(self):
        t = RatVector.integers((1, 0))
        assert membership(t, IntMatrix(2, 0, ())) is True

    def test_column_space_absorbs(self):
        # (1/3, 2/3) lies in the rational span of (1, 2); (1/3, 1/3) is no
        # lattice point away from it
        t = RatVector((1, 2), 3)
        a = mat([[1], [2]])
        assert membership(t, a) is True
        assert membership(RatVector((1, 1), 3), a) is False

    def test_every_free_coordinate_is_tested(self):
        # a spans the first axis; only the last coordinate is not integral
        a = mat([[1], [0], [0]])
        assert membership(RatVector((1, 0, 0), 2), a) is True
        assert membership(RatVector((1, 0, 1), 2), a) is False
        assert membership(RatVector((1, 1, 0), 2), a) is False

    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            membership(RatVector.zero(2), IntMatrix(3, 1, (0, 0, 0)))

    def test_invariance_under_unimodular_change(self):
        rng = random.Random(11)
        for _ in range(40):
            n = 3
            t = RatVector(tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(1, 4))
            a = mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)])
            # random unimodular u: product of elementary operations
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.sample(range(n), 2)
                q = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += q * u[j][k]
            u = mat(u)
            before = membership(t, a)
            # u maps Z^n onto itself, so it moves the question, not the answer
            t2 = RatVector(tuple(u.mul_vector(list(t.numerators))), t.denominator)
            assert membership(t2, u.mul(a)) == before


def left_kernel_cases():
    """(kind, rows, cols, row lists) of seeded matrices: full rank, wide and
    tall; rank-deficient, as products through a narrower middle; with zero
    rows put in; with one column; and without rows or columns."""
    rng = random.Random(27)

    def dense(r, c):
        return [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]

    cases = []
    for _ in range(12):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(("full rank", r, c, dense(r, c)))
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        left, right = dense(r, min(r, c) - 1), dense(min(r, c) - 1, c)
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        cases.append(("rank-deficient", r, c, product))
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = dense(r, c)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * c)
        cases.append(("zero rows", len(rows), c, rows))
        r = rng.randint(1, 7)
        cases.append(("one column", r, 1, dense(r, 1)))
    cases += [("no rows", 0, 3, []), ("no columns", 3, 0, [[], [], []])]
    return cases


class TestLeftKernel:
    def test_the_cases_cover_every_kind(self):
        cases = left_kernel_cases()
        kinds = {kind for kind, *_ in cases}
        assert kinds == {"full rank", "rank-deficient", "zero rows", "one column", "no rows", "no columns"}
        for kind, r, c, rows in cases:
            rank = reference_snf_core(rows)[4]
            if kind == "rank-deficient":
                assert rank < min(r, c)
            if kind == "full rank":
                assert rank == min(r, c)

    @pytest.mark.parametrize("case", left_kernel_cases(), ids=lambda case: case[0])
    def test_kernel_rows_annihilate_a_and_span_the_reference_kernel(self, case):
        """k*A = 0 for every row k; there are rows(A) - rank of them, and
        they span the lattice of the rows of the reference Smith U past the
        rank, which is the whole left kernel as U is unimodular."""
        _kind, r, c, rows = case
        a = mat(rows, cols=c)
        k = left_kernel(a)
        _m, u, _v, _vinv, rank = reference_snf_core(rows)
        assert (k.rows, k.cols) == (r - rank, r)
        assert k.mul(a) == IntMatrix(r - rank, c, (0,) * ((r - rank) * c))
        assert hermite_normal_form(k) == hermite_normal_form(mat(u[rank:], cols=r))


class TestSaturation:
    def test_full_rank_sublattice(self):
        assert saturation(mat([[2, 0], [0, 2]])) == IntMatrix.identity(2)

    def test_primitive_vector_fixed(self):
        assert saturation(mat([(1, 1)])).to_rows() == [[1, 1]]

    def test_content_divided_out(self):
        # oracle: v is saturated iff k*v in rowspan for the smallest k
        sat = saturation(mat([(2, 4)]))
        assert sat.to_rows() == [[1, 2]]
        assert lattice_contains(mat([(2, 4)]), [2, 4])
        assert not lattice_contains(mat([(2, 4)]), [1, 2])

    def test_idempotent_and_contains(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(rng.randint(1, 3))]
            a = mat(rows)
            s = saturation(a)
            assert saturation(s) == s
            for i in range(a.rows):
                # original rows lie in the saturation
                assert lattice_contains(s, list(a.row(i))) or all(
                    e == 0 for e in a.row(i)
                )


class TestHermiteAndSolve:
    def test_hermite_echelon(self):
        h = hermite_normal_form(mat([[4, 6], [2, 2]]))
        rows = h.to_rows()
        assert rows == [[2, 0], [0, 2]] or rows[0][0] > 0

    def test_solve_roundtrip(self):
        basis = mat([[1, -1, 1, -1], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
        coords = solve_integral(basis, [3, 0, 3, 0])
        assert coords is not None
        rebuilt = [0, 0, 0, 0]
        for c, i in zip(coords, range(4)):
            for j in range(4):
                rebuilt[j] += c * basis.at(i, j)
        assert rebuilt == [3, 0, 3, 0]

    def test_solve_inconsistent(self):
        basis = mat([[2, 0], [0, 2]])
        assert solve_integral(basis, [1, 0]) is None
        # no rational solution either: a nonzero residue is left
        assert solve_integral(mat([[1, 0]]), [0, 1]) is None

    @pytest.mark.parametrize("rows", [[[1, 0], [1, 1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]]])
    def test_solve_rejects_a_basis_not_in_hermite_form(self, rows):
        # (1, 1) is in the span of each, but no row order clears it pivot by pivot
        with pytest.raises(ValueError, match="not a Hermite basis"):
            solve_integral(mat(rows), [1, 1])


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_snf_properties(rows):
    a = mat(rows)
    res = smith_normal_form(a)
    assert res.u.mul(a).mul(res.v) == res.d
    assert abs(res.u.det()) == 1
    assert abs(res.v.det()) == 1
    diag = res.diagonal()
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert all(b % a_ == 0 for a_, b in zip(nz, nz[1:]))


def test_ratvector_normalisation():
    v = RatVector((2, 4), 6)
    assert v.numerators == (1, 2) and v.denominator == 3
    assert RatVector((3, 3), -3).denominator == 1
    assert RatVector((1, 3), 2).mod1() == RatVector((1, 1), 2)
    with pytest.raises(ValueError):
        RatVector((1,), 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RatVector((1.5, 2), 2),
        lambda: RatVector((True,), 2),
        lambda: RatVector(("1", 2), 2),
        lambda: RatVector((1, 2), 2.0),
        lambda: RatVector((1, 2), True),
        lambda: RatVector.integers([1.0, 2]),
        lambda: AbelianInvariants(0, (2.9, 4.0)),
        lambda: AbelianInvariants(0, ("2",)),
        lambda: AbelianInvariants(0, (True,)),
        lambda: AbelianInvariants(1.0, ()),
        lambda: IntMatrix(1, 1, (1.0,)),
        lambda: IntMatrix.from_rows([[True]]),
        lambda: lattice_contains(IntMatrix.from_rows([[2, 0], [0, 2]]), [2.5, 0]),
        lambda: lattice_contains(IntMatrix.from_rows([[1, 0], [0, 1]]), [True, 0]),
        lambda: lattice_contains(IntMatrix.from_rows([[1, 0], [0, 1]]), ["1", 0]),
    ],
    ids=[
        "ratvector-float",
        "ratvector-bool",
        "ratvector-str",
        "ratvector-float-denominator",
        "ratvector-bool-denominator",
        "ratvector-integers-float",
        "invariants-float",
        "invariants-str",
        "invariants-bool",
        "invariants-float-rank",
        "matrix-float",
        "matrix-bool",
        "lattice-vector-float",
        "lattice-vector-bool",
        "lattice-vector-str",
    ],
)
def test_value_types_take_plain_ints_only(make):
    # int() would truncate 1.5 and 2.9, and take True and "2" as numbers
    with pytest.raises(ValueError, match="plain ints"):
        make()


def test_value_types_compare_and_hash_by_value():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a == IntMatrix(2, 2, [1, 2, 3, 4]) and hash(a) == hash(IntMatrix(2, 2, (1, 2, 3, 4)))
    assert a != IntMatrix(1, 4, (1, 2, 3, 4)) and a != (2, 2, (1, 2, 3, 4))
    assert IntMatrix.identity(3) is IntMatrix.identity(3)
    assert IntMatrix.identity(3) == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert repr(IntMatrix(1, 2, (0, 0))) == "IntMatrix(rows=1, cols=2, entries=(0, 0))"
    v = RatVector((2, 4), 6)
    assert v == RatVector((1, 2), 3) and len({v, RatVector((-1, -2), -3)}) == 1
    assert repr(v) == "RatVector(numerators=(1, 2), denominator=3)"
    inv = AbelianInvariants(0, [2, 4])
    assert inv == AbelianInvariants(0, (2, 4)) and inv.torsion == (2, 4)
    assert len({inv, AbelianInvariants(0, (2, 4)), AbelianInvariants(1, (2, 4))}) == 2
    assert repr(inv) == "AbelianInvariants(free_rank=0, torsion=(2, 4))"
    with pytest.raises(ValueError):
        IntMatrix.identity(-1)
    with pytest.raises(ValueError):
        IntMatrix(-1, 2, ())


def naive_product(a, b):
    return [[sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]


def product_shapes():
    """(rows, inner, cols) triples: every empty and unit shape, then seeded ones."""
    shapes = [(r, k, c) for r in (0, 1, 3) for k in (0, 1, 3) for c in (0, 1, 3)]
    rng = random.Random(174)
    shapes += [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)]
    return shapes


@pytest.mark.parametrize("shape", product_shapes())
def test_product_matches_the_triple_loop(shape):
    r, k, c = shape
    rng = random.Random(repr(shape))
    a = IntMatrix(r, k, [rng.randint(-50, 50) for _ in range(r * k)])
    b = IntMatrix(k, c, [rng.randint(-50, 50) for _ in range(k * c)])
    p = a.mul(b)
    assert (p.rows, p.cols) == (r, c)
    assert p.to_rows() == naive_product(a, b)
