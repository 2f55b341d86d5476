"""Exact linear algebra: normal forms, membership, saturation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepi1.intlin import (
    AbelianInvariants,
    IntMatrix,
    RatVector,
    cokernel_invariants,
    hermite_normal_form,
    lattice_contains,
    membership,
    saturation,
    smith_normal_form,
    solve_in_rowspace,
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
        assert cokernel_invariants(IntMatrix.zeros(0, 4), 4) == AbelianInvariants(4, ())

    def test_zero_rows_free(self):
        assert cokernel_invariants(IntMatrix.zeros(3, 4), 4).free_rank == 4

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
        assert membership(t, IntMatrix.zeros(4, 0), IntMatrix.identity(4)) is False

    def test_zero_vector_always_member(self):
        t = RatVector.zero(3)
        a = mat([[1, 0], [0, 1], [0, 0]])
        lam = mat([[5, 0, 0]], cols=3)
        assert membership(t, a, lam) is True

    def test_lattice_point(self):
        t = RatVector.integers((1, 0))
        assert membership(t, IntMatrix.zeros(2, 0), IntMatrix.identity(2)) is True

    def test_column_space_absorbs(self):
        # (1/3, 2/3) lies in the rational span of (1, 2)
        t = RatVector((1, 2), 3)
        a = mat([[1], [2]])
        assert membership(t, a, IntMatrix.zeros(0, 2)) is True
        assert membership(RatVector((1, 1), 3), a, IntMatrix.zeros(0, 2)) is False

    def test_invariance_under_unimodular_change(self):
        rng = random.Random(11)
        for _ in range(40):
            n = 3
            t = RatVector(tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(1, 4))
            a = mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)])
            lam = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)])
            # random unimodular u: product of elementary operations
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.sample(range(n), 2)
                q = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += q * u[j][k]
            u = mat(u)
            before = membership(t, a, lam)
            t2 = RatVector(tuple(u.mul_vector(list(t.numerators))), t.denominator)
            a2 = u.mul(a)
            lam2 = lam.mul(mat([list(col) for col in zip(*u.to_rows())]))
            assert membership(t2, a2, lam2) == before


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
        assert solve_in_rowspace(mat([[1, 0]]), [0, 1]) is None


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
