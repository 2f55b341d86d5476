"""Torus maps, free actions, intersections, bi-tri-elliptic bookkeeping."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from reference_torus import from_fractions
from stablepi1 import fpgroup, intlin, torus
from stablepi1.intlin import IntMatrix, RatVector, SingularMatrix
from stablepi1.torus import (
    AffineTorusMap,
    BiTriEllipticParams,
    InvalidParams,
    OrderExceedsCap,
    affine_identity,
    compose,
    conjugate_into_lattice,
    enumerate_glue_subgroups,
    eplus_presentation,
    generated_group,
    glue_subgroup_pair,
    intersection_number,
    is_free_action,
    isogeny_cokernel,
    preimage_count,
    subtorus_class,
    theta_fbar_intersection,
    twisting_number,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def translation_map(fractions):
    vec = from_fractions(fractions)
    return AffineTorusMap(IntMatrix.identity(len(vec)), vec)


def b1_generators():
    """Square of an elliptic curve with translations by the two half-points;
    the second generator also negates the second factor."""
    e1 = AffineTorusMap(IntMatrix.identity(4), RatVector((1, 0, 1, 0), 2))
    e2 = AffineTorusMap(
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
        RatVector((0, 1, 0, 0), 2),
    )
    return e1, e2


def b2_generators():
    """Square of the hexagonal curve: translation by the rotation-fixed
    third-point, and translation-plus-rotation on the second factor."""
    rho = [[0, -1], [1, -1]]
    e1 = AffineTorusMap(IntMatrix.identity(4), RatVector((1, -1, 1, -1), 3))
    e2 = AffineTorusMap(
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, rho[0][0], rho[0][1]], [0, 0, rho[1][0], rho[1][1]]]),
        RatVector((1, 0, 0, 0), 3),
    )
    return e1, e2


def sigma_bar():
    """Order-4 deck transformation of the halved square: swap the factors
    and translate by half of tau in the first one."""
    swap = mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    return AffineTorusMap(swap, RatVector((0, 1, 0, 0), 2))


class TestCompose:
    def test_involution_squares_to_identity(self):
        _e1, e2 = b1_generators()
        sq = compose(e2, e2)
        assert sq.is_identity

    def test_identity_neutral(self):
        f = sigma_bar()
        assert compose(f, affine_identity(4)) == f
        assert compose(affine_identity(4), f) == f

    def test_translations_add(self):
        s = translation_map([Fraction(1, 3), Fraction(0)])
        t = translation_map([Fraction(1, 3), Fraction(1, 2)])
        st = compose(s, t)
        assert st.translation == RatVector((4, 3), 6)

    def test_associative(self):
        rng = random.Random(2)
        maps = []
        for _ in range(6):
            linear = mat([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            maps.append(AffineTorusMap(linear, RatVector((rng.randint(0, 3), rng.randint(0, 3)), 4)))
        for f, g, h in zip(maps, maps[1:], maps[2:]):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def map_order(f, cap):
    """The order of f: the size of the cyclic group it generates."""
    return len(generated_group([f], cap=cap))


class TestMapOrder:
    def test_sigma_bar_has_order_four(self):
        assert map_order(sigma_bar(), 16) == 4

    def test_b2_rotation_translation_has_order_three(self):
        _e1, e2 = b2_generators()
        assert map_order(e2, 16) == 3

    def test_order_divides_group_order(self):
        for gens in (b1_generators(), b2_generators(), (sigma_bar(),)):
            group = generated_group(gens)
            for g in gens:
                assert len(group) % map_order(g, 16) == 0

    def test_identity(self):
        assert map_order(affine_identity(4), 1) == 1

    def test_cap_exceeded(self):
        with pytest.raises(OrderExceedsCap):
            map_order(translation_map([Fraction(1, 7), Fraction(0)]), 3)


class TestFreeAction:
    def test_b1_group_free_of_order_four(self):
        gens = b1_generators()
        group = generated_group(gens)
        assert len(group) == 4
        assert is_free_action(group)

    def test_b2_group_free_of_order_nine(self):
        gens = b2_generators()
        group = generated_group(gens)
        assert len(group) == 9
        assert is_free_action(group)

    def test_negation_fixes_origin(self):
        neg = AffineTorusMap(
            mat([[-1, 0], [0, -1]]), RatVector.zero(2)
        )
        assert not is_free_action(generated_group([neg]))

    def test_translation_by_non_lattice_point_free(self):
        assert is_free_action(generated_group([translation_map([Fraction(1, 2), Fraction(0)])]))

    def test_linear_non_identity_never_free(self):
        rng = random.Random(4)
        tried = 0
        while tried < 10:
            linear = mat([[rng.choice([-1, 0, 1]) for _ in range(2)] for _ in range(2)])
            if abs(linear.det()) != 1 or linear == IntMatrix.identity(2):
                continue
            f = AffineTorusMap(linear, RatVector.zero(2))
            try:
                group = generated_group([f], cap=64)
            except OrderExceedsCap:
                continue
            tried += 1
            assert not is_free_action(group)

    def test_deck_transformation_free(self):
        assert is_free_action(generated_group([sigma_bar()]))


class TestPreimageCount:
    def test_b1_crossing_count(self):
        a = mat([[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1]])
        assert preimage_count(a) == 4

    def test_b2_crossing_count(self):
        a = mat([[1, 1], [-1, 2]])
        assert preimage_count(a) == 3

    def test_identity(self):
        assert preimage_count(IntMatrix.identity(3)) == 1

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            preimage_count(mat([[1, 1], [1, 1]]))

    def test_matches_snf(self):
        from stablepi1.intlin import smith_normal_form

        rng = random.Random(8)
        for _ in range(20):
            a = mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            if a.det() == 0:
                continue
            count = preimage_count(a)
            assert count == abs(a.det())
            prod = 1
            for d in smith_normal_form(a).diagonal():
                prod *= d
            assert count == prod


class TestIntersections:
    def test_product_factors_meet_once(self):
        c1 = subtorus_class([(1, 0, 0, 0), (0, 1, 0, 0)])
        c2 = subtorus_class([(0, 0, 1, 0), (0, 0, 0, 1)])
        assert intersection_number(c1, c2) == 1

    def test_symmetric(self):
        rng = random.Random(13)
        for _ in range(20):
            rows1 = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            rows2 = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            try:
                c1, c2 = subtorus_class(rows1), subtorus_class(rows2)
            except ValueError:
                continue
            assert intersection_number(c1, c2) == intersection_number(c2, c1)

    def test_theta_meets_curve_in_three_points(self):
        for params in (
            BiTriEllipticParams(5, 1, "odd"),
            BiTriEllipticParams(3, 3, "odd"),
            BiTriEllipticParams(1, 5, "odd"),
            BiTriEllipticParams(2, 1, "even", 0),
            BiTriEllipticParams(1, 2, "even", 0),
        ):
            assert theta_fbar_intersection(params) == 3

    def test_pullback_scaling_on_odd_example(self):
        # upstairs product = cover degree x downstairs product
        params = BiTriEllipticParams(5, 1, "odd")
        curve = subtorus_class([(5, 0, 1, 0), (0, 1, 0, 1)])
        d_class = subtorus_class([(1, 0, 0, 0), (0, 1, 0, 0)])
        dp_class = subtorus_class([(0, 0, 1, 0), (0, 0, 0, 1)])
        upstairs = 2 * (
            intersection_number(d_class, curve) + intersection_number(dp_class, curve)
        )
        assert upstairs == 4 * theta_fbar_intersection(params)


class TestBiTriParams:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidParams):
            BiTriEllipticParams(2, 4, "odd")
        with pytest.raises(InvalidParams):
            BiTriEllipticParams(2, 2, "even")
        with pytest.raises(InvalidParams):
            BiTriEllipticParams(1, 5, "neither")

    def test_twisting_numbers(self):
        assert twisting_number(BiTriEllipticParams(5, 1, "odd")) == 5
        assert twisting_number(BiTriEllipticParams(1, 5, "odd")) == 1
        assert twisting_number(BiTriEllipticParams(1, 2, "even")) == 2
        assert twisting_number(BiTriEllipticParams(2, 1, "even")) == 4

    def test_twisting_range_is_covered(self):
        params = [
            BiTriEllipticParams(1, 5, "odd"),
            BiTriEllipticParams(1, 2, "even"),
            BiTriEllipticParams(3, 3, "odd"),
            BiTriEllipticParams(2, 1, "even"),
            BiTriEllipticParams(5, 1, "odd"),
        ]
        assert sorted(twisting_number(p) for p in params) == [1, 2, 3, 4, 5]


def brute_force_glue_subgroups(params, normalized):
    """Independent enumeration over all 35 order-4 subgroups of (Z/2)^4."""
    from stablepi1.torus import _even_two_torsion_marks, _f2_span

    xi, zeta = _even_two_torsion_marks(params)
    curve = _f2_span([xi, zeta])
    vectors = [v for v in (tuple(map(int, f"{i:04b}")) for i in range(16)) if any(v)]
    subgroups = set()
    for v, w in combinations(vectors, 2):
        span = _f2_span([v, w])
        if len(span) == 4:
            subgroups.add(span)
    assert len(subgroups) == 35
    keep = []
    for s in subgroups:
        if any(e[2] == e[3] == 0 for e in s if any(e)):
            continue
        if any(e[0] == e[1] == 0 for e in s if any(e)):
            continue
        meet = s & curve
        if len(meet) != 2:
            continue
        if normalized and xi not in meet:
            continue
        keep.append(tuple(sorted(s)))
    return sorted(keep)


class TestGlueSubgroups:
    @pytest.mark.parametrize("d_prime", [1, 2])
    def test_four_unfiltered_two_normalized(self, d_prime):
        params = BiTriEllipticParams(3 - d_prime, d_prime, "even")
        subs = enumerate_glue_subgroups(params)
        norm = enumerate_glue_subgroups(params, normalized=True)
        assert len(subs) == 4
        assert len(norm) == 2
        g1, g2 = glue_subgroup_pair(params)
        assert sorted(norm) == sorted([g1, g2])

    @pytest.mark.parametrize("d_prime", [1, 2])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_matches_brute_force(self, d_prime, normalized):
        params = BiTriEllipticParams(3 - d_prime, d_prime, "even")
        assert enumerate_glue_subgroups(params, normalized=normalized) == (
            brute_force_glue_subgroups(params, normalized)
        )

    def test_odd_case_rejected(self):
        with pytest.raises(InvalidParams):
            enumerate_glue_subgroups(BiTriEllipticParams(1, 5, "odd"))


# Pinned presentation strings, one per admissible parameter set; the two G2
# cases are in no catalogue file, so no golden report pins them.  The glue
# reads the curve's annihilator in Hermite form, which is unique.
EPLUS_PRESENTATIONS = {
    (1, 5, "odd", None): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a beta, b b alpha^-1 alpha^-1 alpha^-1 alpha^-1 alpha^-1, beta^-1, alpha, a, b >",
    (3, 3, "odd", None): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha, b b beta^-1 beta^-1 beta^-1, alpha^-1 alpha^-1 alpha^-1, beta, a a a, b >",
    (5, 1, "odd", None): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha, b b beta, alpha^-1 alpha^-1 alpha^-1 alpha^-1 alpha^-1, beta^-1, a a a a a, b >",
    (2, 1, "even", 0): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha alpha, b b beta, alpha^-1 alpha^-1 alpha^-1 alpha^-1, beta^-1, b, a alpha^-1 >",
    (2, 1, "even", 1): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a beta, b b beta^-1 alpha alpha, beta^-1 beta^-1, beta alpha^-1 alpha^-1,"
    " b, a b beta^-1 alpha >",
    (1, 2, "even", 0): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha^-1 alpha^-1 alpha^-1 alpha^-1, b b beta, alpha alpha, beta^-1, b, a alpha^-1 >",
    (1, 2, "even", 1): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a beta beta, b b beta alpha alpha, beta^-1, beta^-1 alpha^-1 alpha^-1,"
    " b, a b beta alpha >",
}

# The same seven presentations as built from columns 2-3 of the Smith V of
# the saturated curve lattice, before the glue read the Hermite form of its
# annihilator.  V is not unique, so these are one basis of the annihilator
# among many; each group is the same.
SMITH_V_PRESENTATIONS = {
    (1, 5, "odd", None): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha, b b beta beta beta beta beta, alpha^-1, beta^-1, a, b >",
    (3, 3, "odd", None): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha, b b beta beta beta, alpha^-1 alpha^-1 alpha^-1, beta^-1, a a a, b >",
    (5, 1, "odd", None): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha, b b beta, alpha^-1 alpha^-1 alpha^-1 alpha^-1 alpha^-1, beta^-1, a a a a a, b >",
    (2, 1, "even", 0): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha alpha, b b beta, alpha^-1 alpha^-1 alpha^-1 alpha^-1, beta^-1, b, a alpha^-1 >",
    (2, 1, "even", 1): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a beta^-1 alpha alpha, b b beta, beta beta alpha^-1 alpha^-1 alpha^-1 alpha^-1,"
    " beta^-1, b, a b beta alpha^-1 >",
    (1, 2, "even", 0): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a alpha alpha alpha alpha, b b beta, alpha^-1 alpha^-1, beta^-1, b, a alpha >",
    (1, 2, "even", 1): "< a, b, alpha, beta | a b a^-1 b^-1, alpha beta alpha^-1 beta^-1,"
    " a a beta beta alpha alpha alpha alpha, b b beta, beta^-1 alpha^-1 alpha^-1,"
    " beta^-1, b, a b beta alpha >",
}


def glue_parts(text):
    """The glue relators of an eplus presentation string, each split into
    its a/b letters and the exponent sums of alpha and beta."""
    head, relators = text[:-2].split(" | ")
    assert head == "< a, b, alpha, beta"
    relators = relators.split(", ")
    assert relators[:2] == ["a b a^-1 b^-1", "alpha beta alpha^-1 beta^-1"]
    parts = []
    for relator in relators[2:]:
        letters = relator.split()
        ab = [x for x in letters if x.removesuffix("^-1") in ("a", "b")]
        exps = [
            sum(-1 if x.endswith("^-1") else 1 for x in letters if x.removesuffix("^-1") == g)
            for g in ("alpha", "beta")
        ]
        parts.append((ab, exps))
    return parts


def unimodular_2x2(rng):
    """A seeded matrix of GL_2(Z): elementary operations, a swap and signs."""
    u = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(2)
        q = rng.choice([-3, -2, -1, 1, 2, 3])
        u[i] = [x + q * y for x, y in zip(u[i], u[1 - i])]
    if rng.random() < 0.5:
        u.reverse()
    if rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
    return IntMatrix.from_rows(u)


class TestEplusPresentation:
    @pytest.mark.parametrize(
        "params, order, torsion",
        [
            (BiTriEllipticParams(1, 5, "odd"), 1, ()),
            (BiTriEllipticParams(3, 3, "odd"), 3, (3,)),
            (BiTriEllipticParams(5, 1, "odd"), 5, (5,)),
            (BiTriEllipticParams(2, 1, "even", 0), 4, (4,)),
            (BiTriEllipticParams(2, 1, "even", 1), 4, (4,)),
            (BiTriEllipticParams(1, 2, "even", 0), 2, (2,)),
            (BiTriEllipticParams(1, 2, "even", 1), 2, (2,)),
        ],
    )
    def test_expected_groups(self, params, order, torsion):
        pres = eplus_presentation(params)
        key = (params.d, params.d_prime, params.case, params.glue)
        assert pres.describe() == EPLUS_PRESENTATIONS[key]
        inv = fpgroup.abelianization(pres)
        assert inv.free_rank == 0 and inv.torsion == torsion
        assert fpgroup.todd_coxeter_order(pres) == order
        assert fpgroup.cyclic_given_order(order, inv)

    @pytest.mark.parametrize("key", sorted(SMITH_V_PRESENTATIONS, key=str))
    def test_glue_is_the_smith_v_glue_up_to_a_basis_change_of_alpha_beta(self, key):
        """Each presentation is the one built from the Smith V, with the
        same a/b parts and the (alpha, beta) exponent vectors of all glue
        relators moved by one matrix M of GL_2(Z): the same group."""
        new = glue_parts(EPLUS_PRESENTATIONS[key])
        old = glue_parts(SMITH_V_PRESENTATIONS[key])
        assert [ab for ab, _e in new] == [ab for ab, _e in old]
        olds = [e for _ab, e in old]
        news = [e for _ab, e in new]
        # M = [n_i n_j] adj([o_i o_j]) / det for two independent old vectors
        i, j, det = next(
            (i, j, olds[i][0] * olds[j][1] - olds[i][1] * olds[j][0])
            for i, j in combinations(range(len(olds)), 2)
            if olds[i][0] * olds[j][1] != olds[i][1] * olds[j][0]
        )
        adj = [[olds[j][1], -olds[j][0]], [-olds[i][1], olds[i][0]]]
        m = [[news[i][r] * adj[0][c] + news[j][r] * adj[1][c] for c in range(2)] for r in range(2)]
        assert all(x % det == 0 for row in m for x in row)
        m = [[x // det for x in row] for row in m]
        assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1
        for o, n in zip(olds, news):
            assert [m[r][0] * o[0] + m[r][1] * o[1] for r in range(2)] == n

    def test_the_glue_needs_neither_a_smith_form_nor_a_saturation(self, monkeypatch):
        def refused(*args):
            raise AssertionError("eplus_presentation reached a Smith form")

        monkeypatch.setattr(intlin, "smith_normal_form", refused)
        monkeypatch.setattr(intlin, "saturation", refused)
        monkeypatch.setattr(torus, "saturation", refused)
        assert not hasattr(torus, "smith_normal_form")
        for key, text in EPLUS_PRESENTATIONS.items():
            assert eplus_presentation(BiTriEllipticParams(*key)).describe() == text

    def test_the_glue_does_not_depend_on_the_kernel_basis(self, monkeypatch):
        """U*K spans the lattice K spans, for U in GL_2(Z), and its Hermite
        form is the same, so no string moves."""
        rng = random.Random(27)
        real = torus.left_kernel
        for _ in range(20):
            u = unimodular_2x2(rng)
            assert u != IntMatrix.identity(2)
            monkeypatch.setattr(torus, "left_kernel", lambda a, u=u: u.mul(real(a)))
            for key, text in EPLUS_PRESENTATIONS.items():
                assert eplus_presentation(BiTriEllipticParams(*key)).describe() == text

    def test_even_needs_glue_choice(self):
        with pytest.raises(InvalidParams):
            eplus_presentation(BiTriEllipticParams(2, 1, "even"))


class TestIsogenyCokernel:
    def test_degree_five_cyclic(self):
        inv = isogeny_cokernel(mat([[1, 0], [0, 5]]))
        assert inv.torsion == (5,) and inv.free_rank == 0

    def test_b1_pullback_isogeny(self):
        # Smith-form oracle on the 4x4 doubling matrix: diag (1, 1, 2, 2)
        phi = mat(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, -1, 0],
                [0, 1, 0, -1],
            ]
        )
        from stablepi1.intlin import smith_normal_form

        assert smith_normal_form(phi).diagonal() == (1, 1, 2, 2)
        inv = isogeny_cokernel(phi)
        assert inv.torsion == (2, 2)
        assert inv.order() == 4

    def test_identity(self):
        assert isogeny_cokernel(IntMatrix.identity(3)).is_trivial

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            isogeny_cokernel(mat([[1, 1], [1, 1]]))


class TestConjugation:
    def test_b2_deck_transformation(self):
        lattice = mat(
            [
                [1, -1, 1, -1],
                [3, 0, 0, 0],
                [0, 3, 0, 0],
                [0, 0, 3, 0],
                [0, 0, 0, 3],
            ]
        )
        linear = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
        deck = conjugate_into_lattice(linear, RatVector.integers((1, 0, 0, 0)), lattice)
        powers = generated_group([deck], cap=16)
        assert len(powers) == 3
        assert is_free_action(powers)

    def test_rejects_non_preserving_map(self):
        lattice = mat([[2, 0], [0, 1]])
        swap = mat([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            conjugate_into_lattice(swap, RatVector.zero(2), lattice)

