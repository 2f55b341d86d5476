"""Words, presentations, Todd-Coxeter, abelianization, amalgams."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepi1.fpgroup import (
    CosetLimitExceeded,
    GroupHom,
    Presentation,
    abelianization,
    amalgamated_product,
    cyclic_given_order,
    cyclic_presentation,
    inverse_word,
    quotient_by_normal_closure,
    reduce_word,
    todd_coxeter_order,
    trivial_presentation,
)

letters = st.integers(-3, 3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=20).map(tuple)


class TestWords:
    def test_cancellation(self):
        assert reduce_word((1, -1, 2)) == (2,)
        assert reduce_word((2, 1, 1, -1, -1)) == (2,)
        assert reduce_word((2, 1, 4, 2)) == (2, 1, 4, 2)

    @given(words)
    def test_reduce_idempotent_and_short(self, w):
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert len(r) <= len(w)

    @given(words)
    def test_inverse_cancels(self, w):
        assert reduce_word(w + inverse_word(w)) == ()


class TestAbelianization:
    def test_case_p1_hand_presentation(self):
        p = Presentation(("A", "B", "G"), [(-2, 1), (3, -1), (3, 3, 2, 2)])
        inv = abelianization(p)
        assert inv.free_rank == 0 and inv.torsion == (4,)

    def test_case_p3_hand_presentation(self):
        p = Presentation(("A", "F", "G"), [(1, 2, 3), (2, -1), (1, -3)])
        inv = abelianization(p)
        assert inv.free_rank == 0 and inv.torsion == (3,)

    def test_free_group(self):
        inv = abelianization(Presentation(("x", "y"), []))
        assert inv.free_rank == 2 and inv.torsion == ()

    def test_invariant_under_relator_moves(self):
        rng = random.Random(23)
        for _ in range(30):
            ngens = rng.randint(1, 3)
            rels = [
                tuple(rng.choice([s * g for s in (1, -1) for g in range(1, ngens + 1)])
                      for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))
            ]
            names = tuple(f"g{i}" for i in range(ngens))
            base = abelianization(Presentation(names, rels))
            rng.shuffle(rels)
            assert abelianization(Presentation(names, rels)) == base
            conjugated = [(1,) + r + (-1,) for r in rels]
            assert abelianization(Presentation(names, conjugated)) == base
            inverted = [inverse_word(r) for r in rels]
            assert abelianization(Presentation(names, inverted)) == base

    def test_invariant_under_tietze(self):
        p = Presentation(("A", "B", "F", "G"), [(4, 3, 2, 1), (-2, 1), (4, -1), (4, 4, 2, 2)])
        # B = A and G = A eliminated by hand: <A, F | A F A A, A^4>
        eliminated = Presentation(("A", "F"), [(1, 2, 1, 1), (1, 1, 1, 1)])
        assert abelianization(eliminated) == abelianization(p)


class TestQuotient:
    def test_quadruple_point_quotient(self):
        p = Presentation(("A", "B", "F", "G"), [(4, 3, 2, 1)])
        q = quotient_by_normal_closure(p, [(-2, 1), (4, -1), (4, 4, 2, 2)])
        inv = abelianization(q)
        assert inv.torsion == (4,) and inv.free_rank == 0
        assert todd_coxeter_order(q) == 4

    def test_empty_closure(self):
        p = Presentation(("x",), [(1, 1, 1)])
        assert quotient_by_normal_closure(p, []) == p

    def test_cyclic_five(self):
        q = quotient_by_normal_closure(Presentation(("x",), []), [(1,) * 5])
        assert todd_coxeter_order(q) == 5


class TestToddCoxeter:
    def test_cyclic_four(self):
        assert todd_coxeter_order(Presentation(("G",), [(1, 1, 1, 1)])) == 4

    def test_klein_four(self):
        # oracle: brute-force multiplication table of (Z/2)^2
        elements = set(product((0, 1), repeat=2))
        assert len(elements) == 4
        p = Presentation(("x", "y"), [(1, 1), (2, 2), (1, 2, -1, -2)])
        assert todd_coxeter_order(p) == len(elements)

    def test_infinite_raises(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter_order(Presentation(("x",), []), 100)

    def test_trivial_presentations(self):
        assert todd_coxeter_order(trivial_presentation()) == 1
        assert todd_coxeter_order(Presentation(("x",), [(1,)])) == 1

    def test_nonabelian_orders(self):
        # dihedral group of order 2n: <r, s | r^n, s^2, (rs)^2>
        for n in (3, 4, 5, 6):
            p = Presentation(("r", "s"), [(1,) * n, (2, 2), (1, 2, 1, 2)])
            assert todd_coxeter_order(p) == 2 * n
        # quaternion group: <i, j | i^4, i^2 j^-2, j i j^-1 i>
        q8 = Presentation(("i", "j"), [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)])
        assert todd_coxeter_order(q8) == 8

    def test_torsion_product_divides_order(self):
        cases = [
            Presentation(("r", "s"), [(1, 1, 1), (2, 2), (1, 2, 1, 2)]),
            Presentation(("r", "s"), [(1, 1, 1, 1), (2, 2), (1, 2, 1, 2)]),
            Presentation(("i", "j"), [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)]),
            Presentation(("G",), [(1,) * 5]),
        ]
        for p in cases:
            n = todd_coxeter_order(p)
            t = abelianization(p).order()
            assert t is not None and n % t == 0

    def test_word_problem(self):
        # w is trivial in a finite G iff G / <<w>> has the order of G:
        # G^4 is trivial in <G | G^4>, G^2 is not
        p = Presentation(("G",), [(1, 1, 1, 1)])
        order = todd_coxeter_order(p)
        assert todd_coxeter_order(quotient_by_normal_closure(p, [(1,) * 4])) == order
        assert todd_coxeter_order(quotient_by_normal_closure(p, [(1, 1)])) != order

    def test_tight_limit_on_finite_group(self):
        # the enumeration may overshoot |G| before collapsing, so a limit
        # equal to the order can legitimately fail; a generous one must not
        p = Presentation(("r", "s"), [(1, 1, 1), (2, 2), (1, 2, 1, 2)])
        assert todd_coxeter_order(p, 1000) == 6


def is_cyclic_of_order(p, n):
    return todd_coxeter_order(p) == n and cyclic_given_order(n, abelianization(p))


class TestIsCyclic:
    def test_case_p1(self):
        p = Presentation(("A", "B", "G"), [(-2, 1), (3, -1), (3, 3, 2, 2)])
        assert is_cyclic_of_order(p, 4)
        assert not is_cyclic_of_order(p, 2)

    def test_klein_not_cyclic(self):
        p = Presentation(("x", "y"), [(1, 1), (2, 2), (1, 2, -1, -2)])
        assert not is_cyclic_of_order(p, 4)

    def test_trivial(self):
        assert is_cyclic_of_order(Presentation(("x",), [(1,)]), 1)


class TestAmalgam:
    def test_free_product_of_cyclics(self):
        pa = Presentation(("x",), [(1, 1)])
        pb = Presentation(("y",), [(1, 1, 1)])
        pc = trivial_presentation()
        f = GroupHom(pc, pa, ())
        g = GroupHom(pc, pb, ())
        prod = amalgamated_product(pa, pb, pc, f, g)
        inv = abelianization(prod)
        assert inv.free_rank == 0 and inv.torsion == (6,)
        # the free product itself is infinite (the modular group)
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter_order(prod, 2000)

    def test_trivial_a_side_is_normal_closure_quotient(self):
        pb = Presentation(("A", "B", "F", "G"), [(4, 3, 2, 1)])
        pc = Presentation(("c1", "c2", "c3"), [])
        images = ((-2, 1), (4, -1), (4, 4, 2, 2))
        g = GroupHom(pc, pb, images)
        f = GroupHom(pc, trivial_presentation(), ((), (), ()))
        amalgam = amalgamated_product(trivial_presentation(), pb, pc, f, g)
        direct = quotient_by_normal_closure(pb, images)
        assert abelianization(amalgam) == abelianization(direct)
        assert todd_coxeter_order(amalgam) == todd_coxeter_order(direct)

    def test_name_collision_resolved(self):
        pa = Presentation(("x",), [])
        pb = Presentation(("x",), [])
        prod = amalgamated_product(
            pa, pb, trivial_presentation(),
            GroupHom(trivial_presentation(), pa, ()),
            GroupHom(trivial_presentation(), pb, ()),
        )
        assert len(set(prod.names)) == 2


@settings(max_examples=60)
@given(words, words)
def test_reduce_is_morphism_on_concat(u, v):
    assert reduce_word(reduce_word(u) + reduce_word(v)) == reduce_word(u + v)


def test_finite_abelian_order_matches_invariants():
    # dual-route check: coset enumeration vs Smith-form invariants
    rng = random.Random(99)
    for _ in range(25):
        k = rng.randint(1, 3)
        orders = [rng.randint(1, 8) for _ in range(k)]
        names = tuple(f"g{i}" for i in range(k))
        rels = [(i + 1,) * n for i, n in enumerate(orders) if n > 0]
        for i in range(k):
            for j in range(i + 1, k):
                rels.append((i + 1, j + 1, -(i + 1), -(j + 1)))
        p = Presentation(names, rels)
        inv = abelianization(p)
        assert todd_coxeter_order(p) == inv.order()


def test_cyclic_presentation_helper():
    assert todd_coxeter_order(cyclic_presentation(5)) == 5
    with pytest.raises(ValueError):
        cyclic_presentation(0)
