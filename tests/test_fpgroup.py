"""Words, presentations, Todd-Coxeter, abelianization, amalgams."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepi1 import fpgroup
from stablepi1.fpgroup import (
    CosetLimitExceeded,
    Presentation,
    _CosetTable,
    abelianization,
    amalgamated_product,
    cyclic_given_order,
    cyclic_presentation,
    cyclically_reduce,
    inverse_word,
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


def quotient(p, words):
    """p / <<words>>: the amalgam of p with the trivial group over one free
    generator per word, mapped to the word's inverse."""
    return amalgamated_product(trivial_presentation(), p, [((), inverse_word(w)) for w in words])


class TestQuotient:
    def test_quadruple_point_quotient(self):
        p = Presentation(("A", "B", "F", "G"), [(4, 3, 2, 1)])
        words = [(-2, 1), (4, -1), (4, 4, 2, 2)]
        q = quotient(p, words)
        # u v^-1 with u trivial and v = w^-1 is w itself: the words are appended
        assert q == Presentation(p.names, p.relators + tuple(words))
        inv = abelianization(q)
        assert inv.torsion == (4,) and inv.free_rank == 0
        assert todd_coxeter_order(q) == 4

    def test_empty_closure(self):
        p = Presentation(("x",), [(1, 1, 1)])
        assert quotient(p, []) == p

    def test_cyclic_five(self):
        q = quotient(Presentation(("x",), []), [(1,) * 5])
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
        assert todd_coxeter_order(quotient(p, [(1,) * 4])) == order
        assert todd_coxeter_order(quotient(p, [(1, 1)])) != order

    def test_tight_limit_on_finite_group(self):
        # the enumeration may overshoot |G| before collapsing, so a limit
        # equal to the order can legitimately fail; a generous one must not
        p = Presentation(("r", "s"), [(1, 1, 1), (2, 2), (1, 2, 1, 2)])
        assert todd_coxeter_order(p, 1000) == 6


class TestInvolutions:
    """A generator with a relator g^2 shares one column with its inverse;
    every order here is checked against its closed form."""

    def test_square_and_cube_give_trivial_group(self):
        # a^2 = a^3 = 1 gives a = 1
        assert todd_coxeter_order(Presentation(("a",), [(1, 1), (1, 1, 1)])) == 1

    def test_fourth_power_reduces_to_nothing(self):
        # a^4 = (a^2)^2 is empty modulo a^2 = 1: the group is Z/2
        assert todd_coxeter_order(Presentation(("a",), [(1, 1), (1, 1, 1, 1)])) == 2
        assert todd_coxeter_order(Presentation(("a",), [(-1, -1), (1, 1, 1, 1)])) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_dihedral(self, n):
        # <a, b | a^2, b^2, (ab)^n> is dihedral of order 2n, however the
        # involutions and (ab)^n are written
        for rels in (
            [(1, 1), (2, 2), (1, 2) * n],
            [(-1, -1), (2, 2), (-1, -2) * n],
            [(1, 1), (-2, -2), (-2, -1) * n],
        ):
            assert todd_coxeter_order(Presentation(("a", "b"), rels)) == 2 * n

    def test_commutator_written_with_inverse(self):
        # <a, b | a^2, a b a^-1 b^-1> is Z/2 x Z: infinite, abelianization Z + Z/2
        p = Presentation(("a", "b"), [(1, 1), (1, 2, -1, -2)])
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter_order(p, 500)
        inv = abelianization(p)
        assert inv.free_rank == 1 and inv.torsion == (2,)
        # b^n = 1 as well: Z/2 x Z/n
        for n in (1, 2, 3, 7):
            q = Presentation(("a", "b"), [(1, 1), (1, 2, -1, -2), (2,) * n])
            assert todd_coxeter_order(q) == 2 * n

    def test_relator_reducing_to_a_single_letter(self):
        # a b a = 1 with a^2 = 1 gives b = 1: the group is Z/2
        for w in ((1, 2, 1), (-1, 2, 1), (1, -2, -1)):
            assert todd_coxeter_order(Presentation(("a", "b"), [(1, 1), w])) == 2
        # a b c b^-1 a strips to b c b^-1 and then to c, so c = 1 and the
        # group is <a, b | a^2, b^3, (ab)^2>, the dihedral group of order 6
        p = Presentation(("a", "b", "c"), [(1, 1), (2, 2, 2), (1, 2, 3, -2, 1), (1, 2) * 2])
        assert todd_coxeter_order(p) == 6


def relabelled(ngens, rels, rng):
    """Permute generators, rotate each relator, invert it half the time and
    shuffle the relators."""
    perm = list(range(1, ngens + 1))
    rng.shuffle(perm)
    out = []
    for w in rels:
        w = tuple(perm[abs(x) - 1] * (1 if x > 0 else -1) for x in w)
        r = rng.randrange(len(w))
        w = w[r:] + w[:r]
        out.append(inverse_word(w) if rng.random() < 0.5 else w)
    rng.shuffle(out)
    return Presentation(tuple(f"g{i}" for i in range(ngens)), out)


def random_power_presentation(rng):
    """A von Dyck group <a, b | a^p, b^q, (ab)^r> or a rank-3 Coxeter group,
    three times in five with one more power of a short random word, relabelled:
    finite and infinite groups, with and without a dihedral root, whose
    product x y has order m on the cosets and less."""
    if rng.random() < 0.6:
        ngens = 2
        rels = [(1,) * rng.randint(2, 5), (2,) * rng.randint(2, 5), (1, 2) * rng.randint(2, 7)]
    else:
        ngens = 3
        rels = [(g, g) for g in (1, 2, 3)]
        rels += [(i, j) * rng.randint(2, 6) for i, j in ((1, 2), (1, 3), (2, 3))]
    if rng.random() < 0.6:
        while True:
            w = [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(rng.randint(2, 4))]
            w = cyclically_reduce(reduce_word(w))
            if w:
                break
        rels.append(w * rng.randint(2, 6))
    return relabelled(ngens, rels, rng)


def coxeter_a6(extra=()):
    """The Coxeter presentation of S_7 on s1..s6, plus ``extra`` relators."""
    rels = [(i, i) for i in range(1, 7)]
    rels += [(i, j) * (3 if j == i + 1 else 2) for i in range(1, 7) for j in range(i + 1, 7)]
    return Presentation([f"s{i}" for i in range(1, 7)], rels + list(extra))


def dihedral_subgroup(p):
    """((x, y), m): the dihedral subgroup's generator words that the table
    enumerates over for p, and the power m of the relator (x y)^m they come
    from, read as the coset table reads the relators: modulo g^2 = 1 over
    every involution g.  None when p has no dihedral root."""
    table = _CosetTable(p.ngens, p.relators, 1)
    return fpgroup._dihedral_subgroup(table.words, table.involutions)


def over_dihedral(p, limit=10**6):
    """(xy, m, index, period): the dihedral subgroup's generator words, m,
    the subgroup's index and the order of the permutation that x y induces
    on its cosets."""
    xy, m = dihedral_subgroup(p)
    table = _CosetTable(p.ngens, p.relators, limit, xy)
    return xy, m, table.enumerate(), table.subgroup_period()


def recorded_enumerations(monkeypatch):
    """The number of subgroup words of every _CosetTable.enumerate run from
    now on, in a list that the caller may clear."""
    runs = []
    enumerate_ = _CosetTable.enumerate

    def recorded(self):
        runs.append(len(self.subgroup))
        return enumerate_(self)

    monkeypatch.setattr(_CosetTable, "enumerate", recorded)
    return runs


def triangle_237(k):
    return Presentation("ab", [(1, 1), (2, 2, 2), (1, 2) * 7, (1, 2, -1, -2) * k])


def coxeter(n, labels):
    """The Coxeter presentation on s1..sn: s_i^2 and (s_i s_j)^m_ij, with
    m_ij = labels[i, j] for the 1-based pairs given and 2 for the rest."""
    rels = [(i, i) for i in range(1, n + 1)]
    rels += [(i, j) * labels.get((i, j), 2) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Presentation([f"s{i}" for i in range(1, n + 1)], rels)


def a_labels(n, m12=3):
    """The labels of A_n, or of B_n for m12 = 4."""
    return {(i, i + 1): 3 for i in range(2, n)} | {(1, 2): m12}


def enum_menu_groups():
    """The close ops of the benchmark's enum menu up to order 1092, with
    their orders: the Coxeter groups A3, B3, A4, A5, B4 and D4, (2,3,7;4),
    (2,3,7;7) and Z/450, Z/700, Z/1000."""
    return [
        (coxeter(3, a_labels(3)), 24),
        (coxeter(3, a_labels(3, m12=4)), 48),
        (coxeter(4, a_labels(4)), 120),
        (coxeter(5, a_labels(5)), 720),
        (coxeter(4, a_labels(4, m12=4)), 384),
        (coxeter(4, {(2, 3): 3, (3, 4): 3, (1, 3): 3}), 192),
        (triangle_237(4), 168),
        (triangle_237(7), 1092),
    ] + [(cyclic_presentation(n), n) for n in (450, 700, 1000)]


def dihedral_free_groups():
    """Finite groups with no dihedral root, with their orders: Z/4 x Z/6,
    Z/6 = <a, b | a^6, b^-1 a^2>, Z/2 and A_4."""
    return [
        (Presentation("ab", [(1,) * 4, (2,) * 6, (1, 2, -1, -2)]), 24),
        (Presentation("ab", [(1,) * 6, (-2, 1, 1)]), 6),
        (Presentation("ab", [(1,) * 6, (1,) * 4, (2, -1)]), 2),
        (Presentation("ab", [(1,) * 3, (2,) * 3, (1, 2) * 2]), 12),
    ]


def power_groups():
    """The finite groups of TestPowerSubgroup, with their orders."""
    return [
        (triangle_237(8), 10752),
        (triangle_237(7), 1092),
        (triangle_237(4), 168),
        (coxeter_a6(), 5040),
        (coxeter_a6([(1, 2) * 6]), 5040),
        (Presentation("abt", [(1, 1), (1,), (2, 2), (3, 3, 3), (1, 2) * 2, (2, 3) * 2]), 6),
        (Presentation("abc", [(1, 1), (3, 3), (2, 2, 2), (2, 1, 2, 3) * 3, (-1, -1, 3)]), 12),
        (Presentation("ab", [(1, 1), (2, 2), (1, 2) * 3]), 6),
        (coxeter(3, {(1, 2): 3}), 12),
    ] + dihedral_free_groups()


class TestPowerSubgroup:
    """|G| = |G:H| * |H| for H = <x, y>, |H| = 2m, when the root x y of a
    power relator (x y)^m (m >= 3) splits into two conjugates of
    involutions and x y permutes the cosets of H with order m.  Else the
    trivial subgroup's count."""

    def test_highest_power_choice(self):
        # modulo a^2 = 1, [a, b]^8 reads (a b a b^-1)^8 = (a . b a b^-1)^8;
        # (ab)^7 has no split, since b is no involution
        assert dihedral_subgroup(triangle_237(8)) == (((1,), (2, 1, -2)), 8)
        assert dihedral_subgroup(triangle_237(7)) == (((1,), (2, 1, -2)), 7)
        assert dihedral_subgroup(triangle_237(4)) == (((1,), (2, 1, -2)), 4)
        assert dihedral_subgroup(Presentation("ab", [(1, 1), (2, 2, 2), (1, 2) * 7])) is None
        # S_7: the first (s_i s_j)^3; the largest m wins, the first on ties
        assert dihedral_subgroup(coxeter_a6()) == (((1,), (2,)), 3)
        assert dihedral_subgroup(coxeter_a6([(2, 3) * 3, (3, 4) * 6])) == (((3,), (4,)), 6)
        # no relator with a split root gives None
        assert dihedral_subgroup(Presentation("ab", [(2, 2, 2), (1, 1, 1)])) is None
        assert dihedral_subgroup(Presentation("ab", [(1, 2, -1, -2)])) is None
        # a half w g w, not w g w^-1, is no conjugate of an involution
        assert dihedral_subgroup(Presentation("abc", [(1, 1), (3, 3), (2, 1, 2, 3) * 3])) is None
        assert dihedral_subgroup(Presentation("abc", [(1, 1), (3, 3), (2, 1, -2, 3) * 3])) == (
            ((2, 1, -2), (3,)),
            3,
        )

    def test_no_split_at_m_2(self):
        # a = 1, so <a, b> = <b> has order 2, not 4: a split of (ab)^2
        # would claim 3 * 4 = 12 for this S_3
        p = Presentation("abt", [(1, 1), (1,), (2, 2), (3, 3, 3), (1, 2) * 2, (2, 3) * 2])
        assert fpgroup._dihedral_split((1, 2), {1, 2}) == ((1,), (2,))
        assert dihedral_subgroup(p) is None
        assert todd_coxeter_order(p) == 6

    def test_half_w_g_w_is_no_split(self):
        # c = 1 and <a, b | a^2, b^3, (b a b)^3> is A_4; read as a split,
        # (b a b) c would claim 24
        p = Presentation("abc", [(1, 1), (3, 3), (2, 2, 2), (2, 1, 2, 3) * 3, (-1, -1, 3)])
        assert todd_coxeter_order(p) == 12
        assert _CosetTable(p.ngens, p.relators, 10**6).enumerate() == 12

    def test_index_one_split_enumerates(self):
        # <a, b> is the whole group, which need not be cyclic: S_3, whose
        # abelianization has order 2
        p = Presentation("ab", [(1, 1), (2, 2), (1, 2) * 3])
        assert over_dihedral(p) == (((1,), (2,)), 3, 1, 1)
        assert abelianization(p).order() == 2
        assert todd_coxeter_order(p) == 6

    def test_orders_agree_with_the_trivial_subgroup(self):
        rng = random.Random(16)
        limit = 1000
        certified = fell_back = refused = no_root = 0
        for _ in range(800):
            p = random_power_presentation(rng)
            if dihedral_subgroup(p) is None:
                # one enumeration of the trivial subgroup, under the same limit
                no_root += 1
                try:
                    want = _CosetTable(p.ngens, p.relators, limit).enumerate()
                except CosetLimitExceeded:
                    with pytest.raises(CosetLimitExceeded):
                        todd_coxeter_order(p, limit)
                    continue
                assert todd_coxeter_order(p, limit) == want, p
                continue
            try:
                xy, m, index, period = over_dihedral(p, limit)
            except CosetLimitExceeded:
                # a limit the enumeration over H hits is final
                with pytest.raises(CosetLimitExceeded):
                    todd_coxeter_order(p, limit)
                refused += 1
                continue
            assert m >= 3 and m % period == 0
            try:
                want = _CosetTable(p.ngens, p.relators, limit).enumerate()
            except CosetLimitExceeded:
                want = _CosetTable(p.ngens, p.relators, 10**5).enumerate()
            if period == m:
                certified += 1
                assert index * 2 * m == want, p
            else:
                fell_back += 1
            assert todd_coxeter_order(p, 10**5) == want, p
        assert certified >= 30 and fell_back >= 60 and refused >= 60
        assert no_root >= 300

    def test_unproved_power_falls_back(self):
        # (s1 s2)^6 holds in S_7 but s1 s2 has order 3: n * 2m would be 10080
        p = coxeter_a6([(1, 2) * 6])
        assert over_dihedral(p) == (((1,), (2,)), 6, 840, 3)
        assert todd_coxeter_order(p) == 5040

    def test_normal_subgroup_falls_back(self):
        # S_3 x Z/2: <s1, s2> is normal, so s1 s2 fixes both of its cosets
        p = coxeter(3, {(1, 2): 3})
        assert over_dihedral(p) == (((1,), (2,)), 3, 2, 1)
        assert todd_coxeter_order(p) == 12

    def test_index_one_falls_back(self, monkeypatch):
        # index 1 proves nothing by itself: x y fixes the one coset, k = 1 < m,
        # so the trivial subgroup is enumerated after <x, y>, as for any k < m
        s3 = Presentation("ab", [(1, 1), (2, 2), (1, 2) * 3])
        # (ab)^6 is the largest power, but (ba)^3 holds too: S_3 again
        s3_6 = Presentation("ab", [(1, 1), (2, 2), (1, 2) * 6, (2, 1) * 3])
        for p in (s3, s3_6):
            assert over_dihedral(p)[2:] == (1, 1)
        runs = recorded_enumerations(monkeypatch)
        for p in (s3, s3_6):
            runs.clear()
            assert todd_coxeter_order(p) == 6
            assert runs == [2, 0]

    def test_no_dihedral_root_enumerates_the_trivial_subgroup_once(self, monkeypatch):
        for p, _n in dihedral_free_groups():
            assert dihedral_subgroup(p) is None
        runs = recorded_enumerations(monkeypatch)
        for p, n in dihedral_free_groups():
            runs.clear()
            assert todd_coxeter_order(p) == n
            assert runs == [0]

    def test_proved_power(self):
        # over <a> . <b a b^-1>, and over <a b a b^-1> as a table over one
        # word: 672 * 16 = 1344 * 8
        p = triangle_237(8)
        assert over_dihedral(p) == (((1,), (2, 1, -2)), 8, 672, 8)
        table = _CosetTable(p.ngens, p.relators, 10**6, ((1, 2, 1, -2),))
        assert (table.enumerate(), table.subgroup_period()) == (1344, 8)
        assert todd_coxeter_order(p) == 10752
        # S_7 over <s1, s2> = S_3: 840 * 6
        assert over_dihedral(coxeter_a6()) == (((1,), (2,)), 3, 840, 3)
        assert todd_coxeter_order(coxeter_a6()) == 5040

    def test_limit_bounds_the_enumeration_that_runs(self, monkeypatch):
        p = triangle_237(8)
        # 10752 cosets of the trivial subgroup do not fit in 5000
        with pytest.raises(CosetLimitExceeded):
            _CosetTable(p.ngens, p.relators, 5000).enumerate()
        assert todd_coxeter_order(p, 5000) == 10752
        # the infinite (2,3,7) triangle group has no dihedral root: refused
        # by one enumeration of the trivial subgroup
        runs = recorded_enumerations(monkeypatch)
        with pytest.raises(CosetLimitExceeded, match="more than 4000 live cosets"):
            todd_coxeter_order(Presentation("ab", [(1, 1), (2, 2, 2), (1, 2) * 7]), 4000)
        assert runs == [0]

    def test_enum_menu_relabellings_are_proved_over_dihedral_subgroups(self, monkeypatch):
        # every multi-generator close op of the benchmark's enum menu, under
        # generator permutations, rotated and inverted relators, is proved by
        # one enumeration over <x, y>: a split that goes unseen would fall
        # back to the trivial subgroup, with the right order but 128 561
        # cosets defined for (2,3,7;8) instead of 8 275
        groups = [(p, n) for p, n in enum_menu_groups() if p.ngens > 1]
        groups += [
            (coxeter_a6(), 5040),
            (coxeter(5, a_labels(5, m12=4)), 3840),
            (triangle_237(8), 10752),
        ]
        assert len(groups) == 11
        runs = recorded_enumerations(monkeypatch)
        for i, (base, order) in enumerate(groups):
            rng = random.Random(i)
            for _ in range(10):
                p = relabelled(base.ngens, base.relators, rng)
                runs.clear()
                assert todd_coxeter_order(p) == order
                assert runs == [2], p


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
        prod = amalgamated_product(pa, pb, [])
        assert prod.relators == ((1, 1), (2, 2, 2))
        inv = abelianization(prod)
        assert inv.free_rank == 0 and inv.torsion == (6,)
        # the free product itself is infinite (the modular group)
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter_order(prod, 2000)

    def test_trivial_a_side_is_normal_closure_quotient(self):
        pb = Presentation(("A", "B", "F", "G"), [(4, 3, 2, 1)])
        images = ((-2, 1), (4, -1), (4, 4, 2, 2))
        amalgam = amalgamated_product(trivial_presentation(), pb, [((), w) for w in images])
        direct = Presentation(pb.names, pb.relators + images)
        assert abelianization(amalgam) == abelianization(direct)
        assert todd_coxeter_order(amalgam) == todd_coxeter_order(direct)

    def test_identification_relator_is_u_times_v_inverse(self):
        pa = Presentation(("x",), [(1, 1, 1, 1)])
        pb = Presentation(("y", "z"), [(1, 2, -1, -2)])
        prod = amalgamated_product(pa, pb, [((1, 1), (1, 2))])
        assert prod.names == ("x", "y", "z")
        # pb's letters shift past pa's one generator: x x (y z)^-1 = x x z^-1 y^-1
        assert prod.relators == ((1, 1, 1, 1), (2, 3, -2, -3), (1, 1, -3, -2))

    def test_name_collision_resolved(self):
        pa = Presentation(("x",), [])
        pb = Presentation(("x",), [])
        prod = amalgamated_product(pa, pb, [])
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
