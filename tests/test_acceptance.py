"""Acceptance suite: the exit criteria for the whole package.

Each test prints one PASS line once its assertions hold, so a verbose run
reads as a checklist.  Everything asserted here is exact; there are no
tolerances anywhere.  The smoothability / moduli side of the catalogue is
metadata only and deliberately has no criterion.
"""

import random

from stablepi1 import fpgroup, torus, vankampen
from stablepi1.intlin import IntMatrix, smith_normal_form
from stablepi1.scenarios import (
    VanKampenPayload,
    bundled_catalogue_dir,
    load_catalogue,
    load_scenario,
    run_scenario,
    verify_catalogue,
)

TABLE = {
    "P1": 4,
    "P2": 1,
    "P3": 3,
    "X1.1": 1,
    "X1.2": 1,
    "X1.3": 3,
    "X1.4": 4,
    "X1.5": 5,
    "B1": 4,
    "B2": 3,
    "E1": 1,
    "E2": 2,
    "E3": 3,
    "E4": 4,
    "E5": 5,
    "E2red": 1,
    "E3red": 1,
    "E4red": 1,
    "E5red": 1,
    "dP": 1,
    "R3": 3,
    "R4": 4,
    "R5": 5,
}

# Hand-entered presentations as printed in the worked computations, one per
# double-plane case: (generator names, relators).
HAND_PRESENTATIONS = {
    "P1": (("A", "B", "G"), [(-2, 1), (3, -1), (3, 3, 2, 2)]),
    "X1.4": (("u", "v", "G"), [(-3, 2), (2, -1, 3, 3), (2, 1)]),
    "P2": (("A", "B", "F", "G"), [(2, 1), (1, 3, 4), (3, 1, 2), (1, -4, 2)]),
    "X1.1": (("B", "F", "G"), [(2,), (-1, 3, 3), (-3, 2, 1)]),
    "X1.2": (("B", "F", "G"), [(2,), (-1, -2, 3), (-3, -3, 1)]),
    "P3": (("A", "B", "F", "G"), [(2, 1), (1, 3, 4), (3, 2), (1, -4, 1, 2)]),
    "X1.3": (("B", "F", "G"), [(1, 3, 3), (-3, 2, 1, -2), (1, -2)]),
    "X1.5": (("u", "v", "w"), [(1, 3, -2, 1), (-1, 2, 3), (1, 2)]),
}


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_table_reproduction():
    """verify-all reproduces the group-order table exactly, all cyclic."""
    reports, summary = verify_catalogue()
    assert summary["all_pass"], [r.error for r in reports if not r.passed]
    computed = {r.scenario: r.order for r in reports}
    assert computed == TABLE
    for r in reports:
        assert r.cyclic is True, r.scenario
    report(1, f"all {summary['total']} catalogue orders match, every group cyclic")


def test_criterion_2_van_kampen_oracle_equivalence():
    """The spanning-tree pipeline agrees with the hand presentations."""
    for sid, (names, rels) in HAND_PRESENTATIONS.items():
        hand = fpgroup.Presentation(names, rels)
        hand_order = fpgroup.todd_coxeter_order(hand)
        hand_inv = fpgroup.abelianization(hand)

        scenario = load_scenario(bundled_catalogue_dir() / f"{sid}.scn")
        assert isinstance(scenario.payload, VanKampenPayload)
        r = run_scenario(scenario)
        assert r.order == hand_order == TABLE[sid], sid
        assert r.abelianization == hand_inv, sid
    report(2, f"{len(HAND_PRESENTATIONS)} glued groups match their hand presentations")


def test_criterion_3_torus_arithmetic():
    """Free actions, deck order, preimage and intersection counts."""
    from stablepi1.intlin import RatVector

    e1 = torus.AffineTorusMap(IntMatrix.identity(4), RatVector((1, 0, 1, 0), 2))
    e2 = torus.AffineTorusMap(
        IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
        RatVector((0, 1, 0, 0), 2),
    )
    group = torus.generated_group([e1, e2])
    assert len(group) == 4
    assert torus.is_free_action(group)

    rho = [[0, -1], [1, -1]]
    f1 = torus.AffineTorusMap(IntMatrix.identity(4), RatVector((1, -1, 1, -1), 3))
    f2 = torus.AffineTorusMap(
        IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0] + rho[0], [0, 0] + rho[1]]
        ),
        RatVector((1, 0, 0, 0), 3),
    )
    group = torus.generated_group([f1, f2])
    assert len(group) == 9
    assert torus.is_free_action(group)

    swap = IntMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    sigma = torus.AffineTorusMap(swap, RatVector((0, 1, 0, 0), 2))
    assert len(torus.generated_group([sigma], cap=16)) == 4

    crossing_b1 = IntMatrix.from_rows(
        [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1]]
    )
    assert torus.preimage_count(crossing_b1) == 4
    crossing_b2 = IntMatrix.from_rows([[1, 1], [-1, 2]])
    assert torus.preimage_count(crossing_b2) == 3

    odd = torus.BiTriEllipticParams(5, 1, "odd")
    even = torus.BiTriEllipticParams(2, 1, "even", 0)
    assert torus.theta_fbar_intersection(odd) == 3
    assert torus.theta_fbar_intersection(even) == 3
    report(3, "free actions of orders 4 and 9, deck order 4, counts 4/3, products 3/3")


def test_criterion_4_bi_tri_elliptic_combinatorics():
    """Glue subgroup counts and the full twisting-number range."""
    for d_prime in (1, 2):
        params = torus.BiTriEllipticParams(3 - d_prime, d_prime, "even")
        assert len(torus.enumerate_glue_subgroups(params)) == 4
        normalized = torus.enumerate_glue_subgroups(params, normalized=True)
        g1, g2 = torus.glue_subgroup_pair(params)
        assert sorted(normalized) == sorted([g1, g2])
    twists = sorted(
        torus.twisting_number(s.payload.params)
        for s in load_catalogue()
        if s.kind == "torus-lattice" and hasattr(s.payload, "params")
    )
    assert twists == [1, 2, 3, 4, 5]
    report(4, "4 glue subgroups (2 normalized) for both degrees; twists cover 1..5")


def test_criterion_5a_word_reduction_roundtrips():
    rng = random.Random(20260810)
    for _ in range(1000):
        w = tuple(
            rng.choice([s * g for s in (1, -1) for g in range(1, 5)])
            for _ in range(rng.randint(0, 24))
        )
        r = fpgroup.reduce_word(w)
        assert fpgroup.reduce_word(r) == r
        assert len(r) <= len(w)
        assert fpgroup.reduce_word(w + fpgroup.inverse_word(w)) == ()
    report("5a", "1000 random free-reduction round-trips")


def test_criterion_5b_snf_random_matrices():
    rng = random.Random(42)
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        )
        res = smith_normal_form(a)
        assert res.u.mul(a).mul(res.v) == res.d
        assert abs(res.u.det()) == 1
        assert abs(res.v.det()) == 1
        diag = res.diagonal()
        nonzero = [d for d in diag if d]
        assert all(d >= 0 for d in diag)
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        if r == c:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(a.det())
    report("5b", "500 random Smith forms: unimodular, divisibility, det preserved")


def test_criterion_5c_coset_vs_abelian_orders():
    rng = random.Random(7)
    done = 0
    while done < 100:
        k = rng.randint(1, 3)
        orders = [rng.randint(1, 10) for _ in range(k)]
        total = 1
        for n in orders:
            total *= n
        if total > 60:
            continue
        names = tuple(f"g{i}" for i in range(k))
        rels = [(i + 1,) * n for i, n in enumerate(orders)]
        for i in range(k):
            for j in range(i + 1, k):
                rels.append((i + 1, j + 1, -(i + 1), -(j + 1)))
        # one extra random abelian relator keeps the lattice non-diagonal
        rels.append(
            tuple(
                rng.choice([s * g for s in (1, -1) for g in range(1, k + 1)])
                for _ in range(rng.randint(0, 4))
            )
        )
        p = fpgroup.Presentation(names, rels)
        inv = fpgroup.abelianization(p)
        assert fpgroup.todd_coxeter_order(p) == inv.order()
        done += 1
    report("5c", "100 finite abelian presentations: enumeration equals invariants")


def test_criterion_5d_edge_permutation_invariance():
    rng = random.Random(5)
    vk_ids = [s.id for s in load_catalogue() if s.kind == "vankampen"]
    assert len(vk_ids) == 8
    for sid in vk_ids:
        scenario = load_scenario(bundled_catalogue_dir() / f"{sid}.scn")
        payload = scenario.payload
        base = run_scenario(scenario)
        assert base.passed
        for _ in range(2):
            edges = list(payload.dbar.edges)
            rng.shuffle(edges)
            shuffled = vankampen.GluingComplex(
                payload.dbar.vertices,
                tuple(edges),
                payload.dbar.two_cells,
                rng.choice(payload.dbar.vertices),
            )
            images = vankampen.induced_hom(payload.gluing, shuffled, payload.d)
            glued = fpgroup.amalgamated_product(
                fpgroup.trivial_presentation(),
                vankampen.pi1_presentation(payload.d),
                [((), w) for w in images],
            )
            assert fpgroup.todd_coxeter_order(glued) == base.order
            assert fpgroup.abelianization(glued) == base.abelianization
    report("5d", "glued invariants stable under edge permutation and basepoint moves")
