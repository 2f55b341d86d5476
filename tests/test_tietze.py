"""Metamorphic tests: a Tietze move changes a presentation, not its group.

Every variant that seeded random Tietze moves make of a presentation P
presents the group of P, so ``todd_coxeter_order`` and ``abelianization``
must return on it what they return on P, with no oracle (Chen et al.,
"Metamorphic testing: a review of challenges and opportunities", ACM
Computing Surveys 51, 2018).  The moves append a product of two conjugated
relators, append a generator z with the relator z w^-1, append w^|G|
(Lagrange), invert or rotate a relator, or shuffle the relators.  The bases
are the 22 catalogue presentations with generators, the Coxeter group A3
and A4 = <a, b | a^3, b^3, (ab)^2>; their variants take every route of
``todd_coxeter_order``: <x, y> proved, the fallback from <x, y> to the
trivial subgroup, and the trivial subgroup alone when there is no dihedral
root.
"""

import random
import time

from stablepi1 import fpgroup
from stablepi1.fpgroup import Presentation, abelianization, inverse_word
from test_fpgroup import coxeter, recorded_enumerations
from test_scenarios import EXPECTED_ORDERS, certified_presentations


def random_word(rng, ngens, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(length))


def tietze_move(rng, names, rels, order):
    """One random Tietze move on the generator names and the relator list
    ``rels`` of a group of order ``order``; returns the new names and
    changes ``rels`` in place."""
    n = len(names)
    move = rng.randrange(5)
    if move == 0:  # a product of two conjugated relators
        product = ()
        for _ in range(2):
            c = random_word(rng, n, rng.randint(0, 2))
            r = rng.choice(rels)
            product += c + (r if rng.random() < 0.5 else inverse_word(r)) + inverse_word(c)
        rels.append(product)
    elif move == 1:  # a new generator z and the relator z = w
        rels.append((n + 1,) + inverse_word(random_word(rng, n, rng.randint(0, 3))))
        names = names + (f"z{n}",)
    elif move == 2:  # w^|G| = 1
        rels.append(random_word(rng, n, rng.randint(1, 3)) * order)
    elif move == 3:  # a relator inverted, or rotated
        i = rng.randrange(len(rels))
        r = rels[i]
        k = rng.randrange(len(r))
        rels[i] = inverse_word(r) if rng.random() < 0.5 else r[k:] + r[:k]
    else:
        rng.shuffle(rels)
    return names


def test_tietze_moves_keep_order_and_abelianization(monkeypatch):
    bases = [
        (p, EXPECTED_ORDERS[sid])
        for sid, (p, _runs) in certified_presentations(monkeypatch).items()
        if p.ngens
    ]
    bases += [(coxeter(3, {(1, 2): 3, (2, 3): 3}), 24)]
    bases += [(Presentation("ab", [(1,) * 3, (2,) * 3, (1, 2) * 2]), 12)]
    assert len(bases) == 24

    # the route each enumeration took, read off the subgroups enumerated
    runs = recorded_enumerations(monkeypatch)
    names_of_runs = {(2,): "<x, y>", (2, 0): "fallback", (0,): "no root"}
    routes = dict.fromkeys(names_of_runs.values(), 0)
    rng = random.Random(4)
    start = time.perf_counter()
    variants = 0
    for base, order in bases:
        inv = abelianization(base)
        for _ in range(45):
            names, rels = base.names, list(base.relators)
            for _ in range(rng.randint(1, 4)):
                names = tietze_move(rng, names, rels, order)
            p = Presentation(names, rels)
            runs.clear()
            assert fpgroup.todd_coxeter_order(p) == order, p.describe()
            assert abelianization(p) == inv, p.describe()
            routes[names_of_runs[tuple(runs)]] += 1
            variants += 1
    elapsed = time.perf_counter() - start
    assert variants >= 1000
    assert min(routes.values()) >= 1, routes
    assert elapsed < 2.0, (elapsed, routes)
