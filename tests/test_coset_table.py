"""Differential test of the column-layout coset table against the row-of-lists
reference it replaced, plus a replay of every finished table."""

import random

import pytest

from reference_coset_table import ReferenceCosetTable
from stablepi1.fpgroup import CosetLimitExceeded, Presentation, _column, _CosetTable


def standardise(rows):
    """Renumber a complete table (rows of column images, coset 0 first) in
    breadth-first order from coset 0, columns in order."""
    number = {0: 0}
    order = [0]
    out = []
    for k in order:
        row = []
        for x in rows[k]:
            if x not in number:
                number[x] = len(order)
                order.append(x)
            row.append(number[x])
        out.append(row)
    return out


def live_rows(table):
    """The column-layout table as rows over its live cosets, renumbered 0.."""
    live = [k for k in range(1, table.top + 1) if table.p[k] == k]
    index = {k: i for i, k in enumerate(live)}
    return [[index[col[k]] for col in table.cols] for k in live]


def reference_rows(table):
    live = [k for k in range(len(table.table)) if table.p[k] == k]
    index = {k: i for i, k in enumerate(live)}
    return [[index[table.rep(x)] for x in table.table[k]] for k in live]


def enumerate_both(ngens, relators, limit):
    outcome = []
    for table in (
        ReferenceCosetTable(ngens, relators, limit),
        _CosetTable(ngens, relators, limit),
    ):
        try:
            table.enumerate()
            outcome.append((table, None))
        except CosetLimitExceeded as exc:
            outcome.append((table, str(exc)))
    return outcome


def replay(table, relators):
    """Every column is a permutation of the live cosets, columns c and c^1 are
    mutual inverses, and every relator closes from every coset."""
    live = [k for k in range(1, table.top + 1) if table.p[k] == k]
    assert len(live) == table.nlive
    for c, col in enumerate(table.cols):
        assert sorted(col[k] for k in live) == live
        inv = table.cols[c ^ 1]
        assert all(inv[col[k]] == k for k in live)
    for w in relators:
        cols = [table.cols[_column(x)] for x in w]
        for k in live:
            coset = k
            for col in cols:
                coset = col[coset]
            assert coset == k


def assert_same(ngens, relators, limit):
    """Enumerate with both tables and compare; returns the new table, or
    None when both stopped at the limit."""
    (ref, ref_exc), (new, new_exc) = enumerate_both(ngens, relators, limit)
    assert new_exc == ref_exc
    assert new.nlive == ref.nlive
    assert new.top == len(ref.table)
    if new_exc is not None:
        return None
    assert standardise(live_rows(new)) == standardise(reference_rows(ref))
    replay(new, relators)
    return new


def random_presentation(rng):
    ngens = rng.randint(1, 3)
    rels = []
    for _ in range(rng.randint(0, 4)):
        length = rng.randint(1, 8)
        rels.append(
            tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(length))
        )
    return Presentation(tuple(f"g{i}" for i in range(ngens)), rels)


@pytest.mark.parametrize("limit", [50, 200, 2000])
def test_random_presentations_match_reference(limit):
    rng = random.Random(limit)
    closed = 0
    for _ in range(120):
        p = random_presentation(rng)
        closed += assert_same(p.ngens, p.relators, limit) is not None
    # the suite must exercise both outcomes
    assert 0 < closed < 120


def coxeter(ngens, labels):
    rels = [(i + 1, i + 1) for i in range(ngens)]
    for i in range(ngens):
        for j in range(i + 1, ngens):
            rels.append((i + 1, j + 1) * labels.get((i, j), 2))
    return ngens, rels


NAMED = {
    "A4": (coxeter(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}), 120),
    "B4": (coxeter(4, {(0, 1): 4, (1, 2): 3, (2, 3): 3}), 384),
    "D4": (coxeter(4, {(0, 2): 3, (1, 2): 3, (2, 3): 3}), 192),
    "237;4": ((2, [(1, 1), (2, 2, 2), (1, 2) * 7, (1, 2, -1, -2) * 4]), 168),
    "Z450": ((1, [(1,) * 450]), 450),
}


def relabel(ngens, rels, rng):
    """Permute generators, rotate each relator and invert it half the time."""
    perm = list(range(1, ngens + 1))
    rng.shuffle(perm)
    out = []
    for w in rels:
        w = tuple(perm[abs(x) - 1] * (1 if x > 0 else -1) for x in w)
        r = rng.randrange(len(w))
        w = w[r:] + w[:r]
        if rng.random() < 0.5:
            w = tuple(-x for x in reversed(w))
        out.append(w)
    return out


@pytest.mark.parametrize("name", sorted(NAMED))
def test_relabelled_named_groups_match_reference(name):
    (ngens, rels), order = NAMED[name]
    rng = random.Random(name)
    for _ in range(2):
        p = Presentation(tuple(f"x{i}" for i in range(ngens)), relabel(ngens, rels, rng))
        assert assert_same(p.ngens, p.relators, 10**6).nlive == order


TRIANGLE_237 = [(1, 1), (2, 2, 2), (1, 2) * 7]


@pytest.mark.parametrize(
    "k, limit, closes",
    [
        (4, 170, True),  # order 168: three lookahead passes free room
        (8, 300, False),  # order 10752: lookahead frees cosets, then gives up
    ],
)
def test_lookahead_under_tight_limit_matches_reference(monkeypatch, k, limit, closes):
    freed = []
    lookahead = _CosetTable._lookahead

    def counting(self):
        freed.append(lookahead(self))
        return freed[-1]

    monkeypatch.setattr(_CosetTable, "_lookahead", counting)
    rels = Presentation(("a", "b"), TRIANGLE_237 + [(1, 2, -1, -2) * k]).relators
    assert (assert_same(2, rels, limit) is not None) == closes
    assert freed and freed[0] > 0
