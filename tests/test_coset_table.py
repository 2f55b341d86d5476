"""Differential test of the column-layout coset table against the row-of-lists
reference it replaced, plus a replay of every finished table.

A presentation with a relator g^2 is compared with the reference in
involution mode, which shares g's column with g^-1 on its own code; its
closed table, each shared column written out twice, must also equal the
plain reference's.  Tables over a subgroup, given by one generator word or
by two, are compared with the reference's subgroup mode, which scans and
fills each word at its first coset on its own code."""

import random

import pytest

from reference_coset_table import ReferenceCosetTable, involutions_of, reduce_mod_involutions
from stablepi1.fpgroup import (
    CosetLimitExceeded,
    Presentation,
    _CosetTable,
    cyclic_presentation,
    todd_coxeter_order,
)


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


def live_rows(table, cols):
    """The column-layout table as rows over its live cosets, renumbered 0..,
    read through the column lists ``cols``."""
    live = [k for k in range(1, table.top + 1) if table.p[k] == k]
    index = {k: i for i, k in enumerate(live)}
    return [[index[col[k]] for col in cols] for k in live]


def doubled_columns(table):
    """The table's columns with each shared one written out twice: one per
    generator and one per inverse, in the plain reference's order."""
    cols = []
    for col, inv in table.pairs:
        cols += (col, col) if inv is col else (col,)
    return cols


def reference_rows(table):
    live = [k for k in range(len(table.table)) if table.p[k] == k]
    index = {k: i for i, k in enumerate(live)}
    return [
        [index[table.rep(x)] for c, x in enumerate(table.table[k]) if c not in table.unused]
        for k in live
    ]


def run(table):
    """Enumerate; returns (table, None) or (table, the limit message)."""
    try:
        table.enumerate()
        return table, None
    except CosetLimitExceeded as exc:
        return table, str(exc)


def letter_columns(table, ngens):
    """letter -> column list, read off ``table.pairs``: a pair (c, c) is an
    involution's shared column, any other pair and the next are g's and g^-1's."""
    column, pairs = {}, iter(table.pairs)
    for g in range(1, ngens + 1):
        col, inv = next(pairs)
        if inv is not col:
            next(pairs)
        column[g], column[-g] = col, inv
    return column


def replay(table, ngens, relators, subgroup=()):
    """Every column is a permutation of the live cosets, each pair in
    ``table.pairs`` is a column and its inverse (a shared column is an
    involution: col[col[k]] == k), exactly the generators with a relator
    g^2 share one, every relator, g^2 and g^-1 included, closes from
    every coset, and every subgroup word closes at coset 1."""
    live = [k for k in range(1, table.top + 1) if table.p[k] == k]
    assert len(live) == table.nlive
    assert [col for col, _inv in table.pairs] == table.cols
    for col, inv in table.pairs:
        assert sorted(col[k] for k in live) == live
        assert all(inv[col[k]] == k for k in live)
    column = letter_columns(table, ngens)
    shared = [g for g in range(1, ngens + 1) if column[g] is column[-g]]
    assert shared == involutions_of(relators)
    for w in relators:
        cols = [column[x] for x in w]
        for k in live:
            coset = k
            for col in cols:
                coset = col[coset]
            assert coset == k
    for w in subgroup:
        coset = 1
        for x in w:
            coset = column[x][coset]
        assert coset == 1


def assert_same(ngens, relators, limit, subgroup=()):
    """Enumerate with the new table and the reference (in involution mode
    when a generator has a relator g^2), over the subgroup the words
    ``subgroup`` generate, and compare; returns the new table, or None when
    both stopped at the limit."""
    involutory = bool(involutions_of(relators))
    ref, ref_exc = run(
        ReferenceCosetTable(ngens, relators, limit, involutions=involutory, subgroup=subgroup)
    )
    new, new_exc = run(_CosetTable(ngens, relators, limit, subgroup))
    assert new_exc == ref_exc
    assert new.nlive == ref.nlive
    assert new.top == len(ref.table)
    if new_exc is not None:
        return None
    assert standardise(live_rows(new, new.cols)) == standardise(reference_rows(ref))
    if involutory:
        # a closed table is the group's Cayley graph, whichever way it was
        # enumerated; the plain reference gets room to close
        plain, plain_exc = run(ReferenceCosetTable(ngens, relators, 10**6, subgroup=subgroup))
        assert plain_exc is None
        assert standardise(live_rows(new, doubled_columns(new))) == standardise(
            reference_rows(plain)
        )
    replay(new, ngens, relators, subgroup)
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


def random_subgroup_word(rng, relators, ngens):
    """A nonempty random word, reduced freely and cyclically modulo g^2 = 1
    over the involutions of ``relators``, as the table requires."""
    involutions = involutions_of(relators)
    while True:
        w = [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(rng.randint(1, 5))]
        w = reduce_mod_involutions(w, involutions)
        if w:
            return w


def assert_random_subgroups_match(seed, limit, nwords):
    """120 random presentations, each over a subgroup generated by
    ``nwords`` random words; both outcomes and a nontrivial index occur."""
    rng = random.Random(seed)
    closed = nontrivial = 0
    for _ in range(120):
        p = random_presentation(rng)
        gens = tuple(random_subgroup_word(rng, p.relators, p.ngens) for _ in range(nwords))
        table = assert_same(p.ngens, p.relators, limit, gens)
        if table is not None:
            closed += 1
            nontrivial += table.nlive > 1
    assert 0 < closed < 120 and nontrivial > 0


@pytest.mark.parametrize("limit", [50, 200, 2000])
def test_random_subgroups_match_reference(limit):
    assert_random_subgroups_match(f"subgroup {limit}", limit, 1)


@pytest.mark.parametrize("limit", [50, 200, 2000])
def test_random_two_word_subgroups_match_reference(limit):
    assert_random_subgroups_match(f"two-word subgroup {limit}", limit, 2)


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


def root(word):
    """(u, m) with word = u^m and m as large as it gets."""
    for d in range(1, len(word) + 1):
        if len(word) % d == 0 and word == word[:d] * (len(word) // d):
            return word[:d], len(word) // d


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_groups_over_power_roots_match_reference(name):
    """The cosets of <u> for the root u of every power relator u^m; the
    index divides the order."""
    (ngens, rels), order = NAMED[name]
    rng = random.Random(name)
    p = Presentation(tuple(f"x{i}" for i in range(ngens)), relabel(ngens, rels, rng))
    powers = [root(w) for w in p.relators if root(w)[1] > 1]
    assert powers
    for u, m in powers:
        index = assert_same(p.ngens, p.relators, 10**6, (u,)).nlive
        assert order % index == 0 and order // index <= m


def dihedral_splits(u, involutions):
    """Every (x, y) with u = x y and x, y each w g w^-1 for an involution g,
    letters g^-1 of involutions written g."""

    def conjugates_involution(w):
        h = len(w) // 2
        inverse = tuple(x if x in involutions else -x for x in reversed(w[:h]))
        return len(w) % 2 == 1 and w[h] in involutions and w[h + 1 :] == inverse

    return [
        (u[:i], u[i:])
        for i in range(1, len(u))
        if conjugates_involution(u[:i]) and conjugates_involution(u[i:])
    ]


@pytest.mark.parametrize("name", sorted(set(NAMED) - {"Z450"}))
def test_named_groups_over_dihedral_splits_match_reference(name):
    """The cosets of <x, y> for every split u = x y of a power relator's
    root, as the table reads it, into two conjugates of involutions: a
    dihedral group of order at most 2m."""
    (ngens, rels), order = NAMED[name]
    rng = random.Random(name)
    p = Presentation(tuple(f"x{i}" for i in range(ngens)), relabel(ngens, rels, rng))
    involutions = set(involutions_of(p.relators))
    splits = []
    for w in p.relators:
        w = reduce_mod_involutions(w, involutions)
        if w:  # g^2 reduces to nothing
            u, m = root(w)
            splits += [(xy, m) for xy in dihedral_splits(u, involutions) if m > 1]
    assert splits
    for xy, m in splits:
        index = assert_same(p.ngens, p.relators, 10**6, xy).nlive
        assert order % index == 0 and order // index <= 2 * m


TRIANGLE_237 = [(1, 1), (2, 2, 2), (1, 2) * 7]


@pytest.mark.parametrize(
    "k, limit, closes",
    [
        (4, 170, True),  # order 168: one lookahead pass frees room
        # order 10752: lookahead frees cosets, then gives up (at 300 it frees none)
        (8, 500, False),
    ],
)
def test_lookahead_under_tight_limit_matches_reference(monkeypatch, k, limit, closes):
    freed = []
    lookahead = _CosetTable._lookahead

    def counting(self, alpha):
        freed.append(lookahead(self, alpha))
        return freed[-1]

    monkeypatch.setattr(_CosetTable, "_lookahead", counting)
    rels = Presentation(("a", "b"), TRIANGLE_237 + [(1, 2, -1, -2) * k]).relators
    assert (assert_same(2, rels, limit) is not None) == closes
    assert freed and freed[0] > 0


def von_dyck(p, q, r):
    """<x, y | x^p, y^q, (xy)^r>: order 2 / (1/p + 1/q + 1/r - 1) when that
    is positive, infinite otherwise."""
    return 2, [(1,) * p, (2,) * q, (1, 2) * r]


# (ngens, relators), limits: powers of one letter (closure flags), of two
# letters and of commutators (chain fill only), finite and infinite
POWERS = {
    "A5": (coxeter(5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}), (10**6, 721, 400)),
    "B4": (NAMED["B4"][0], (10**6, 385, 200)),
    "D5": (coxeter(5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}), (10**6, 1921, 1000)),
    "vD2,3,5": (von_dyck(2, 3, 5), (10**6, 61, 40)),
    "vD5,3,2": (von_dyck(5, 3, 2), (10**6, 60, 40)),
    "vD4,3,2": (von_dyck(4, 3, 2), (10**6, 24, 16)),
    "vD2,2,9": (von_dyck(2, 2, 9), (10**6, 19, 12)),
    "vD3,3,3": (von_dyck(3, 3, 3), (300, 1000)),
    "vD5,5,2": (von_dyck(5, 5, 2), (300, 1000)),
    # at 309, unlike 300, lookahead frees a coset of one relabelling, so
    # compaction runs after flags are set
    "vD2,3,7": (von_dyck(2, 3, 7), (309, 1000)),
    "237;4": ((2, TRIANGLE_237 + [(1, 2, -1, -2) * 4]), (10**6, 170, 100)),
    "237;5": ((2, TRIANGLE_237 + [(1, 2, -1, -2) * 5]), (10**6, 300, 100)),
    "237;6": ((2, TRIANGLE_237 + [(1, 2, -1, -2) * 6]), (10**6, 1093, 600)),
    "237;7": ((2, TRIANGLE_237 + [(1, 2, -1, -2) * 7]), (10**6, 1093, 600)),
    **{f"Z{n}": ((1, [(1,) * n]), (10**6, n, n - 1)) for n in (2, 37, 450)},
    # b a^k b^-1 = a^l with a power of a: gaps x v x^-1 whose ends meet
    "BS1,2;4": ((2, [(2, 1, -2, -1, -1), (1,) * 4]), (300, 1000)),
    "BS1,3;3,3": ((2, [(2, 1, -2, -1, -1, -1), (1,) * 3, (2,) * 3]), (10**6, 3, 2)),
    "BS3,3;3": ((2, [(2, 1, 1, 1, -2, -1, -1, -1), (1,) * 3]), (300, 1000)),
}
# cases whose tight limits force lookahead and compaction after flags are set
FLAGGED_UNDER_LIMIT = {"vD2,3,5", "vD2,3,7", "237;4", "237;5", "237;6", "237;7"}


@pytest.mark.parametrize("name", sorted(POWERS))
def test_proper_powers_match_reference(monkeypatch, name):
    """Chain fill and closure flags leave HLT unchanged, also when a tight
    limit forces lookahead and compaction after flags have been set."""
    flagged = {"_lookahead": 0, "_compact": 0}

    def after_flags(method):
        original = getattr(_CosetTable, method)

        def wrapped(self, *args):
            flagged[method] += any(any(flags) for flags in self.flags)
            return original(self, *args)

        monkeypatch.setattr(_CosetTable, method, wrapped)

    after_flags("_lookahead")
    after_flags("_compact")
    (ngens, rels), limits = POWERS[name]
    rng = random.Random(name)
    for _ in range(2):
        p = Presentation(tuple(f"x{i}" for i in range(ngens)), relabel(ngens, rels, rng))
        for limit in limits:
            assert_same(p.ngens, p.relators, limit)
    if name in FLAGGED_UNDER_LIMIT:
        assert flagged["_lookahead"] and flagged["_compact"]


def test_cyclic_relator_closes_in_one_scan(monkeypatch):
    """<t | t^2000>: one scan defines every coset and flags t^2000 closed at
    each of them, so enumeration is linear in the order."""
    calls = []
    scan = _CosetTable._scan

    def counting(self, *args):
        calls.append(args)
        return scan(self, *args)

    monkeypatch.setattr(_CosetTable, "_scan", counting)
    assert todd_coxeter_order(cyclic_presentation(2000)) == 2000
    assert len(calls) == 1
