"""Differential tests of the integer-only torus layer.

``torus.compose``, ``IntMatrix.mul``, ``intlin.solve_integral`` and
``torus.conjugate_into_lattice`` (whose translation solve replaced
``intlin.solve_in_rowspace``) work on integers only.  Against the
``Fraction`` versions they replaced (``tests/reference_torus.py``) they must
return equal results on seeded random inputs, and the cover scenarios B1 and
B2 must get the same group closure and the same conjugated deck
transformation.  ``intlin.membership`` reads its answer off the left kernel
of A that the Hermite step hands back; it must agree with the former route
through a lattice membership.
"""

import random
from fractions import Fraction

import pytest

from reference_torus import (
    from_fractions,
    reference_compose,
    reference_conjugate_into_lattice,
    reference_membership,
    reference_mul,
    reference_solve_in_rowspace,
    reference_solve_integral,
)
from stablepi1 import torus
from stablepi1.intlin import (
    IntMatrix,
    RatVector,
    hermite_normal_form,
    membership,
    solve_integral,
)
from stablepi1.scenarios import bundled_catalogue_dir, load_scenario
from stablepi1.torus import AffineTorusMap, compose, conjugate_into_lattice, generated_group


def random_map(rng, n):
    linear = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    den = rng.randint(1, 12)
    nums = tuple(rng.randint(-3 * den, 3 * den) for _ in range(n))
    return AffineTorusMap(linear, RatVector(nums, den))


def test_compose_matches_reference():
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(2, 6)
        f, g = random_map(rng, n), random_map(rng, n)
        got, want = compose(f, g), reference_compose(f, g)
        assert got == want
        h = random_map(rng, n)
        assert compose(got, h) == reference_compose(want, h)


def test_compose_rank_mismatch():
    rng = random.Random(5)
    with pytest.raises(ValueError):
        compose(random_map(rng, 2), random_map(rng, 4))


def test_mul_matches_reference():
    rng = random.Random(6)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(200)]
    for r, k, c in shapes:
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)], cols=k)
        b = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)], cols=c)
        assert a.mul(b) == reference_mul(a, b)
        vec = [rng.randint(-9, 9) for _ in range(k)]
        assert a.mul_vector(vec) == [sum(x * y for x, y in zip(a.row(i), vec)) for i in range(r)]
    with pytest.raises(ValueError):
        IntMatrix.identity(2).mul(IntMatrix.identity(3))


def full_rank(rng, n):
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if IntMatrix.from_rows(rows).det():
            return rows


def bases(rng):
    """(rows, ambient rank) pairs: full-rank HNF, full-rank non-echelon,
    HNF of at most n random rows, dependent rows, no rows."""
    out = []
    for _ in range(60):
        n = rng.randint(1, 6)
        out.append((hermite_normal_form(IntMatrix.from_rows(full_rank(rng, n))).to_rows(), n))
        out.append((full_rank(rng, n), n))
        k = rng.randint(1, n)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        out.append((hermite_normal_form(IntMatrix.from_rows(rows)).to_rows(), n))
        # a combination of the others, a copy and a zero row
        extra = [sum(rng.randint(-2, 2) * row[j] for row in rows) for j in range(n)]
        dependent = rows + [extra, list(rows[0]), [0] * n]
        rng.shuffle(dependent)
        out.append((dependent, n))
        out.append(([], n))
    return out


def targets(rng, rows, n):
    """An integer combination of the rows, the same moved by halves over a
    random denominator, a rational combination, a random integer vector and
    zero."""
    k = len(rows)
    coeffs = [rng.randint(-6, 6) for _ in range(k)]
    integral = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    den = rng.randint(2, 12)
    rational = [Fraction(x + rng.choice((0, 1)) * den // 2, den) for x in integral]
    half = [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(k)]
    rational_span = [sum((c * row[j] for c, row in zip(half, rows)), Fraction(0)) for j in range(n)]
    free = [rng.randint(-9, 9) for _ in range(n)]
    return [integral, rational, rational_span, free, [0] * n]


def test_solve_matches_reference():
    """The Hermite form of every corpus basis, against its integer targets."""
    rng = random.Random(7)
    kinds = {"none": 0, "integral": 0, "not integral": 0}
    for rows, n in bases(rng):
        basis = hermite_normal_form(IntMatrix.from_rows(rows, cols=n))
        for target in targets(rng, rows, n):
            if any(type(x) is Fraction for x in target):
                continue
            want = reference_solve_in_rowspace(basis, target)
            want_int = reference_solve_integral(basis, target)
            assert solve_integral(basis, target) == want_int, (rows, target)
            if want is None:
                kinds["none"] += 1
            elif want_int is None:
                kinds["not integral"] += 1
            else:
                kinds["integral"] += 1
                assert all(type(x) is int for x in solve_integral(basis, target))
    assert all(kinds.values()), kinds


def lattice_maps(rng, rows, n):
    """Linear parts to conjugate into the lattice of ``rows``: I, -I and D*A
    for a random A, where D is the lattice's determinant (a full-rank lattice
    contains D*Z^n, so all three preserve it), and A itself (which may not)."""
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    h = hermite_normal_form(IntMatrix.from_rows(rows, cols=n))
    d = h.det() if h.rows == n else 1
    return [
        IntMatrix.identity(n),
        IntMatrix.from_rows([[-x for x in row] for row in IntMatrix.identity(n).to_rows()]),
        IntMatrix.from_rows([[d * x for x in row] for row in a]),
        IntMatrix.from_rows(a),
    ]


def test_conjugate_into_lattice_matches_reference():
    """The translation solve on the same seeded corpus as the solves above:
    every target becomes a translation over one denominator."""
    rng = random.Random(7)
    kinds = {"conjugated": 0, "fractional translation": 0, "not preserved": 0, "not full rank": 0}
    for rows, n in bases(rng):
        lattice = IntMatrix.from_rows(rows, cols=n)
        maps = lattice_maps(rng, rows, n)
        for k, target in enumerate(targets(rng, rows, n)):
            args = (maps[k % len(maps)], from_fractions(target), lattice)
            try:
                want = reference_conjugate_into_lattice(*args)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    conjugate_into_lattice(*args)
                kinds["not full rank" if "full rank" in str(exc) else "not preserved"] += 1
                continue
            assert conjugate_into_lattice(*args) == want, (rows, target, args[0])
            kinds["conjugated"] += 1
            kinds["fractional translation"] += want.translation.denominator > 1
    assert all(kinds.values()), kinds


def test_solve_edge_cases():
    two = IntMatrix.from_rows([[2, 0], [0, 2]])
    ident = IntMatrix.identity(2)
    assert solve_integral(two, [1, 0]) is None
    # (1, 0) and (1/3, 0) in the basis 2e1, 2e2
    half = conjugate_into_lattice(ident, RatVector((1, 0), 1), two)
    assert half == AffineTorusMap(ident, RatVector((1, 0), 2))
    sixth = conjugate_into_lattice(ident, RatVector((1, 0), 3), two)
    assert sixth == AffineTorusMap(ident, RatVector((1, 0), 6))
    assert solve_integral(IntMatrix(0, 3, ()), [0, 0, 0]) == []
    with pytest.raises(ValueError, match="full rank"):
        conjugate_into_lattice(IntMatrix.identity(3), RatVector.zero(3), IntMatrix(0, 3, ()))
    # a zero row is no Hermite basis row: it has no pivot column
    for basis in (IntMatrix(2, 0, ()), IntMatrix.from_rows([[1, 0], [0, 0]])):
        with pytest.raises(ValueError, match="zero row"):
            solve_integral(basis, [0] * basis.cols)
    with pytest.raises(ValueError):
        conjugate_into_lattice(ident, RatVector((1, 2, 3), 1), two)
    with pytest.raises(ValueError):
        solve_integral(two, [1])


def test_membership_matches_reference():
    """Seeded t and a, some a with zero columns: half the t are built as
    a x + z for a rational x and an integer z, so members are common."""
    rng = random.Random(12)
    kinds = {"member": 0, "not member": 0, "no columns": 0, "two or more free": 0}
    for _ in range(1200):
        n = rng.randint(1, 5)
        k = rng.choice((0, 1, 1, 2, 2, 3, n))
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], cols=k)
        den = rng.randint(1, 6)
        if rng.random() < 0.5:
            x = [rng.randint(-2 * den, 2 * den) for _ in range(k)]
            nums = [e + den * rng.randint(-2, 2) for e in a.mul_vector(x)]
        else:
            nums = [rng.randint(-2 * den, 2 * den) for _ in range(n)]
        t = RatVector(nums, den)
        got = membership(t, a)
        assert got == reference_membership(t, a), (t, a)
        kinds["member" if got else "not member"] += 1
        kinds["no columns"] += k == 0
        kinds["two or more free"] += n - k >= 2 and not got
    assert all(v >= 50 for v in kinds.values()), kinds


def cover_file(name):
    """The raw ``matrix`` and ``vector`` entries of a bundled cover scenario."""
    lines = [
        line.split("#", 1)[0].split()
        for line in (bundled_catalogue_dir() / f"{name}.scn").read_text().splitlines()
    ]
    lines = [toks for toks in lines if toks]
    matrices, vectors = {}, {}
    for idx, toks in enumerate(lines):
        if toks[0] == "matrix":
            r = int(toks[2])
            matrices[toks[1]] = IntMatrix.from_rows(
                [[int(x) for x in row] for row in lines[idx + 1 : idx + 1 + r]]
            )
        elif toks[0] == "vector":
            vectors[toks[1]] = [int(x) for x in toks[2:]]
    return matrices, vectors


@pytest.mark.parametrize("name", ["B1", "B2"])
def test_cover_closure_and_deck_unchanged(name, monkeypatch):
    scenario = load_scenario(bundled_catalogue_dir() / f"{name}.scn")
    gens = scenario.payload.group_gens
    got = generated_group(gens)
    matrices, vectors = cover_file(name)
    args = (
        matrices["deck.linear"],
        RatVector.integers(vectors["deck.translation"]),
        matrices["cover_lattice"],
    )
    deck = conjugate_into_lattice(*args)
    assert deck == scenario.payload.deck
    assert deck == reference_conjugate_into_lattice(*args)
    # the same breadth-first closure with the Fraction composition
    monkeypatch.setattr(torus, "compose", reference_compose)
    assert generated_group(gens) == got
    assert len(got) == scenario.payload.group_order
