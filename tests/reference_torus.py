"""Reference torus and rowspace kernels for differential tests: the
``Fraction`` versions that the integer-only torus composition,
``torus.conjugate_into_lattice``, ``IntMatrix.mul``,
``intlin.solve_in_rowspace`` and ``intlin.solve_integral`` replaced, the
Smith-form route of the former ``intlin.membership``, and the breadth-first
closure that composed maps one (generator, element) pair at a time, kept
verbatim (only the function names differ, ``mul`` takes its matrix as an
argument, the conjugation calls the reference solve, the closure calls the
reference composition and builds its identity inline, ``fractions`` and
``from_fractions`` are the former ``RatVector.fractions`` and
``RatVector.from_fractions`` as functions, and the membership takes the unit
lattice for its former ``lam`` argument and runs on the reference Smith
kernel of ``tests/reference_snf.py``).  ``reference_is_free_action`` is the
former per-element freeness check on that membership.  The package itself
no longer builds any ``Fraction``.
"""

from fractions import Fraction
from math import lcm

from reference_snf import reference_snf_core
from stablepi1.intlin import IntMatrix, RatVector, hermite_normal_form, lattice_contains
from stablepi1.torus import AffineTorusMap, OrderExceedsCap


def fractions(vec: RatVector):
    return tuple(Fraction(n, vec.denominator) for n in vec.numerators)


def from_fractions(fracs) -> RatVector:
    """From ints and fractions: anything with a numerator and a denominator."""
    fracs = list(fracs)
    den = lcm(*(f.denominator for f in fracs))
    return RatVector(tuple(f.numerator * (den // f.denominator) for f in fracs), den)


def reference_compose(f: AffineTorusMap, g: AffineTorusMap) -> AffineTorusMap:
    """f after g: (M, t) o (M', t') = (M M', M t' + t)."""
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    linear = f.linear.mul(g.linear)
    tg = fractions(g.translation)
    tf = fractions(f.translation)
    moved = [
        sum(Fraction(f.linear.at(i, k)) * tg[k] for k in range(f.rank)) + tf[i]
        for i in range(f.rank)
    ]
    return AffineTorusMap(linear, from_fractions(moved))


def reference_generated_group(gens, cap):
    """Breadth-first closure of the generated group; deterministic order."""
    gens = list(gens)
    rank = gens[0].rank
    ident = AffineTorusMap(IntMatrix.identity(rank), RatVector((0,) * rank, 1))
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                h = reference_compose(g, e)
                if h not in seen:
                    if len(seen) >= cap:
                        raise OrderExceedsCap(f"group closure exceeds cap {cap}")
                    seen.add(h)
                    order.append(h)
                    new.append(h)
        frontier = new
    return tuple(order)


def reference_is_free_action(elements) -> bool:
    """The per-element route: no non-identity (M, t) has -t in
    (M - I) Q^n + Z^n, each decided by ``reference_membership``."""
    for e in elements:
        if e.is_identity:
            continue
        n = e.rank
        m_minus_i = IntMatrix(n, n, tuple(e.linear.at(i, j) - (i == j) for i in range(n) for j in range(n)))
        t = e.translation
        if reference_membership(RatVector(tuple(-x for x in t.numerators), t.denominator), m_minus_i):
            return False
    return True


def reference_mul(a: IntMatrix, other: IntMatrix) -> IntMatrix:
    if a.cols != other.rows:
        raise ValueError("incompatible shapes for multiplication")
    out = []
    for i in range(a.rows):
        ri = a.row(i)
        for j in range(other.cols):
            out.append(sum(ri[k] * other.at(k, j) for k in range(a.cols)))
    return IntMatrix(a.rows, other.cols, tuple(out))


def reference_solve_in_rowspace(rows: IntMatrix, target) -> "list[Fraction] | None":
    """Solve x * rows = target over the rationals; None when inconsistent.

    ``rows`` is expected to have independent rows (a lattice basis); with
    dependent rows any one solution is returned.
    """
    k = rows.rows
    n = rows.cols
    if len(target) != n:
        raise ValueError("target length does not match ambient rank")
    # Augmented system rows^T * x^T = target^T over Fraction.
    aug = [[Fraction(rows.at(j, i)) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [e * inv for e in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [e - f * g for e, g in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    x = [Fraction(0)] * k
    for idx, col in enumerate(pivots):
        x[col] = aug[idx][k]
    return x


def reference_solve_integral(rows: IntMatrix, target) -> "list[int] | None":
    """Integer coordinates of ``target`` in the row basis, or None."""
    x = reference_solve_in_rowspace(rows, target)
    if x is None or any(f.denominator != 1 for f in x):
        return None
    return [int(f) for f in x]


def reference_conjugate_into_lattice(linear: IntMatrix, translation: RatVector, lattice_rows: IntMatrix) -> AffineTorusMap:
    """Rewrite an ambient affine map as a map of R^n / L for the lattice L.

    L is given by generator rows; the map must preserve L (checked), and the
    result acts on coordinates with respect to a Hermite basis of L.
    """
    basis = hermite_normal_form(lattice_rows)
    n = basis.rows
    if n != basis.cols or n != linear.rows:
        raise ValueError("lattice must have full rank in the map's ambient space")
    new_cols = []
    for j in range(n):
        image = linear.mul_vector(list(basis.row(j)))
        coords = reference_solve_in_rowspace(basis, image)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise ValueError("map does not preserve the lattice")
        new_cols.append([int(c) for c in coords])
    new_linear = IntMatrix.from_rows(
        [[new_cols[j][i] for j in range(n)] for i in range(n)]
    )
    t_coords = reference_solve_in_rowspace(basis, [Fraction(x, translation.denominator) for x in translation.numerators])
    if t_coords is None:
        raise ValueError("translation outside the rational span of the lattice")
    return AffineTorusMap(new_linear, from_fractions(t_coords))


def reference_membership(t: RatVector, a: IntMatrix) -> bool:
    """Decide t in (rational column span of a) + Z^n.

    The rational column space is split off with a Smith form, and the
    residual question becomes plain lattice membership decided by Hermite
    reduction: the images of the unit vectors, projected to the coordinates
    the Smith form leaves free, scaled by the denominator of t.
    """
    n = len(t)
    if a.rows != n:
        raise ValueError("a must have one row per coordinate of t")
    _m, u, _v, _vinv, rank = reference_snf_core(a.to_rows())
    den = t.denominator
    t_img = [sum(u[i][k] * t.numerators[k] for k in range(n)) for i in range(n)]
    free = range(rank, n)
    target = [t_img[i] for i in free]
    if not target:
        return True
    rows = []
    for idx in range(n):
        ell = [1 if k == idx else 0 for k in range(n)]
        img = [sum(u[i][k] * den * ell[k] for k in range(n)) for i in range(n)]
        rows.append([img[i] for i in free])
    return lattice_contains(IntMatrix.from_rows(rows, cols=len(target)), target)
