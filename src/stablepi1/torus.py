"""Complex tori as even-rank integer lattices.

Only the integral shadow of a torus map is ever stored: an affine map is an
integer matrix plus a rational translation, acting on R^n / Z^n.  That is
enough for everything computed here — orders of automorphisms, freeness of
finite actions, counting preimages and transverse intersections, and the
homology bookkeeping of the bi-tri-elliptic constructions.

A translation is a vector of integer numerators over one denominator.  A
group closure runs on integers only: every translation is held as numerators
modulo d, the lcm of the generators' denominators, so M t' + t is an integer
matrix-vector product mod d.  A crystallographic group has few linear parts
(Charlap, *Bieberbach Groups and Flat Manifolds*, 1986), so the closure forms
each product of two of them once, and a freeness check takes one left
kernel per linear part, not one per element.
Coordinates with respect to a lattice basis are read off its Hermite form by
``intlin.solve_integral``, a rational vector's over one common denominator:
no ``Fraction`` is built.  ``AffineTorusMap`` hashes by value.
"""

from __future__ import annotations

from itertools import combinations, product
from math import lcm, prod
from operator import mul

from . import fpgroup
from .intlin import (
    AbelianInvariants,
    IntMatrix,
    RatVector,
    SingularMatrix,
    cokernel_invariants,
    hermite_normal_form,
    left_kernel,
    saturation,
    solve_integral,
)

DEFAULT_GROUP_CAP = 512


class OrderExceedsCap(RuntimeError):
    """The group closure exceeds the given cap."""


class InvalidParams(ValueError):
    """Bi-tri-elliptic parameters violate their defining constraints."""


class AffineTorusMap:
    """x -> linear*x + translation on R^n / Z^n; translation kept in [0,1)."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear: IntMatrix, translation: RatVector):
        if not linear.is_square:
            raise ValueError("linear part must be square")
        if len(translation) != linear.rows:
            raise ValueError("translation length must match the rank")
        self.linear = linear
        self.translation = translation.mod1()

    def __eq__(self, other):
        if other.__class__ is not AffineTorusMap:
            return NotImplemented
        return self.translation == other.translation and self.linear == other.linear

    def __hash__(self):
        return hash((self.linear, self.translation))

    def __repr__(self):
        return f"AffineTorusMap(linear={self.linear!r}, translation={self.translation!r})"

    @property
    def rank(self):
        return self.linear.rows

    @property
    def is_identity(self):
        return self.translation.is_zero and self.linear == IntMatrix.identity(self.rank)


def generated_group(gens, cap=DEFAULT_GROUP_CAP):
    """Breadth-first closure of the generated group; deterministic order.

    The closure runs on plain keys: (M, t) is the position of M among the
    linear parts met so far and the numerators of t over d, the lcm of the
    generators' denominators, reduced mod d.  (M, t) o (M', t') =
    (M M', M t' + t), each product of two linear parts is formed once, and
    maps are built only for the elements returned.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("a group closure needs at least one generator")
    n = gens[0].rank
    if any(g.rank != n for g in gens):
        raise ValueError("rank mismatch")
    d = lcm(*(g.translation.denominator for g in gens))
    linears = [IntMatrix.identity(n)]  # distinct linear parts, in order met
    index = {linears[0].entries: 0}

    def key(m):
        if m.entries not in index:
            index[m.entries] = len(linears)
            linears.append(m)
        return index[m.entries]

    moves = [  # per generator: position of M, M, numerators of t over d
        (key(g.linear), g.linear, [x * (d // g.translation.denominator) for x in g.translation.numerators])
        for g in gens
    ]
    products = {}  # (position of M, of M') -> position of M M'
    order = [(0, (0,) * n)]
    seen = set(order)
    for lin, t in order:  # grows while it is walked
        for g_lin, m, shift in moves:
            prod_lin = products.get((g_lin, lin))
            if prod_lin is None:
                prod_lin = products[g_lin, lin] = key(m.mul(linears[lin]))
            h = (prod_lin, tuple((x + s) % d for x, s in zip(m.mul_vector(t), shift)))
            if h not in seen:
                if len(seen) >= cap:
                    raise OrderExceedsCap(f"group closure exceeds cap {cap}")
                seen.add(h)
                order.append(h)
    return tuple(AffineTorusMap(linears[lin], RatVector(t, d)) for lin, t in order)


def is_free_action(elements) -> bool:
    """No non-identity element of a closed group (all its elements, as
    ``generated_group`` returns them) fixes a point.

    (M, t) fixes a point iff -t lies in (M - I) Q^n + Z^n, that is iff k*t
    is an integer for every row k of K, the ``left_kernel`` of M - I: [U1; K]
    is unimodular with U1 (M - I) of full row rank.  K depends on M alone,
    so it is computed once per linear part.
    """
    kernels = {}  # linear entries -> rows of the left kernel of M - I
    for e in elements:
        if e.is_identity:
            continue
        m, t = e.linear, e.translation
        if m.entries not in kernels:
            n = m.rows  # entry i is on the diagonal iff n + 1 divides i
            m_minus_i = tuple(x - (1 if i % (n + 1) == 0 else 0) for i, x in enumerate(m.entries))
            k = left_kernel(IntMatrix._trusted(n, n, m_minus_i))
            kernels[m.entries] = [k.row(i) for i in range(k.rows)]
        if all(sum(map(mul, row, t.numerators)) % t.denominator == 0 for row in kernels[m.entries]):
            return False
    return True


def preimage_count(a: IntMatrix) -> int:
    """Number of torus solutions of A x = t; equals |det A|, for every t."""
    if not a.is_square:
        raise ValueError("need a square matrix")
    d = a.det()
    if d == 0:
        raise SingularMatrix("preimage count needs det != 0")
    return abs(d)


def subtorus_class(rows) -> IntMatrix:
    """Primitive middle-dimensional sublattice spanning a subtorus direction:
    the saturation of the generator rows, in Hermite form."""
    sat = saturation(IntMatrix.from_rows(rows))
    if sat.rows * 2 != sat.cols:
        raise ValueError("a subtorus class has rank/2 rows in rank columns")
    return sat


def intersection_number(c1: IntMatrix, c2: IntMatrix) -> int:
    """Pairing of two middle classes in the top wedge: |det| of the stack.

    For transverse subtori of a rank-4 torus this is the geometric
    intersection count.  Pulling back along a degree-n cover multiplies the
    pairing by n, so quotient products are pulled-back products over n.
    """
    if c1.cols != 4 or c2.cols != 4:
        raise ValueError("intersection pairing is implemented for rank-4 ambients")
    stacked = IntMatrix._trusted(c1.rows + c2.rows, 4, c1.entries + c2.entries)
    return abs(stacked.det())


# -- bi-tri-elliptic configurations --------------------------------------


class BiTriEllipticParams:
    """Degrees of the two isogenies from the auxiliary elliptic curve, the
    parity case of the construction, and (even case) which glue subgroup."""

    __slots__ = ("d", "d_prime", "case", "glue")

    def __init__(self, d: int, d_prime: int, case: str, glue: "int | None" = None):
        if case not in ("odd", "even"):
            raise InvalidParams("case must be 'odd' or 'even'")
        if case == "odd":
            if d + d_prime != 6 or d % 2 == 0 or d < 1:
                raise InvalidParams("odd case needs d + d' = 6 with d odd")
            if glue is not None:
                raise InvalidParams("odd case fixes the glue subgroup (2-torsion)")
        else:
            if d + d_prime != 3 or d < 1 or d_prime < 1:
                raise InvalidParams("even case needs d + d' = 3")
            if glue not in (None, 0, 1):
                raise InvalidParams("glue must be 0, 1 or None")
        self.d = d
        self.d_prime = d_prime
        self.case = case
        self.glue = glue


def twisting_number(p: BiTriEllipticParams) -> int:
    """deg(image of the auxiliary curve -> first elliptic factor).

    Equals 4*d / |F cap G|: the glue subgroup meets the curve in 4 points in
    the odd case and 2 in the even case, so the result is d or 2d.
    """
    m = p.d if p.case == "odd" else 2 * p.d
    if not 1 <= m <= 5:
        raise InvalidParams(f"twisting number {m} outside 1..5")
    return m


def _f2_span(vectors):
    basis = [v for v in vectors]
    elements = {(0, 0, 0, 0)}
    for v in basis:
        elements |= {tuple((a + b) % 2 for a, b in zip(e, v)) for e in elements}
    return frozenset(elements)


def _even_two_torsion_marks(p):
    """Distinguished classes in D[2] x D'[2] = F_2^4 for the even case.

    Coordinates (s1, s2, t1, t2): s = class s1*half_D + s2*tau in D[2], and
    likewise t in D'[2].  Returns (xi, zeta): the curve 2-torsion is
    {0, xi, zeta, xi+zeta}.
    """
    xi = (0, 1, 0, 1)
    zeta_s = (1, 0) if p.d_prime == 2 else (0, 0)
    zeta_t = (1, 0) if p.d == 2 else (0, 0)
    zeta = zeta_s + zeta_t
    return xi, zeta


def enumerate_glue_subgroups(p: BiTriEllipticParams, normalized=False):
    """Order-4 subgroups G of D[2] x D'[2] with trivial axis intersections
    and |G cap F[2]| = 2; with ``normalized`` additionally G cap F[2] = <xi>.

    Subgroups are returned as sorted tuples of their four elements, the list
    itself sorted, so the result is canonical.
    """
    if p.case != "even":
        raise InvalidParams("glue subgroup enumeration applies to the even case")
    xi, zeta = _even_two_torsion_marks(p)
    curve_two = _f2_span([xi, zeta])
    # trivial axis intersections: every nonzero element of G is nonzero in
    # both factors, so G is {0, v, w, v + w} with v, w, v + w all among these
    off_axes = [v for v in product((0, 1), repeat=4) if any(v[:2]) and any(v[2:])]
    found = set()
    for v, w in combinations(off_axes, 2):
        nonzero = (v, w, tuple(a ^ b for a, b in zip(v, w)))
        # |G cap F[2]| = 2: exactly one nonzero element lies on the curve
        if nonzero[2] not in off_axes or sum(e in curve_two for e in nonzero) != 1:
            continue
        if normalized and xi not in nonzero:
            continue
        found.add(tuple(sorted(((0, 0, 0, 0),) + nonzero)))
    return sorted(found)


def glue_subgroup_pair(p: BiTriEllipticParams):
    """The two normalized subgroups, generated by (tau,tau) and the lift of
    the product half-point, the second twisted by tau on the first factor."""
    xi, _zeta = _even_two_torsion_marks(p)
    g1 = tuple(sorted(_f2_span([xi, (1, 0, 1, 0)])))
    g2 = tuple(sorted(_f2_span([xi, (1, 1, 1, 0)])))
    return g1, g2


# Homology data.  Ambient coordinates are (x, y, u, v) for the point
# (x + y*tau, u + v*tau) in C^2; every map in the constructions is induced
# by the identity on C^2, so subgroup and curve lattices are all written in
# this one basis.


def _odd_lattice_data(p):
    d, dp = p.d, p.d_prime
    h1a = [
        (2, 0, 0, 0),
        (0, 2 * dp, 0, 0),
        (0, 0, 2 * d, 0),
        (0, 0, 0, 2),
        (d, 0, d, 0),
        (0, dp, 0, dp),
    ]
    fbar = [(d, 0, d, 0), (0, dp, 0, dp)]

    def pi_star(vec):
        x, y = vec[0], vec[1]
        if y % dp:
            raise InvalidParams("projection not integral on the given lattice")
        return (x, y // dp)

    return h1a, fbar, pi_star


def _even_lattice_data(p):
    if p.glue not in (0, 1):
        raise InvalidParams("even case needs glue = 0 (G1) or 1 (G2)")
    d, dp = p.d, p.d_prime
    lifts = [(0, 1, 0, 1)]
    if p.glue == 0:
        lifts.append((dp, 0, d, 0))
    else:
        lifts.append((dp, 1, d, 0))
    h1a = [
        (2 * dp, 0, 0, 0),
        (0, 2, 0, 0),
        (0, 0, 2 * d, 0),
        (0, 0, 0, 2),
    ] + lifts
    fbar = [(4, 0, 4, 0), (0, 1, 0, 1)]

    def pi_star(vec):
        x, y = vec[0], vec[1]
        if x % dp:
            raise InvalidParams("projection not integral on the given lattice")
        return (x // dp, y)

    return h1a, fbar, pi_star


def eplus_presentation(p: BiTriEllipticParams) -> fpgroup.Presentation:
    """Surface group of a bi-tri-elliptic configuration.

    Built as the amalgam of the two rank-2 targets over the curve homology:
    generators a, b (bi-elliptic target) and alpha, beta (tri-elliptic
    target), two commutator relators, and one relator per generator of the
    glued-torus homology identifying its two projections.  The projection
    to alpha, beta is K*coords, with K the integer annihilator of the curve
    lattice in the coordinates of the glued-torus basis, in Hermite form:
    the group depends on K's lattice only, and its Hermite form is unique,
    so the relators do not depend on how a kernel basis is found.
    """
    if p.case == "odd":
        h1a, fbar, pi_star = _odd_lattice_data(p)
    else:
        h1a, fbar, pi_star = _even_lattice_data(p)

    basis = hermite_normal_form(IntMatrix._of_rows(h1a, 4))
    if basis.rows != 4:
        raise InvalidParams("glued-torus homology should have rank 4")

    def in_basis(vec):
        coords = solve_integral(basis, vec)
        if coords is None:
            raise InvalidParams("vector outside the glued-torus lattice")
        return coords

    transpose = IntMatrix._of_rows(list(zip(*(in_basis(v) for v in fbar))), 2)
    annihilator = hermite_normal_form(left_kernel(transpose))

    def word(x, y):
        return fpgroup.power_word(1, x) + fpgroup.power_word(2, y)

    pa = fpgroup.Presentation(("a", "b"), ((1, 2, -1, -2),))
    pb = fpgroup.Presentation(("alpha", "beta"), ((1, 2, -1, -2),))
    pairs = [(word(*pi_star(vec)), word(*annihilator.mul_vector(in_basis(vec)))) for vec in h1a]
    return fpgroup.amalgamated_product(pa, pb, pairs)


def theta_fbar_intersection(p: BiTriEllipticParams) -> int:
    """Product of the polarisation with the glued curve, computed upstairs.

    Upstairs on the elliptic product, the polarisation pulls back to twice
    the sum of the two factor classes and the glued curve pulls back to the
    auxiliary curve (odd case) or two translates of it (even case); the
    degree-4 cover divides the pulled-back product.
    """
    d, dp = p.d, p.d_prime
    factor_d = subtorus_class([(1, 0, 0, 0), (0, 1, 0, 0)])
    factor_dp = subtorus_class([(0, 0, 1, 0), (0, 0, 0, 1)])
    if p.case == "odd":
        curve = subtorus_class([(d, 0, 1, 0), (0, 1, 0, dp)])
        copies = 1
    else:
        curve = subtorus_class([(2 // dp, 0, 2 // d, 0), (0, 1, 0, 1)])
        copies = 2
    upstairs = 2 * (
        intersection_number(factor_d, curve) + intersection_number(factor_dp, curve)
    )
    total = upstairs * copies
    if total % 4:
        raise InvalidParams("pulled-back product not divisible by the cover degree")
    return total // 4


def isogeny_cokernel(a: IntMatrix) -> AbelianInvariants:
    """Invariants of Z^n / A Z^n for a nonsingular integer matrix A."""
    if not a.is_square:
        raise ValueError("isogeny matrix must be square")
    # SNF(A) = SNF(A^T), so the row-span cokernel has the same invariants;
    # a square A is singular exactly when that cokernel has a free part
    inv = cokernel_invariants(a, a.cols)
    if inv.free_rank:
        raise SingularMatrix("isogeny matrix must be nonsingular")
    return inv


def conjugate_into_lattice(linear: IntMatrix, translation: RatVector, lattice_rows: IntMatrix) -> AffineTorusMap:
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
        coords = solve_integral(basis, linear.mul_vector(basis.row(j)))
        if coords is None:
            raise ValueError("map does not preserve the lattice")
        new_cols.append(coords)
    new_linear = IntMatrix._of_rows([[new_cols[j][i] for j in range(n)] for i in range(n)], n)
    if len(translation) != n:
        raise ValueError("translation length must match the rank")
    # L has index det in Z^n, so det * Z^n lies in L and the coordinates of
    # t = nums / den are the integer coordinates of det * nums over det * den
    det = prod(basis.at(i, i) for i in range(n))
    coords = solve_integral(basis, [det * x for x in translation.numerators])
    return AffineTorusMap(new_linear, RatVector(coords, det * translation.denominator))
