"""Complex tori as even-rank integer lattices.

Only the integral shadow of a torus map is ever stored: an affine map is an
integer matrix plus a rational translation, acting on R^n / Z^n.  That is
enough for everything computed here — orders of automorphisms, freeness of
finite actions, counting preimages and transverse intersections, and the
homology bookkeeping of the bi-tri-elliptic constructions.

Maps compose on integers only: the translation is a vector of integer
numerators over one denominator, and M t' + t is formed on the numerators
over the product of the two denominators, then reduced.  Coordinates with
respect to a lattice basis come from the integer solves in ``intlin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import fpgroup
from .intlin import (
    AbelianInvariants,
    IntMatrix,
    RatVector,
    SingularMatrix,
    _snf_core,
    cokernel_invariants,
    hermite_normal_form,
    membership,
    saturation,
    solve_in_rowspace,
    solve_integral,
)

DEFAULT_GROUP_CAP = 512


class OrderExceedsCap(RuntimeError):
    """The requested order or group closure exceeds the given cap."""


class InvalidParams(ValueError):
    """Bi-tri-elliptic parameters violate their defining constraints."""


@dataclass(frozen=True)
class AffineTorusMap:
    """x -> linear*x + translation on R^n / Z^n; translation kept in [0,1)."""

    linear: IntMatrix
    translation: RatVector

    def __post_init__(self):
        if not self.linear.is_square:
            raise ValueError("linear part must be square")
        if len(self.translation) != self.linear.rows:
            raise ValueError("translation length must match the rank")
        object.__setattr__(self, "translation", self.translation.mod1())

    @property
    def rank(self):
        return self.linear.rows

    @property
    def is_identity(self):
        return self.linear == IntMatrix.identity(self.rank) and self.translation.is_zero


def affine_identity(rank):
    return AffineTorusMap(IntMatrix.identity(rank), RatVector.zero(rank))


def compose(f: AffineTorusMap, g: AffineTorusMap) -> AffineTorusMap:
    """f after g: (M, t) o (M', t') = (M M', M t' + t)."""
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    # M t'/dg + t/df = (df M t' + dg t) / (df dg); RatVector reduces it
    df = f.translation.denominator
    dg = g.translation.denominator
    moved = [
        df * mt + dg * t
        for mt, t in zip(f.linear.mul_vector(g.translation.numerators), f.translation.numerators)
    ]
    return AffineTorusMap(f.linear.mul(g.linear), RatVector(moved, df * dg))


def map_order(f: AffineTorusMap, cap: int) -> int:
    """Least n <= cap with f^n = identity on the torus."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    g = f
    for n in range(1, cap + 1):
        if g.is_identity:
            return n
        g = compose(f, g)
    raise OrderExceedsCap(f"map order exceeds cap {cap}")


def generated_group(gens, cap=DEFAULT_GROUP_CAP):
    """Breadth-first closure of the generated group; deterministic order."""
    gens = list(gens)
    if not gens:
        return (affine_identity(2),)
    rank = gens[0].rank
    ident = affine_identity(rank)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                h = compose(g, e)
                if h not in seen:
                    if len(seen) >= cap:
                        raise OrderExceedsCap(f"group closure exceeds cap {cap}")
                    seen.add(h)
                    order.append(h)
                    new.append(h)
        frontier = new
    return tuple(order)


def has_fixed_point(f: AffineTorusMap) -> bool:
    """A point x with f(x) = x on the torus exists iff -t lies in
    (M - I) Q^n + Z^n."""
    n = f.rank
    ident = IntMatrix.identity(n)
    m_minus_i = IntMatrix.from_rows(
        [[f.linear.at(i, j) - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    )
    return membership(f.translation.negated(), m_minus_i, ident)


def is_free_action(gens, cap=DEFAULT_GROUP_CAP) -> bool:
    """No non-identity element of the generated group fixes a point."""
    for element in generated_group(gens, cap):
        if element.is_identity:
            continue
        if has_fixed_point(element):
            return False
    return True


def preimage_count(a: IntMatrix, t: RatVector) -> int:
    """Number of torus solutions of A x = t; equals |det A|, any t."""
    if not a.is_square:
        raise ValueError("need a square matrix")
    if len(t) != a.rows:
        raise ValueError("target length must match the rank")
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
    stacked = IntMatrix.from_rows(c1.to_rows() + c2.to_rows())
    return abs(stacked.det())


# -- bi-tri-elliptic configurations --------------------------------------


@dataclass(frozen=True)
class BiTriEllipticParams:
    """Degrees of the two isogenies from the auxiliary elliptic curve, the
    parity case of the construction, and (even case) which glue subgroup."""

    d: int
    d_prime: int
    case: str
    glue: "int | None" = None

    def __post_init__(self):
        if self.case not in ("odd", "even"):
            raise InvalidParams("case must be 'odd' or 'even'")
        if self.case == "odd":
            if self.d + self.d_prime != 6 or self.d % 2 == 0 or self.d < 1:
                raise InvalidParams("odd case needs d + d' = 6 with d odd")
            if self.glue is not None:
                raise InvalidParams("odd case fixes the glue subgroup (2-torsion)")
        else:
            if self.d + self.d_prime != 3 or self.d < 1 or self.d_prime < 1:
                raise InvalidParams("even case needs d + d' = 3")
            if self.glue not in (None, 0, 1):
                raise InvalidParams("glue must be 0, 1 or None")


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
    space = [
        (a, b, c, d)
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
        for d in (0, 1)
    ]
    nonzero = [v for v in space if any(v)]
    found = set()
    for v, w in combinations(nonzero, 2):
        sub = _f2_span([v, w])
        if len(sub) != 4:
            continue
        if any(e != (0, 0, 0, 0) and e[2] == e[3] == 0 for e in sub):
            continue
        if any(e != (0, 0, 0, 0) and e[0] == e[1] == 0 for e in sub):
            continue
        meet = sub & curve_two
        if len(meet) != 2:
            continue
        if normalized and xi not in meet:
            continue
        found.add(tuple(sorted(sub)))
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
    glued-torus homology identifying its two projections.
    """
    if p.case == "odd":
        h1a, fbar, pi_star = _odd_lattice_data(p)
    else:
        h1a, fbar, pi_star = _even_lattice_data(p)

    basis = hermite_normal_form(IntMatrix.from_rows(h1a))
    if basis.rows != 4:
        raise InvalidParams("glued-torus homology should have rank 4")

    def in_basis(vec):
        coords = solve_integral(basis, vec)
        if coords is None:
            raise InvalidParams("vector outside the glued-torus lattice")
        return coords

    fbar_coords = IntMatrix.from_rows([in_basis(v) for v in fbar])
    fbar_sat = saturation(fbar_coords)
    d, _u, v, _rank = _snf_core(fbar_sat.to_rows(), v=True)
    if tuple(d[i][i] for i in range(min(fbar_sat.rows, fbar_sat.cols))) != (1, 1):
        raise InvalidParams("curve sublattice failed to saturate")

    def q_star(coords):
        img = [sum(coords[k] * v[k][j] for k in range(4)) for j in range(4)]
        return (img[2], img[3])

    pa = fpgroup.Presentation(("a", "b"), ((1, 2, -1, -2),))
    pb = fpgroup.Presentation(("alpha", "beta"), ((1, 2, -1, -2),))
    pc = fpgroup.Presentation(tuple(f"g{i + 1}" for i in range(len(h1a))), ())
    f_images = []
    g_images = []
    for vec in h1a:
        p1, p2 = pi_star(vec)
        q1, q2 = q_star(in_basis(vec))
        f_images.append(fpgroup.power_word(1, p1) + fpgroup.power_word(2, p2))
        g_images.append(fpgroup.power_word(1, q1) + fpgroup.power_word(2, q2))
    f = fpgroup.GroupHom(pc, pa, tuple(f_images))
    g = fpgroup.GroupHom(pc, pb, tuple(g_images))
    return fpgroup.amalgamated_product(pa, pb, pc, f, g)


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
    if a.det() == 0:
        raise SingularMatrix("isogeny matrix must be nonsingular")
    # SNF(A) = SNF(A^T), so the row-span cokernel has the same invariants
    return cokernel_invariants(a, a.cols)


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
    new_linear = IntMatrix.from_rows(
        [[new_cols[j][i] for j in range(n)] for i in range(n)]
    )
    t_coords = solve_in_rowspace(basis, translation.numerators, translation.denominator)
    if t_coords is None:
        raise ValueError("translation outside the rational span of the lattice")
    return AffineTorusMap(new_linear, RatVector.from_fractions(t_coords))
