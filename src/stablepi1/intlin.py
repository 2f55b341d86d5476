"""Exact integer and rational linear algebra.

Smith and Hermite normal forms over the integers, lattice membership and
saturation, and invariant factors of finitely generated abelian groups.
All arithmetic is arbitrary precision; no floating point is used anywhere,
and every result is reproducible bit for bit.

One kernel, ``_hermite_rows``, does every elimination.  It inserts the rows
one at a time into a basis kept in Hermite form (Kannan and Bachem, SIAM J.
Comput. 8, 1979; Cohen, GTM 138, sec. 2.4).  A row is reduced against the
basis pivot by pivot: by exact division where the basis pivot divides its
entry, otherwise by a 2 x 2 extended-gcd step that leaves the gcd as the new
pivot and carries the remainder row on.  A row that reaches a column with no
pivot joins the basis there.  Before the next row comes in, every row the
insertion changed is reduced by the rows below it, so entries stay near
the size of the final form's; eliminating one column at a time across all
rows lets them grow to hundreds of bits first (Havas, Majewski and
Matthews, Experimental Math. 7, 1998).  A basis row with few nonzero
entries past its pivot is subtracted entry by entry over those columns
only, so sparse input does not pay for its zeros.  Pivots are sought in
the leading columns only, so the columns after them ride along and record
the transform.

The rows above the changed ones are left as they are, so they cannot
grow, until a row with riders vanishes.  While the rows inserted so far are
independent, their reduced basis [H | W*R], R the riders, is unique: H is
their Hermite form and W the one transform with W*A = H.  So the first row
with riders that vanishes is taken back (the basis rows its gcd steps
replaced are restored), the basis is reduced once, bottom up, to that
unique state, and the row goes in again; from then on the rows above the
changed ones are reduced by them before the next row comes in, as Kannan
and Bachem do.  A dependent row leaves W free, and left unreduced its
entries grow (U of a rank-deficient 40 x 40 matrix went from 43 to 2144
bits).  Without a switch the basis is echelon with positive pivots when
the last row is in, and every row is then reduced once, bottom up, which
again gives the unique [H | W*R].  ``cokernel_invariants`` and
``lattice_contains`` skip that pass and read the echelon basis as it is:
any basis fixes the invariants, and substitution decides membership on any
echelon basis with positive pivots (Cohen, GTM 138, sec. 2.4).

A Smith form alternates the kernel, as Kannan and Bachem do: ``_smith_rows``
inserts the columns of the matrix, with the rows of V^T riding along, then
its rows, with those of U, and again, until the matrix is diagonal; no
matrix product is formed.  One 2 x 2 unimodular step per pair of diagonal
entries that breaks the divisibility chain ends it.  A round that leaves
the first unsettled position and its pivot as they were raises
``RuntimeError`` instead of looping.  Every Smith form is taken of an
echelon basis of the input's row span, not of the raw matrix, so U and V
stay near the size of H's entries:

- ``cokernel_invariants``: the diagonal, no transform.  A row with pivot 1
  at column p identifies generator p with a combination of the generators
  after it, so ``_deflate`` eliminates it, top down, as a Tietze move: the
  row is substituted into the kept rows above it that are nonzero at p,
  and is dropped with column p.  The rows below it are zero at p, so the
  substitutions touch the few kept rows only, and the kernel runs on what
  is left, at most a 1 x 1 matrix for the relation matrices of the
  catalogue's groups;
- ``smith_normal_form``: U and V.  The Hermite step carries U1 with U1*A = H
  (each input row is followed by its row of the identity), and U starts
  from U1, so U2*U1 comes back;
- ``saturation``: U started from the rows of H, so U*H comes back; when
  every pivot of H is 1, Z^n / L is free and H is returned as it is.

``left_kernel`` needs no Smith form: the rows of A that the augmented
Hermite step reduces to zero carry a basis of {k : k*A = 0} in their
identity columns, and ``membership`` reads that basis and nothing else.

The value types are plain ``__slots__`` classes, treated as immutable.  Their
public constructors raise ``ValueError`` on anything but plain ints (a bool,
float or str); matrices computed from checked ones (products, identities,
normal forms) skip the check, as do the scenario loader's, whose entries
``int()`` returned, and ``IntMatrix.identity`` is cached per rank.

Lattice coordinates come from Hermite substitution: ``solve_integral``
walks the rows of an echelon basis with positive pivots in order, each row
clearing its pivot column of the target, and a remainder or a nonzero
residue means the target is not in the lattice (Cohen, GTM 138, ch. 2).
``lattice_contains`` is that solve on the kernel's echelon basis of its
generators, and ``membership`` needs no solve at all: it reads its answer
off the left kernel of A.  A rational vector is integer numerators over one
denominator, so its coordinates are those of a scaled integer vector; no
``Fraction`` is built anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress
from math import gcd
from operator import mul


class SingularMatrix(ValueError):
    """A nonsingular square matrix was required."""


def _check_ints(values, what):
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{what} must be plain ints")


class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")
    _identities = {}  # rank -> the shared identity matrix

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        _check_ints(entries, "matrix entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """A matrix of a tuple of plain ints the caller vouches for: no checks."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def _of_rows(cls, rows, cols):
        return cls._trusted(len(rows), cols, tuple(chain.from_iterable(rows)))

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self.entries == other.entries and (self.rows, self.cols) == (other.rows, other.cols)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries})"

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and width != cols:
                raise ValueError("declared column count does not match rows")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n):
        """The n x n identity; one shared instance per rank."""
        m = cls._identities.get(n)
        if m is None:
            if n < 0:
                raise ValueError("matrix dimensions must be nonnegative")
            entries = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
            m = cls._identities[n] = cls._trusted(n, n, entries)
        return m

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for multiplication")
        columns = [other.entries[j :: other.cols] for j in range(other.cols)]
        return IntMatrix._trusted(
            self.rows,
            other.cols,
            tuple(sum(map(mul, row, col)) for row in map(self.row, range(self.rows)) for col in columns),
        )

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return [sum(map(mul, self.row(i), vec)) for i in range(self.rows)]

    @property
    def is_square(self):
        return self.rows == self.cols

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


class RatVector:
    """Rational vector held as integer numerators over one positive denominator.

    Normalised so that gcd(numerators, denominator) = 1.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators, denominator):
        nums = tuple(numerators)
        den = denominator
        _check_ints(nums + (den,), "numerators and denominator")
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            nums = tuple(-n for n in nums)
            den = -den
        g = gcd(den, *nums)
        if g > 1:
            nums = tuple(n // g for n in nums)
            den //= g
        self.numerators = nums
        self.denominator = den

    def __eq__(self, other):
        if other.__class__ is not RatVector:
            return NotImplemented
        return self.denominator == other.denominator and self.numerators == other.numerators

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        return f"RatVector(numerators={self.numerators}, denominator={self.denominator})"

    @classmethod
    def integers(cls, values):
        return cls(tuple(values), 1)

    @classmethod
    def zero(cls, n):
        return cls((0,) * n, 1)

    def __len__(self):
        return len(self.numerators)

    @property
    def is_zero(self):
        return all(n == 0 for n in self.numerators)

    def negated(self):
        return RatVector(tuple(-n for n in self.numerators), self.denominator)

    def mod1(self):
        """Reduce every coordinate into [0, 1)."""
        return RatVector(tuple(n % self.denominator for n in self.numerators), self.denominator)


class AbelianInvariants:
    """Free rank plus invariant factors d_1 | d_2 | ... (each >= 2)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion):
        tor = tuple(torsion)
        _check_ints((free_rank,) + tor, "free rank and torsion factors")
        if free_rank < 0:
            raise ValueError("negative free rank")
        for d in tor:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        self.free_rank = free_rank
        self.torsion = tor

    def __eq__(self, other):
        if other.__class__ is not AbelianInvariants:
            return NotImplemented
        return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return f"AbelianInvariants(free_rank={self.free_rank}, torsion={self.torsion})"

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_cyclic(self):
        return self.free_rank == 0 and len(self.torsion) <= 1

    def order(self):
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "1"


class SnfResult(namedtuple("SnfResult", "d u v")):
    """Diagonalisation U*A*V = D with U, V unimodular and d_i | d_{i+1}."""

    __slots__ = ()

    def diagonal(self):
        return tuple(self.d.at(i, i) for i in range(min(self.d.rows, self.d.cols)))


def _hermite_riding(rows, rider):
    """Hermite rows of ``rows``, each followed by its row of ``rider`` while
    it is inserted; returns the basis and the new rider: the riding parts of
    the basis rows, then of the rows that reduced to zero, then the rows of
    ``rider`` past ``len(rows)``, which did not ride."""
    w = len(rows[0])
    basis, kernel = _hermite_rows([list(row) + x for row, x in zip(rows, rider)], w)
    return [row[:w] for row in basis], [row[w:] for row in basis + kernel] + rider[len(rows) :]


def _off_diagonal(h):
    """The first of the Hermite rows ``h``, of full row rank, with a nonzero
    entry past the diagonal, or None when ``h`` is diagonal."""
    return next((i for i, row in enumerate(h) if any(row[i + 1 :])), None)


def _mix(rows, i, j, a, b, c, d):
    """Rows i and j of ``rows`` times [[a, b], [c, d]], in place."""
    ri, rj = rows[i], rows[j]
    rows[i] = [a * p + b * q for p, q in zip(ri, rj)]
    rows[j] = [c * p + d * q for p, q in zip(ri, rj)]


def _smith_round(m, u, vt):
    """One round of the Smith kernel: insert the columns of ``m``, the rows
    of ``vt`` riding along, then, unless that left it diagonal, its rows,
    the rows of ``u`` riding along.  On a diagonal result, each pair (a, b)
    with a not dividing b becomes (g, a*b/g), g = gcd(a, b) = s*a + t*b:
    rows of U times [[s, t], [-b/g, a/g]], columns of V times
    [[1, -t*b/g], [1, s*a/g]], both of determinant 1."""
    cols, vt = _hermite_riding(list(zip(*m)), vt)
    if _off_diagonal(cols) is None:
        m = [list(row) for row in zip(*cols)]
    else:
        m, u = _hermite_riding(list(zip(*cols)), u)
        if _off_diagonal(m) is not None:
            return m, u, vt
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            a, b = m[i][i], m[j][j]
            if b % a:
                g = gcd(a, b)
                x, y = a // g, b // g
                s = pow(x, -1, y)
                t = (1 - s * x) // y
                m[i][i], m[j][j] = g, x * b
                _mix(u, i, j, s, t, -y, x)
                _mix(vt, i, j, 1, 1, -t * y, s * x)
    return m, u, vt


def _smith_rows(h, u=None, vt=None):
    """Smith form of Hermite rows ``h`` of full row rank, by alternating
    Hermite insertion; returns (diagonal, u, vt).

    The row operations act on ``u``, one starting row per row of ``h``, and
    the column operations on ``vt``, one per column, so U times ``u`` and
    V^T times ``vt`` come back; each defaults to empty rows.  Neither ``h``
    nor the starting rows are changed.
    """
    m = h
    u = [[] for _ in h] if u is None else list(u)
    vt = [[] for _ in zip(*h)] if vt is None else vt
    last = None
    while True:
        t = _off_diagonal(m)
        if t is None:
            # diagonal: the first entry that does not divide the next
            t = next((i for i in range(len(m) - 1) if m[i + 1][i + 1] % m[i][i]), None)
            if t is None:
                return [row[i] for i, row in enumerate(m)], u, vt
        # every round shrinks the pivot at t or settles position t, so one
        # that leaves both as they were is a kernel defect, which would
        # otherwise loop forever
        if (t, m[t][t]) == last:
            raise RuntimeError(f"Smith form pivot did not shrink at diagonal position {t}")
        last = t, m[t][t]
        m, u, vt = _smith_round(m, u, vt)


def _hermite_with_identity(a):
    """``_hermite_rows`` of the rows of A, each followed by its row of the
    identity, with pivots in A's columns: basis rows [H | U1] with U1*A = H,
    and kernel rows [0 | k] with k*A = 0.  The row that came from row i of
    A stops at entry i of k; k is zero past it."""
    return _hermite_rows([row + [0] * i + [1] for i, row in enumerate(a.to_rows())], a.cols)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Compute U*A*V = D with diagonal D, d_i >= 0 and d_i | d_{i+1}.

    Each row of A, followed by its row of the identity, is inserted into a
    Hermite basis whose pivots lie in A's columns, so the basis rows read
    [H | U1] with U1*A = H, and a row that reduces to zero there is a row of
    U in the kernel of A.  The Smith kernel runs on H with U1 as the
    starting rows of U and the identity as those of V^T, so U2*U1 comes back
    with no matrix product; U and V keep entries near the size of H's
    instead of growing with the raw matrix's.
    """
    r, c = a.rows, a.cols
    basis, kernel = _hermite_with_identity(a)
    h = [row[:c] for row in basis]
    u1 = [row[c:] for row in basis]
    diag, u, vt = _smith_rows(h, u1, IntMatrix.identity(c).to_rows())
    d = [0] * (r * c)
    for i, x in enumerate(diag):
        d[i * c + i] = x
    return SnfResult(
        IntMatrix._trusted(r, c, tuple(d)),
        IntMatrix._of_rows(u + [row[c:] + [0] * (c + r - len(row)) for row in kernel], r),
        IntMatrix._trusted(c, c, tuple(chain.from_iterable(zip(*vt)))),
    )


def _deflate(h):
    """The echelon rows ``h`` without their unit pivots, by Tietze
    elimination, top down.  A row with pivot 1 at column p identifies
    generator p with a combination of the generators after it, so it is
    substituted into the kept rows above it that are nonzero at p, and is
    then dropped with column p; that leaves Z^n / L as it was (Havas,
    Majewski and Matthews, 1998).  The rows below it are zero at p and the
    unit rows above it are gone already, so a substitution touches the kept
    rows only, and in a Hermite form, whose entries above a unit pivot are
    0, none fires.  What is left is echelon with positive pivots and full
    row rank again.  ``h`` is not changed."""
    units = set()  # pivot columns of the rows with pivot 1
    rest = []
    p = 0
    for row in h:
        while not row[p]:
            p += 1
        if row[p] != 1:
            rest.append(row)
            continue
        units.add(p)
        for i, kept in enumerate(rest):
            q = kept[p]
            if q:
                rest[i] = kept[:p] + [x - q * y for x, y in zip(kept[p:], row[p:])]
    if not units:
        return h
    keep = [j for j in range(len(h[0])) if j not in units]
    return [[row[j] for j in keep] for row in rest]


def cokernel_invariants(a: IntMatrix, ambient_rank: int) -> AbelianInvariants:
    """Invariants of Z^ambient_rank modulo the row span of ``a``: the Smith
    diagonal of an echelon basis of that span, with its unit pivots
    eliminated first (``_deflate``).  The invariants do not depend on the
    basis, so the Hermite form's final reduction is skipped."""
    if a.cols != ambient_rank:
        raise ValueError("rows of a must live in Z^ambient_rank")
    h, _kernel = _hermite_rows(a.to_rows(), a.cols, echelon=True)
    m = _deflate(h)
    diag = _smith_rows(m)[0] if m else ()
    return AbelianInvariants(ambient_rank - len(h), tuple(d for d in diag if d > 1))


def _sparse_columns(row, p):
    """Columns from ``p`` on where ``row`` is nonzero, or False when a
    whole-row update is cheaper: they are more than a third of them, or
    there are fewer than 16 columns to look at."""
    width = len(row) - p
    if width < 16:
        return False
    cols = list(compress(range(p, len(row)), row[p:]))
    return False if 3 * len(cols) > width else cols


def _reduce_row(basis, pivots, sparse, k, start):
    """Basis row k minus multiples of rows ``start``, ``start`` + 1, ... that
    take its entries at their pivots into [0, pivot), in place."""
    h = basis[k]
    for j in range(start, len(basis)):
        pj = pivots[j]
        row = basis[j]
        q = h[pj] // row[pj]
        if q:
            cols = sparse[j]
            if cols is None:
                cols = sparse[j] = _sparse_columns(row, pj)
            if cols:
                for x in cols:
                    h[x] -= q * row[x]
            else:
                h[pj:] = [x - q * y for x, y in zip(h[pj:], row[pj:])]
            if sparse[k]:
                sparse[k] = None


def _insert_row(basis, pivots, sparse, v, width, changed, undo):
    """Reduce ``v`` against the basis pivot by pivot and insert what is left
    of it; returns False when ``v`` vanished in the first ``width``
    columns instead.  The positions of the basis rows it changed are
    appended to ``changed``, ascending.  A gcd step assigns basis row i a
    new list and changes no other row; unless ``undo`` is None, (i, old row)
    is appended to it first."""
    n = len(basis)
    i = p = 0
    while True:
        while p < width and not v[p]:
            p += 1
        if p == width:
            return False
        while i < n and pivots[i] < p:
            i += 1
        if i == n or pivots[i] != p:
            # rows changed so far sit above i, so their positions hold
            if v[p] < 0:
                v = [-x for x in v]
            basis.insert(i, v)
            pivots.insert(i, p)
            sparse.insert(i, None)
            changed.append(i)
            return True
        h = basis[i]
        hp = h[p]
        vp = v[p]
        q, rem = divmod(vp, hp)
        if rem:
            # s*hp + t*vp = g = gcd(hp, vp) > 0; [[s, t], [-b, a]] is unimodular
            g = gcd(hp, vp)
            a = hp // g
            b = vp // g
            s = pow(a, -1, abs(b))
            t = (1 - s * a) // b
            hs = h[p:]
            vs = v[p:]
            if undo is not None:
                undo.append((i, h))
            basis[i] = h[:p] + [s * x + t * y for x, y in zip(hs, vs)]
            v[p:] = [a * y - b * x for x, y in zip(hs, vs)]
            if sparse[i]:
                sparse[i] = None
            changed.append(i)
        else:
            cols = sparse[i]
            if cols is None:
                cols = sparse[i] = _sparse_columns(h, p)
            if cols:
                for j in cols:
                    v[j] -= q * h[j]
            else:
                v[p:] = [y - q * x for x, y in zip(h[p:], v[p:])]
        i += 1
        p += 1


def _hermite_rows(rows, width, echelon=False):
    """Hermite form of the row span of ``rows``, by row insertion; returns
    (basis, kernel).

    Pivots are sought in the first ``width`` columns only; the row
    operations act on whole rows, so columns past ``width`` follow along.
    Rows come in nondecreasing length; one longer than the basis rows pads
    them with zeros.  Each row is reduced against the basis, pivot column by
    pivot column (``_insert_row``).  A row that becomes zero in the first
    ``width`` columns goes to ``kernel``.  ``rows`` is a list of lists that
    the kernel owns: it changes them in place.

    After each insertion only the rows it changed are reduced, by the rows
    below them, and after the last one every row is reduced once, bottom
    up.  While the rows so far are independent, that reaches the unique
    [H | W*R] that reducing the whole basis after every insertion holds.
    The first row with riders (columns past ``width``) that vanishes is
    taken back, the basis rows its gcd steps replaced being restored; the
    basis is reduced once, bottom up, the row goes in again from a copy,
    and from then on the whole basis is reduced after every insertion, so
    the riders, no longer unique, stay small.  A rider-free row that
    vanishes is zero and changes nothing.  With ``echelon`` true the last
    pass is skipped: the basis is then echelon with positive pivots but not
    necessarily reduced, which is all a caller that reads neither H nor the
    riders needs.
    """
    basis = []  # the Hermite rows, in pivot order
    pivots = []  # pivot column of each basis row
    # _sparse_columns of each basis row, None until it is first subtracted;
    # a row subtracted column by column is one with few nonzeros
    sparse = []
    kernel = []
    size = 0  # length of the basis rows
    riders = bool(rows) and len(rows[-1]) > width  # the last row is the longest
    defer = True
    for v in rows:
        if len(v) > size:
            pad = [0] * (len(v) - size)
            size = len(v)
            for h in basis:
                h += pad
        changed = []  # positions of the basis rows this row changed, ascending
        undo = [] if defer and riders else None
        saved = v[:] if undo is not None else None
        if not _insert_row(basis, pivots, sparse, v, width, changed, undo):
            if undo is not None:
                # a replaced row's sparse entry is None or False now, and
                # both are right for the old row
                for i, h in undo:
                    basis[i] = h
                for k in range(len(basis) - 2, -1, -1):
                    _reduce_row(basis, pivots, sparse, k, k + 1)
                defer = False
                v = saved
                changed = []
                # v lies in the rational span of the basis, so it vanishes again
                _insert_row(basis, pivots, sparse, v, width, changed, None)
            kernel.append(v)
        if defer:
            for k in reversed(changed):
                _reduce_row(basis, pivots, sparse, k, k + 1)
            continue
        if not changed:
            continue
        # bottom up from the last changed row.  A changed row is reduced by
        # every row below it.  Any other row only needs reducing at the
        # pivots of the changed rows below it, and once one of them moves
        # it, by every row from that one on; its own pivot entry stays, so
        # the rows above it need nothing more.
        for k in range(changed[-1], -1, -1):
            if k in changed:
                _reduce_row(basis, pivots, sparse, k, k + 1)
                continue
            h = basis[k]
            for j in changed:
                if j > k and h[pivots[j]] // basis[j][pivots[j]]:
                    _reduce_row(basis, pivots, sparse, k, j)
                    break
    if defer and not echelon:
        for k in range(len(basis) - 2, -1, -1):
            _reduce_row(basis, pivots, sparse, k, k + 1)
    return basis, kernel


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite form: echelon, positive pivots, reduced above, zero rows dropped.

    The rows of ``a`` are inserted one at a time into a basis kept in this
    form, so entries stay near their final size (Kannan and Bachem, 1979).
    The form of a lattice is unique: it does not depend on the order of the
    rows or on the basis they are given in.
    """
    return IntMatrix._of_rows(_hermite_rows(a.to_rows(), a.cols)[0], a.cols)


def solve_integral(basis: IntMatrix, target) -> "list[int] | None":
    """Integer coordinates of ``target`` in ``basis``, or None.

    ``basis`` must be echelon with positive pivots, as the Hermite form
    ``hermite_normal_form`` returns is: nonzero rows whose pivots are
    positive and whose pivot columns strictly increase.  Anything else
    raises ``ValueError``.  Each row in turn clears its pivot column of the
    target; a remainder there, or a nonzero residue at the end, means the
    target is not in the lattice.
    """
    vec = list(target)
    if len(vec) != basis.cols:
        raise ValueError("target length does not match ambient rank")
    coords = []
    last = -1  # pivot column of the row before
    for i in range(basis.rows):
        row = basis.row(i)
        pc = next((j for j, e in enumerate(row) if e), None)
        if pc is None:
            raise ValueError("a Hermite basis has no zero row")
        pivot = row[pc]
        if pivot < 0 or pc <= last:
            raise ValueError("not a Hermite basis: pivots must be positive, in increasing columns")
        last = pc
        q, rem = divmod(vec[pc], pivot)
        if rem:
            return None
        if q:
            vec = [x - q * y for x, y in zip(vec, row)]
        coords.append(q)
    return None if any(vec) else coords


def lattice_contains(lattice: IntMatrix, vector) -> bool:
    """Is ``vector`` in the integer row span of ``lattice``?"""
    vec = list(vector)
    _check_ints(vec, "vector entries")
    if len(vec) != lattice.cols:
        raise ValueError("vector length does not match lattice ambient rank")
    basis, _kernel = _hermite_rows(lattice.to_rows(), lattice.cols, echelon=True)
    return solve_integral(IntMatrix._of_rows(basis, lattice.cols), vec) is not None


def left_kernel(a: IntMatrix) -> IntMatrix:
    """A basis K, one vector per row, of the integer k with k*A = 0: the
    identity parts of the rows that the augmented Hermite step of
    ``smith_normal_form`` reduces to zero.  [U1; K] is unimodular, so K
    spans the whole kernel lattice.  K is not unique; its Hermite form is.
    """
    r, c = a.rows, a.cols
    _basis, kernel = _hermite_with_identity(a)
    return IntMatrix._of_rows([row[c:] + [0] * (c + r - len(row)) for row in kernel], r)


def membership(t: RatVector, a: IntMatrix) -> bool:
    """Decide t in (rational column span of a) + Z^n, for a with n rows.

    With K the ``left_kernel`` of A, [U1; K] is unimodular with U1*A of
    full row rank, so t is a member iff k*t is an integer for every row k
    of K.
    """
    n = len(t)
    if a.rows != n:
        raise ValueError("a must have one row per coordinate of t")
    k = left_kernel(a)
    nums = t.numerators
    return all(sum(map(mul, k.row(i), nums)) % t.denominator == 0 for i in range(k.rows))


def saturation(a: IntMatrix) -> IntMatrix:
    """Basis of { v : k*v in rowspan(a) for some k >= 1 }, in Hermite form.

    With H the Hermite rows of ``a`` and U*H*V = D, U*H = D*V^-1: row i of
    U*H is d_i times row i of V^-1, and those rows of V^-1 span the
    saturation.
    """
    h, _kernel = _hermite_rows(a.to_rows(), a.cols)
    if not _deflate(h):
        # every pivot is 1: Z^n / L is free, so L is its own saturation
        return IntMatrix._of_rows(h, a.cols)
    # U started from the rows of H comes back as U*H
    diag, uh, _vt = _smith_rows(h, h)
    rows = [[x // d for x in row] for row, d in zip(uh, diag)]
    return hermite_normal_form(IntMatrix._of_rows(rows, a.cols))
