"""Exact integer and rational linear algebra.

Smith and Hermite normal forms over the integers, lattice membership and
saturation, and invariant factors of finitely generated abelian groups.
All arithmetic is arbitrary precision; no floating point is used anywhere.
Pivot selection is pinned (smallest absolute value, ties broken by row then
column order) so every result is reproducible bit for bit.

Every Smith form comes from one kernel, ``_snf_core``, which accumulates only
the transforms its caller reads; the pivot sequence, and so every result,
is the same whichever it builds:

- ``cokernel_invariants``: the diagonal only, no transform;
- ``smith_normal_form``: U and V;
- ``membership`` and ``saturation``: U only.

While it is built, V is held as a list of its columns, so a column operation
is one list comprehension; it is returned by rows.  A column operation on the
working matrix touches only the rows with a nonzero entry in the pivot
column.  The pivot must shrink after every reduction that leaves a
remainder and between two offender steps; a kernel defect that breaks this
raises ``RuntimeError`` instead of looping.

``solve_in_rowspace`` and ``solve_integral`` share one fraction-free
Gauss-Jordan elimination on integers (``_gauss_jordan``): each updated row is
divided by the gcd of its entries, and the pivot is the first row with a
nonzero entry in its column, so dependent rows give the same solution as
elimination over the rationals.  ``solve_integral`` divides exactly or
returns None; ``solve_in_rowspace`` builds one ``Fraction`` per coordinate
of the result and none before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul


class SingularMatrix(ValueError):
    """A nonsingular square matrix was required."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError("matrix entries must be plain ints")

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
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, (0,) * (rows * cols))

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
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(sum(map(mul, self.row(i), col)) for i in range(self.rows) for col in columns),
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


@dataclass(frozen=True)
class RatVector:
    """Rational vector held as integer numerators over one positive denominator.

    Normalised so that gcd(numerators, denominator) = 1.
    """

    numerators: tuple
    denominator: int

    def __post_init__(self):
        nums = tuple(int(n) for n in self.numerators)
        den = int(self.denominator)
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            nums = tuple(-n for n in nums)
            den = -den
        g = den
        for n in nums:
            g = gcd(g, n)
        if g > 1:
            nums = tuple(n // g for n in nums)
            den //= g
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_fractions(cls, fracs):
        fracs = [Fraction(f) for f in fracs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls(tuple(int(f * den) for f in fracs), den)

    @classmethod
    def integers(cls, values):
        return cls(tuple(int(v) for v in values), 1)

    @classmethod
    def zero(cls, n):
        return cls((0,) * n, 1)

    def __len__(self):
        return len(self.numerators)

    def fractions(self):
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def is_zero(self):
        return all(n == 0 for n in self.numerators)

    def negated(self):
        return RatVector(tuple(-n for n in self.numerators), self.denominator)

    def mod1(self):
        """Reduce every coordinate into [0, 1)."""
        return RatVector(tuple(n % self.denominator for n in self.numerators), self.denominator)


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus invariant factors d_1 | d_2 | ... (each >= 2)."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        tor = tuple(int(d) for d in self.torsion)
        for d in tor:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        object.__setattr__(self, "torsion", tor)

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


@dataclass(frozen=True)
class SnfResult:
    """Diagonalisation U*A*V = D with U, V unimodular and d_i | d_{i+1}."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self):
        return tuple(self.d.at(i, i) for i in range(min(self.d.rows, self.d.cols)))


def _min_pivot(m, t, rows):
    """First (i, j) in row-major order of m[t:, t:] whose entry has the
    smallest nonzero absolute value, or None when the block is zero."""
    best = 0
    where = None
    for i in range(t, rows):
        a = min(map(abs, filter(None, m[i][t:])), default=0)
        if a and (not best or a < best):
            best = a
            where = i
            if a == 1:
                break
    if where is None:
        return None
    row = m[where]
    j = t
    while row[j] != best and row[j] != -best:
        j += 1
    return where, j


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_core(rows_in, *, u=False, v=False):
    """Smith form on a list of rows; returns (m, u, v, rank).

    Only the transforms asked for are built; the others come back as None.
    V is built as a list of its columns and transposed at the end.
    """
    r = len(rows_in)
    c = len(rows_in[0]) if r else 0
    m = [list(row) for row in rows_in]
    u_rows = _identity_rows(r) if u else None
    vcols = _identity_rows(c) if v else None
    t = 0
    while t < min(r, c):
        where = _min_pivot(m, t, r)
        if where is None:
            break
        # |pivot| shrinks after every reduction that leaves a remainder, and
        # between two offender steps; a pivot that does not means a kernel
        # defect, which would otherwise loop forever
        shrink_below = 0
        offender_pivot = 0
        while True:
            i, j = where
            if i != t:
                m[t], m[i] = m[i], m[t]
                if u_rows is not None:
                    u_rows[t], u_rows[i] = u_rows[i], u_rows[t]
            if j != t:
                # rows above t are zero in every column >= t
                for row in m[t:]:
                    row[t], row[j] = row[j], row[t]
                if vcols is not None:
                    vcols[t], vcols[j] = vcols[j], vcols[t]
            mt = m[t]
            if mt[t] < 0:
                mt = m[t] = [-e for e in mt]
                if u_rows is not None:
                    u_rows[t] = [-e for e in u_rows[t]]
            pivot = mt[t]
            if 0 < shrink_below <= pivot:
                raise RuntimeError(f"Smith form pivot did not shrink at diagonal position {t}")
            # rows from t on are zero in every column < t
            tail = mt[t:]
            clean = True
            for i2 in range(t + 1, r):
                row = m[i2]
                q = row[t] // pivot
                if q:
                    row = m[i2] = row[:t] + [a - q * b for a, b in zip(row[t:], tail)]
                    if u_rows is not None:
                        u_rows[i2] = [a - q * b for a, b in zip(u_rows[i2], u_rows[t])]
                if row[t]:
                    clean = False
            # a column operation only changes rows with a nonzero entry in
            # column t, and column t itself does not change in this loop
            touched = [row for row in m[t:] if row[t]]
            for j2 in range(t + 1, c):
                q = mt[j2] // pivot
                if q:
                    for row in touched:
                        row[j2] -= q * row[t]
                    if vcols is not None:
                        vcols[j2] = [a - q * b for a, b in zip(vcols[j2], vcols[t])]
                if mt[j2]:
                    clean = False
            if not clean:
                shrink_below = pivot
                where = _min_pivot(m, t, r)
                continue
            offender = None
            if pivot != 1:  # everything is a multiple of 1
                for i2 in range(t + 1, r):
                    if any(e % pivot for e in m[i2][t + 1 :]):
                        offender = i2
                        break
            if offender is None:
                break
            if 0 < offender_pivot <= pivot:
                raise RuntimeError(f"Smith form pivot did not shrink at diagonal position {t}")
            offender_pivot = pivot
            shrink_below = 0  # the next pivot may equal this one
            m[t] = [a + b for a, b in zip(mt, m[offender])]
            if u_rows is not None:
                u_rows[t] = [a + b for a, b in zip(u_rows[t], u_rows[offender])]
            where = _min_pivot(m, t, r)
        t += 1
    if vcols is not None:
        vcols = [list(row) for row in zip(*vcols)]
    return m, u_rows, vcols, t


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Compute U*A*V = D with diagonal D, d_i >= 0 and d_i | d_{i+1}."""
    m, u, v, _rank = _snf_core(a.to_rows(), u=True, v=True)
    return SnfResult(
        IntMatrix.from_rows(m, cols=a.cols),
        IntMatrix.from_rows(u, cols=a.rows),
        IntMatrix.from_rows(v, cols=a.cols),
    )


def cokernel_invariants(a: IntMatrix, ambient_rank: int) -> AbelianInvariants:
    """Invariants of Z^ambient_rank modulo the row span of ``a``."""
    if a.cols != ambient_rank:
        raise ValueError("rows of a must live in Z^ambient_rank")
    if a.rows == 0:
        return AbelianInvariants(ambient_rank, ())
    m, _u, _v, rank = _snf_core(a.to_rows())
    diag = [m[i][i] for i in range(rank)]
    return AbelianInvariants(ambient_rank - rank, tuple(d for d in diag if d > 1))


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite form: echelon, positive pivots, reduced above, zero rows dropped."""
    m = a.to_rows()
    nrows = len(m)
    r = 0
    for col in range(a.cols):
        while True:
            best = None
            where = None
            for i in range(r, nrows):
                e = m[i][col]
                if e:
                    v = -e if e < 0 else e
                    if best is None or v < best:
                        best = v
                        where = i
            if where is None:
                break
            if where != r:
                m[r], m[where] = m[where], m[r]
            if m[r][col] < 0:
                m[r] = [-e for e in m[r]]
            done = True
            for i in range(r + 1, nrows):
                q = m[i][col] // m[r][col]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                if m[i][col]:
                    done = False
            if done:
                break
        if where is not None:
            for i in range(r):
                q = m[i][col] // m[r][col]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
    return IntMatrix.from_rows(m[:r], cols=a.cols)


def lattice_contains(lattice: IntMatrix, vector) -> bool:
    """Is ``vector`` in the integer row span of ``lattice``?"""
    vec = [int(x) for x in vector]
    if len(vec) != lattice.cols:
        raise ValueError("vector length does not match lattice ambient rank")
    h = hermite_normal_form(lattice)
    for i in range(h.rows):
        row = h.row(i)
        pc = next(j for j, e in enumerate(row) if e)
        if vec[pc] % row[pc]:
            return False
        q = vec[pc] // row[pc]
        if q:
            vec = [x - q * y for x, y in zip(vec, row)]
    return all(x == 0 for x in vec)


def membership(t: RatVector, a: IntMatrix, lam: IntMatrix) -> bool:
    """Decide t in (rational column span of a) + (integer row span of lam).

    Exact: the rational column space is split off with a Smith form, and the
    residual question becomes plain lattice membership decided by Hermite
    reduction.
    """
    n = len(t)
    if a.rows != n:
        raise ValueError("a must have one row per coordinate of t")
    if lam.cols != n:
        raise ValueError("lam rows must live in the same ambient space as t")
    _m, u, _v, rank = _snf_core(a.to_rows(), u=True)
    den = t.denominator
    t_img = [sum(u[i][k] * t.numerators[k] for k in range(n)) for i in range(n)]
    free = range(rank, n)
    target = [t_img[i] for i in free]
    if not target:
        return True
    rows = []
    for idx in range(lam.rows):
        ell = lam.row(idx)
        img = [sum(u[i][k] * den * ell[k] for k in range(n)) for i in range(n)]
        rows.append([img[i] for i in free])
    return lattice_contains(IntMatrix.from_rows(rows, cols=len(target)), target)


def saturation(a: IntMatrix) -> IntMatrix:
    """Basis of { v : k*v in rowspan(a) for some k >= 1 }, in Hermite form.

    With U*A*V = D, U*A = D*V^-1: row i < rank of U*A is d_i times row i of
    V^-1, and those rows of V^-1 span the saturation.
    """
    m, u, _v, rank = _snf_core(a.to_rows(), u=True)
    cols = [a.entries[j :: a.cols] for j in range(a.cols)]
    rows = [[sum(map(mul, u[i], col)) // m[i][i] for col in cols] for i in range(rank)]
    return hermite_normal_form(IntMatrix.from_rows(rows, cols=a.cols))


def _integer_target(target, n):
    """(numerators, denominator) of a target vector of ints or rationals."""
    if len(target) != n:
        raise ValueError("target length does not match ambient rank")
    if all(type(x) is int for x in target):
        return list(target), 1
    vec = RatVector.from_fractions(target)
    return list(vec.numerators), vec.denominator


def _reduce_by_content(row):
    g = gcd(*row)
    return [e // g for e in row] if g > 1 else row


def _gauss_jordan(rows: IntMatrix, nums):
    """Fraction-free Gauss-Jordan on the system rows^T * x^T = nums^T.

    Returns (aug, pivots): aug[idx] is the reduced augmented row whose pivot
    sits in column pivots[idx], up to a nonzero integer factor, so x at that
    column is aug[idx][-1] / aug[idx][pivots[idx]].  None when inconsistent.
    Each updated row is divided by its content.  Every row stays a nonzero
    multiple of the row that elimination over the rationals would hold, so
    the pivot choice (the first row with a nonzero entry in the column) and
    the solution returned for dependent rows are the same as over Fraction.
    """
    n = rows.cols
    aug = [list(rows.entries[i::n]) + [nums[i]] for i in range(n)]
    pivots = []
    r = 0
    for col in range(rows.rows):
        piv = next((i for i in range(r, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        prow = aug[r]
        p = prow[col]
        for i in range(n):
            f = aug[i][col]
            if f and i != r:
                aug[i] = _reduce_by_content([p * a - f * b for a, b in zip(aug[i], prow)])
        pivots.append(col)
        r += 1
    if any(row[-1] for row in aug[r:]):
        return None
    return aug, pivots


def solve_in_rowspace(rows: IntMatrix, target, denominator=1) -> "list[Fraction] | None":
    """Solve x * rows = target / denominator over the rationals; None when
    inconsistent.  ``target`` holds ints (numerators) or rationals.

    ``rows`` is expected to have independent rows (a lattice basis); with
    dependent rows any one solution is returned.
    """
    nums, den = _integer_target(target, rows.cols)
    solved = _gauss_jordan(rows, nums)
    if solved is None:
        return None
    aug, pivots = solved
    den *= denominator
    x = [Fraction(0)] * rows.rows
    for row, col in zip(aug, pivots):
        x[col] = Fraction(row[-1], row[col] * den)
    return x


def solve_integral(rows: IntMatrix, target) -> "list[int] | None":
    """Integer coordinates of ``target`` in the row basis, or None."""
    nums, den = _integer_target(target, rows.cols)
    solved = _gauss_jordan(rows, nums)
    if solved is None:
        return None
    aug, pivots = solved
    x = [0] * rows.rows
    for row, col in zip(aug, pivots):
        q, rem = divmod(row[-1], row[col] * den)
        if rem:
            return None
        x[col] = q
    return x
