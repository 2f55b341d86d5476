"""Reference Hermite kernel for differential tests: the row-insertion
``_hermite_rows`` that chose its reduction schedule by whether columns ride
along, kept verbatim with the two helpers it calls (only the kernel's name
differs).  With riders it reduces the whole basis after every insertion;
without, only the rows each insertion changed, and every row once at the
end.  ``intlin._hermite_rows`` defers with riders too until a row vanishes,
and must return the same basis and kernel, bit for bit.
"""

from itertools import compress
from math import gcd


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


def reference_hermite_rows(rows, width, echelon=False):
    """Hermite form of the row span of ``rows``, by row insertion; returns
    (basis, kernel).

    Pivots are sought in the first ``width`` columns only; the row
    operations act on whole rows, so columns past ``width`` follow along.
    Rows come in nondecreasing length; one longer than the basis rows pads
    them with zeros.  Each row is reduced against the basis, pivot column by
    pivot column.  A row that becomes zero in the first ``width`` columns
    goes to ``kernel``.  ``rows`` is a list of lists that the kernel owns:
    it changes them in place.

    The basis is reduced on one of two schedules, chosen by whether columns
    ride along.  When they do, the whole basis is reduced again before the
    next row comes in, so the riders stay near the size of the final
    form's.  When every row has exactly ``width`` entries, only the rows an
    insertion changed are reduced then, by the rows below them, and every
    row is reduced once, bottom up, after the last one: the other rows do
    not change until then, so they cannot grow, and H is unique, so both
    schedules return it.  Riders are not unique, and deferring their
    reduction lets them grow.  With ``echelon`` true that last pass is
    skipped: the basis is then echelon with positive pivots but not
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
    defer = not rows or len(rows[-1]) == width  # the last row is the longest
    for v in rows:
        if len(v) > size:
            pad = [0] * (len(v) - size)
            size = len(v)
            for h in basis:
                h += pad
        n = len(basis)
        changed = []  # positions of the basis rows this row changed, ascending
        i = p = 0
        while True:
            while p < width and not v[p]:
                p += 1
            if p == width:
                kernel.append(v)
                break
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
                n += 1
                break
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
