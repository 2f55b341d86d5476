"""Reference Smith-form kernel for differential tests: the first
pivot-search kernel of ``intlin`` (smallest entry first), kept verbatim
(only the function name differs); ``intlin`` now alternates Hermite
insertion instead.  It always builds U, V and V^-1,
holds V by rows and applies every column operation to every row of the
working matrix.  The tests read its D, rank and V^-1; D is unique, so
``intlin`` must match it, while its U and V are one choice among many.
"""


def _min_pivot(m, t, rows, cols):
    best = None
    where = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            e = mi[j]
            if e:
                a = -e if e < 0 else e
                if best is None or a < best:
                    best = a
                    where = (i, j)
    return where


def reference_snf_core(rows_in):
    """Smith form on a list of rows; returns (m, u, v, vinv, rank)."""
    r = len(rows_in)
    c = len(rows_in[0]) if r else 0
    m = [list(row) for row in rows_in]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    vinv = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    t = 0
    while t < min(r, c):
        where = _min_pivot(m, t, r, c)
        if where is None:
            break
        while True:
            i, j = where
            if i != t:
                m[t], m[i] = m[i], m[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for row in m:
                    row[t], row[j] = row[j], row[t]
                for row in v:
                    row[t], row[j] = row[j], row[t]
                vinv[t], vinv[j] = vinv[j], vinv[t]
            if m[t][t] < 0:
                m[t] = [-e for e in m[t]]
                u[t] = [-e for e in u[t]]
            pivot = m[t][t]
            clean = True
            for i2 in range(t + 1, r):
                q = m[i2][t] // pivot
                if q:
                    m[i2] = [a - q * b for a, b in zip(m[i2], m[t])]
                    u[i2] = [a - q * b for a, b in zip(u[i2], u[t])]
                if m[i2][t]:
                    clean = False
            for j2 in range(t + 1, c):
                q = m[t][j2] // pivot
                if q:
                    for row in m:
                        row[j2] -= q * row[t]
                    for row in v:
                        row[j2] -= q * row[t]
                    vinv[t] = [a + q * b for a, b in zip(vinv[t], vinv[j2])]
                if m[t][j2]:
                    clean = False
            if not clean:
                where = _min_pivot(m, t, r, c)
                continue
            offender = None
            for i2 in range(t + 1, r):
                for j2 in range(t + 1, c):
                    if m[i2][j2] % pivot:
                        offender = i2
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            u[t] = [a + b for a, b in zip(u[t], u[offender])]
            where = _min_pivot(m, t, r, c)
        t += 1
    return m, u, v, vinv, t
