"""Reference Hermite-form kernel for differential tests: the column-by-column
Euclid elimination that the row-insertion ``intlin.hermite_normal_form``
replaced, kept verbatim (only the function name differs).  Each column is
cleared by repeated division with the smallest entry below the current row,
so intermediate entries can grow far past those of the final form.
"""

from stablepi1.intlin import IntMatrix


def reference_hermite_normal_form(a: IntMatrix) -> IntMatrix:
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
    return IntMatrix._of_rows(m[:r], a.cols)
