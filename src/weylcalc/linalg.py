"""Exact linear algebra over Z and Q used by the root-datum layer.

Everything works on tuples of Python ints or fractions.Fraction; no floats.
Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(map(neg, a))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_dot(a, b):
    return sum(map(mul, a, b))


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def row_mat(v, m):
    """v as a row vector times m."""
    return tuple([sum(map(mul, v, col)) for col in zip(*m)])


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, arow, col)) for col in cols]) for arow in a)


def _rref(rows):
    """Row-reduce a list of Fraction rows in place; returns pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank_rational(m):
    """Rank over Q, by fraction-free elimination.

    A row update cross-multiplies by the pivot instead of dividing by it,
    so an integer matrix stays integral throughout.
    """
    rows = [list(row) for row in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f != 0:
                rows[i] = [p[c] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def solve_rational(a, b):
    """Solve a @ x = b exactly over Q.

    Returns the unique solution as a tuple of Fractions, or None if the
    system is inconsistent.  Raises ValueError when the solution space is
    positive-dimensional (callers here always pass independent columns).
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    pivots = _rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ValueError("solution space is positive-dimensional")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][ncols]
    return tuple(x)


def invert_rational(m):
    """Exact inverse of a square matrix over Q, or None if singular."""
    n = len(m)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(m)
    ]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in aug)


def invert_unimodular(m):
    """Inverse of an integer matrix that must be invertible over Z.

    Returns an integer matrix, or None if m is singular or the inverse is
    not integral.
    """
    inv = invert_rational(m)
    if inv is None:
        return None
    if any(x.denominator != 1 for row in inv for x in row):
        return None
    return tuple(tuple(int(x) for x in row) for row in inv)


def is_positive_definite(sym):
    """Sylvester criterion with exact arithmetic on a symmetric matrix."""
    n = len(sym)
    for k in range(1, n + 1):
        minor = [[Fraction(sym[i][j]) for j in range(k)] for i in range(k)]
        det = _det_fraction(minor)
        if det <= 0:
            return False
    return True


def _det_fraction(rows):
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def smith_normal_form(a):
    """Smith normal form over Z.

    Returns (u, d, v) with u @ a @ v == d, u and v unimodular, and d diagonal
    with d[0][0] | d[1][1] | ... ; diagonal entries are nonnegative.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity_matrix(nrows)]
    v = [list(row) for row in identity_matrix(ncols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(nrows, ncols):
        # locate a nonzero entry of least magnitude in the working block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, nrows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce the divisibility chain
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    for i in range(min(nrows, ncols)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in v),
    )


def parse_fraction(value):
    """Accept int or 'p/q' / 'n' strings; reject floats to keep exactness."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ValueError(f"not a rational number: {value!r}")


def format_fraction(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
