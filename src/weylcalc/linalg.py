"""Exact linear algebra over Z and Q used by the root-datum layer.

Everything works on tuples of Python ints or fractions.Fraction; no floats.
Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add, mul, neg

from .errors import NotIntegral, NotRational


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(map(neg, a))


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


def invert_unimodular(m):
    """Inverse of an integer matrix that must be invertible over Z.

    Returns an integer matrix, or None if m is singular or the inverse is
    not integral.
    """
    try:
        inv, d, _ = scaled_inverse(m)
    except ValueError:
        return None
    return inv if d == 1 else None


def is_positive_definite(sym):
    """Sylvester criterion on a symmetric integer matrix: every leading
    principal minor is positive.  Fraction-free (Bareiss) elimination
    without pivoting leaves the k-th leading minor as the k-th pivot, and
    each of its divisions is exact."""
    rows = [list(row) for row in sym]
    prev = 1
    for k, top in enumerate(rows):
        pivot = top[k]
        if pivot <= 0:
            return False
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return True


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


def scaled_inverse(m):
    """(n, d, index) for a nonsingular square integer matrix m, in integers:
    m^-1 = n / d with d the least such positive integer, and index =
    |det m| = |Z^k / m Z^k|.  From the Smith form u m v = diag(d_1 | ... |
    d_k): m^-1 = v diag(1/d_i) u, so d = d_k and n = v diag(d_k / d_i) u."""
    u, diag, v = smith_normal_form(m)
    factors = [diag[i][i] for i in range(len(m))]
    if 0 in factors:
        raise ValueError("matrix is singular")
    d = factors[-1] if factors else 1
    scaled = [[x * (d // f) for x in row] for row, f in zip(u, factors)]
    return mat_mul(v, scaled), d, prod(factors)


def as_int(x, error=NotIntegral):
    """x as an int: an int or an integral Fraction.  Anything else, a bool or
    a float included, raises error rather than being truncated."""
    if type(x) is int:
        return x
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    raise error(f"expected an integer, got {x!r}")


def as_rational(x):
    """x as a Fraction: an int or a Fraction.  Anything else, a bool or a
    float included, raises NotRational rather than being rounded."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise NotRational(f"expected an int or a Fraction, got {x!r}")


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
