from fractions import Fraction
from math import lcm

import pytest
from conftest import solve_rational
from hypothesis import given, strategies as st

from weylcalc import linalg


def small_matrix(n):
    return st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: tuple(tuple(r) for r in rows))


# solve_rational is the tests' reference for dominance, the coroot lattice
# and the length-zero elements


def test_solve_rational_basic():
    a = ((2, 0), (0, 3))
    assert solve_rational(a, (4, 9)) == (Fraction(2), Fraction(3))


def test_solve_rational_inconsistent():
    # columns of a span the line y = x
    a = ((1,), (1,))
    assert solve_rational(a, (1, 2)) is None


def test_rank():
    assert linalg.rank_rational(((1, 2), (2, 4))) == 1
    assert linalg.rank_rational(((1, 0), (0, 1))) == 2
    assert linalg.rank_rational(((0, 0),)) == 0


def test_positive_definite():
    assert linalg.is_positive_definite(((2, -1), (-1, 2)))
    # affine A1 symmetrization is singular
    assert not linalg.is_positive_definite(((2, -2), (-2, 2)))
    assert not linalg.is_positive_definite(((-1,),))


@given(small_matrix(3))
def test_smith_normal_form_properties(a):
    u, d, v = linalg.smith_normal_form(a)
    assert linalg.mat_mul(linalg.mat_mul(u, a), v) == d
    # unimodular transforms
    assert linalg.invert_unimodular(u) is not None
    assert linalg.invert_unimodular(v) is not None
    # d diagonal with a divisibility chain
    n = len(d)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(n)]
    for x, y in zip(diag, diag[1:]):
        assert x >= 0
        if x and y:
            assert y % x == 0
        if x == 0:
            assert y == 0


def test_smith_normal_form_known():
    # Z^2 / <(2,0),(0,2)> has invariant factors (2, 2)
    _, d, _ = linalg.smith_normal_form(((2, 0), (0, 2)))
    assert (d[0][0], d[1][1]) == (2, 2)
    # Z^2 / <(2,-1),(-1,2)> is Z/3
    _, d, _ = linalg.smith_normal_form(((2, -1), (-1, 2)))
    assert (d[0][0], d[1][1]) == (1, 3)


@pytest.mark.parametrize(
    "m, d, index",
    [
        ((), 1, 1),
        (((2, 0), (0, 2)), 2, 4),
        (((2, -1), (-1, 2)), 3, 3),
        (((2, -1), (-3, 2)), 1, 1),
        (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), 2, 2),
        (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 4, 4),
    ],
)
def test_scaled_inverse(m, d, index):
    n, got_d, got_index = linalg.scaled_inverse(m)
    assert (got_d, got_index) == (d, index)
    k = len(m)
    assert linalg.mat_mul(m, n) == tuple(tuple(d * (i == j) for j in range(k)) for i in range(k))
    # d is the least denominator of m^-1 = n / d
    assert lcm(*(Fraction(x, d).denominator for row in n for x in row)) == d


def test_scaled_inverse_refuses_a_singular_matrix():
    with pytest.raises(ValueError):
        linalg.scaled_inverse(((1, 2), (2, 4)))


def test_invert_unimodular():
    m = ((1, 1), (0, 1))
    assert linalg.invert_unimodular(m) == ((1, -1), (0, 1))
    assert linalg.invert_unimodular(((2, 0), (0, 1))) is None
    assert linalg.invert_unimodular(((0, 0), (0, 0))) is None


def test_parse_and_format_fraction():
    assert linalg.parse_fraction("3/2") == Fraction(3, 2)
    assert linalg.parse_fraction(4) == Fraction(4)
    assert linalg.format_fraction(Fraction(3, 2)) == "3/2"
    assert linalg.format_fraction(Fraction(-2)) == "-2"
    try:
        linalg.parse_fraction(1.5)
        raise AssertionError("floats must be rejected")
    except ValueError:
        pass
