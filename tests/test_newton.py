"""Newton data over Z: newton_point, is_straight and defect_of against the
Fraction algorithms they replaced, the closed alcove sign rule of
p_alcove_test against the level loop it replaced, and Fractions wherever a
Newton point is handed out."""

import ast
import os
from fractions import Fraction

import pytest

import weylcalc
from weylcalc import (
    AffineRoot,
    build_root_datum,
    defect_of,
    enumerate_straight_classes,
    is_straight,
    length_ball,
    newton_point,
    p_alcove_test,
    reduce_to_min,
    transport_affine_root,
)
from weylcalc.classes import _levi_group
from weylcalc.rootdata import PRESETS

BALL_BOUND = {1: 10, 2: 7, 3: 5}


def _ball(name):
    datum = build_root_datum(name)
    return datum, length_ball(datum, BALL_BOUND[datum.rank])


# -- the Fraction reference -------------------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _ref_dominant(datum, nu):
    v = tuple(Fraction(x) for x in nu)
    while True:
        i = next((i for i, a in enumerate(datum.simple_roots) if _dot(a, v) < 0), None)
        if i is None:
            return v
        c = _dot(datum.simple_roots[i], v)
        v = tuple(x - c * y for x, y in zip(v, datum.simple_coroots[i]))


def _ref_newton(w):
    n = w.fw.order()
    acc = [Fraction(0)] * w.datum.rank
    v = w.lam
    for _ in range(n):
        for j in range(w.datum.rank):
            acc[j] += v[j]
        v = w.fw.act(v)
    nu = tuple(x / n for x in acc)
    return nu, _ref_dominant(w.datum, nu)


def _ref_pivots(rows):
    """Pivot columns of a Fraction matrix, row-reduced in place."""
    pivots, r = [], 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _ref_defect(w):
    """Solve u(v) + lam = v + nu_w over Q; the rank of the system."""
    nu, _ = _ref_newton(w)
    r = w.datum.rank
    m = w.fw.matrix
    aug = [
        [Fraction(m[i][j] - (i == j)) for j in range(r)] + [nu[i] - w.lam[i]] for i in range(r)
    ]
    pivots = _ref_pivots(aug)
    assert r not in pivots, "twisted fixed-point system is inconsistent"
    return len(pivots)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_newton_data_match_the_fraction_reference(name):
    datum, ball = _ball(name)
    straight = 0
    for w in ball:
        nu, nu_bar = newton_point(w)
        assert (nu, nu_bar) == _ref_newton(w)
        assert all(type(x) is Fraction for x in nu + nu_bar)
        want = Fraction(w.length) == _dot(datum.two_rho, nu_bar)
        assert is_straight(w) == want
        straight += want
        assert defect_of(w) == _ref_defect(w)
    assert straight > 0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_census_nu_bar_is_fractions(name):
    datum = build_root_datum(name)
    for cls in enumerate_straight_classes(datum, BALL_BOUND[datum.rank]):
        assert all(type(x) is Fraction for x in cls.nu_bar)


def test_dominant_rep_keeps_the_number_type(sl3):
    ints = sl3.dominant_rep((-1, 0))
    fracs = sl3.dominant_rep((Fraction(-1), Fraction(0)))
    assert ints == fracs == _ref_dominant(sl3, (-1, 0))
    assert all(type(x) is int for x in ints)
    assert all(type(x) is Fraction for x in fracs)


# -- the alcove sign test ---------------------------------------------------


def _ref_p_alcove(w, nu):
    """The level loop: every (beta, k) over a window of levels wide enough
    for both signs, tested at the alcove sample point."""
    datum = w.datum
    nu = tuple(Fraction(x) for x in nu)
    if w.fw.key not in _levi_group(datum, nu):
        return False
    n_roots = [
        beta
        for beta in list(datum.pos_roots) + [tuple(-x for x in b) for b in datum.pos_roots]
        if _dot(beta, nu) > 0
    ]
    if not n_roots:
        return True
    window = 1 + max(abs(_dot(beta, w.lam)) for beta in datum.pos_roots)
    winv = w.inv()
    for beta in n_roots:
        for k in range(-window, window + 1):
            ar = AffineRoot(beta, k)
            if transport_affine_root(winv, ar).is_positive(datum) and not ar.is_positive(datum):
                return False
    return True


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_closed_alcove_rule_matches_the_level_loop(name):
    datum, ball = _ball(name)
    halves = [tuple(Fraction(int(i == j), 2) for j in range(datum.rank)) for i in range(datum.rank)]
    probes = halves + [tuple(-x for x in v) for v in halves]
    checked = passed = 0
    for w in ball:
        w_min = reduce_to_min(w).w_min
        for nu in [newton_point(w)[0], newton_point(w_min)[0], *probes]:
            for x in (w, w_min):
                got = p_alcove_test(x, nu)
                assert got == _ref_p_alcove(x, nu), (x, nu)
                checked += 1
                passed += got
    assert 0 < passed < checked


# -- one row reduction ------------------------------------------------------


def test_rref_is_private_to_linalg():
    pkg = os.path.dirname(weylcalc.__file__)
    users = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            ident = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if ident == "_rref" or (isinstance(node, ast.alias) and node.name == "_rref"):
                users.add(name)
    assert users == {"linalg.py"}
