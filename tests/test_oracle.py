import ast

import pytest
from conftest import cartan_config

from weylcalc import (
    aw_identity,
    build_root_datum,
    from_parts,
    length_ball,
    omega_elements,
    simple_reflections,
    translation,
)
from weylcalc import oracle
from weylcalc.finiteweyl import FiniteWeylElt
from weylcalc.oracle import brute_min_length, brute_straight_check, cayley_ball
from weylcalc.rootdata import PRESETS

# the length bound of the elements w checked against the reference, by rank
W_BOUND = {1: 8, 2: 8, 3: 6, 4: 4}
# (group, radius) of the reference check; D4 and F4 have many v sending
# positive roots negative, and F4's roots have two lengths
MIN_CASES = (
    [(name, radius) for name in sorted(PRESETS) + ["B3", "C3", "G2"] for radius in (6, 3, 1, 0)]
    + [(name, radius) for name in ("D4", "F4") for radius in (3, 1)]
)


def test_ball_radius_zero(pgl2):
    ball = cayley_ball(pgl2, 0)
    omega_keys = {w.key for w in omega_elements(pgl2)}
    assert set(ball.elements) == omega_keys
    assert all(d == 0 for d in ball.distances.values())


def test_ball_sl2_radius_3(sl2):
    # infinite dihedral growth: 1 + 2 + 2 + 2
    ball = cayley_ball(sl2, 3)
    assert len(ball.elements) == 7
    by_level = {}
    for key, d in ball.distances.items():
        by_level.setdefault(d, 0)
        by_level[d] += 1
    assert by_level == {0: 1, 1: 2, 2: 2, 3: 2}


@pytest.mark.parametrize("name", ["PGL3", "Sp4", "A2-twisted"])
def test_a_smaller_ball_is_read_off_a_larger_one(name):
    """A ball asked for after a larger one of the same cap is its part at
    distance <= radius: the keys in the order, and the distances, of a ball
    walked on a fresh datum, sharing the larger ball's elements."""
    datum, fresh = build_root_datum(name), build_root_datum(name)
    big = cayley_ball(datum, 5)
    brute_min_length(aw_identity(datum), 5)  # fills the larger ball's levels
    for radius in (3, 1):
        ball, walked = cayley_ball(datum, radius), cayley_ball(fresh, radius)
        assert list(ball.distances.items()) == list(walked.distances.items())
        assert list(ball.elements) == list(walked.elements)
        assert all(w is big.elements[k] for k, w in ball.elements.items())
        assert (ball.radius, ball.levels, ball.heads, ball.rows) == (radius, [], [], {})
    other = cayley_ball(datum, 2, cap=10**5)  # another cap walks its own ball
    assert not any(w is big.elements[k] for k, w in other.elements.items())


def test_ball_distances_match_length(sl2, pgl2, sl3, sp4):
    for datum in (sl2, pgl2, sl3, sp4):
        ball = cayley_ball(datum, 4)
        for key, w in ball.elements.items():
            assert w.length == ball.distances[key]


def test_ball_neighbor_distance_property(sl3):
    ball = cayley_ball(sl3, 4)
    inner = {k: w for k, w in ball.elements.items() if ball.distances[k] < 4}
    for key, w in inner.items():
        for _, s in simple_reflections(sl3):
            sw = s * w
            assert abs(ball.distances[key] - ball.distances[sw.key]) == 1


def test_ball_closed_under_inverse(sl3):
    ball = cayley_ball(sl3, 4)
    for key, w in ball.elements.items():
        assert w.inv().key in ball.distances
        assert ball.distances[w.inv().key] == ball.distances[key]


def test_brute_min_examples(sl2):
    w = from_parts(sl2, (2,), [0])  # s0 s1 s0
    assert brute_min_length(w, 2) == 1
    assert brute_min_length(aw_identity(sl2), 2) == 0
    t = translation(sl2, (-1,))  # straight
    assert brute_min_length(t, 3) == t.length


def test_brute_straight_examples(sl2, pgl2):
    assert brute_straight_check(translation(sl2, (-1,)), 12)
    assert not brute_straight_check(from_parts(sl2, (0,), [0]), 2)
    for tau in omega_elements(pgl2):
        assert brute_straight_check(tau, 6)


def _reference_min(w, radius):
    """The minimum by affine products: min over the ball of l(g w g^-1)."""
    return min((g * w * g.inv()).length for g in cayley_ball(w.datum, radius).elements.values())


@pytest.mark.parametrize("name, radius", MIN_CASES)
def test_brute_min_matches_products(name, radius):
    """The offsets read off the ball's level functions give the product
    reference's value, boundary shell included.  SL2 at radius 0 holds a
    single level function of a single positive root."""
    datum = build_root_datum(name if name in PRESETS else cartan_config(name))
    for w in length_ball(datum, W_BOUND[datum.rank]):
        assert brute_min_length(w, radius) == _reference_min(w, radius), (w, radius)


def test_a_finite_part_seen_before_makes_no_finite_product(sl3, monkeypatch):
    """The row of a finite part is built once per ball: a second w with
    the same finite part reads it, with no product of finite parts, and a
    new finite part builds one row."""
    first, second = from_parts(sl3, (1, 0), [0, 1]), from_parts(sl3, (0, 2), [0, 1])
    other = from_parts(sl3, (1, 0), [1, 0])
    brute_min_length(first, 4)
    products, builds = [], []
    mul, row = FiniteWeylElt.__mul__, oracle._row

    def counting(a, b):
        products.append((a, b))
        return mul(a, b)

    def building(ball, u, n):
        builds.append(u)
        return row(ball, u, n)

    monkeypatch.setattr(FiniteWeylElt, "__mul__", counting)
    monkeypatch.setattr(oracle, "_row", building)
    brute_min_length(second, 4)
    assert products == [] and builds == []
    brute_min_length(other, 4)
    assert builds == [other.fw]


def test_the_identity_row_holds_one_vector(sl3, sp4):
    """For u = 1 every offset F(beta_j) - F(beta_j) is 0: the row is one
    zero vector, and every conjugate of t^lam has the length of t^lam."""
    for datum in (sl3, sp4):
        ball = cayley_ball(datum, 4)
        for lam in ((1, 0), (2, -3), (0, 0)):
            t = translation(datum, lam)
            assert brute_min_length(t, 4) == t.length
        assert ball.rows[t.fw.idx] == (0,) * len(datum.pos_roots)


def test_the_oracle_imports_nothing_from_the_code_it_checks():
    """The oracles stay independent of what they check: oracle.py imports
    nothing from classes, dims or search."""
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert "affweyl" in imported  # the walk sees the relative imports
    assert not imported & {"classes", "dims", "search"}
