"""Generator moves against products: every left and shift move gives the
element and the length that a product and the Iwahori-Matsumoto formula
give, and the oracle never uses a move."""

import ast
import os

import pytest

import weylcalc
from weylcalc import AffineWeylElt, build_root_datum, cayley_ball, length_ball
from weylcalc.affweyl import (
    left_move,
    low_shifts,
    omega_elements,
    simple_reflections,
)
from weylcalc.rootdata import PRESETS
from weylcalc.search import closure, right_moves

BALL_BOUND = {1: 10, 2: 8, 3: 6}

# every name through which a length could be read off a root sign
MOVE_HELPERS = {
    "GeneratorMove", "move_row", "left_move", "low_shifts", "left_descents", "left_ascents",
    "length_ball", "_moves",
}


def _formula_length(w):
    """The length of w's element from the formula, on a fresh product-free copy."""
    fresh = AffineWeylElt(w.datum, w.lam, w.fw)
    assert fresh._length is None
    return fresh.length


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_moves_match_products(name):
    datum = build_root_datum(name)
    gens = simple_reflections(datum)
    ball = length_ball(datum, BALL_BOUND[datum.rank])
    pairs = 0
    for v in ball:
        assert v._length == _formula_length(v), v
        low = {label: svs for label, svs in low_shifts(v)}
        for label, s in gens:
            move, product = left_move(v, label), s * v
            assert move.key == product.key, (v, label)
            assert product._length is None
            assert move._length == product.length == _formula_length(move), (v, label)
            svs = s * v * s
            assert (label in low) == (svs.length <= v.length), (v, label)
            if label in low:
                assert low[label].key == svs.key and low[label]._length == svs.length
            pairs += 1
    assert pairs == len(ball) * len(gens)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_length_ball_matches_the_product_closure(name):
    datum = build_root_datum(name)
    bound = BALL_BOUND[datum.rank]
    by_products = closure(
        omega_elements(datum), right_moves(simple_reflections(datum)), None, "product ball",
        keep=lambda v: v.length <= bound,
    )
    assert [w.key for w in length_ball(datum, bound)] == sorted(
        by_products, key=lambda k: (by_products[k].length, k)
    )


def test_oracle_names_no_move_helper():
    path = os.path.join(os.path.dirname(weylcalc.__file__), "oracle.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & MOVE_HELPERS


def test_oracle_imports_no_checked_layer():
    """The oracle checks the class, search and dimension layers, so it
    imports none of them."""
    path = os.path.join(os.path.dirname(weylcalc.__file__), "oracle.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                modules.add(node.module.rsplit(".", 1)[-1])
            if node.module in (None, "weylcalc"):
                modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert "affweyl" in modules  # the scan sees the imports
    assert not modules & {"classes", "search", "dims"}


def test_oracle_ball_lengths_come_from_the_formula():
    """The oracle suite compares the formula, not a sign-tested length, with
    the Cayley distance: no ball element knows its length before it is read."""
    ball = cayley_ball(build_root_datum("SL3"), 3)
    assert all(w._length is None for w in ball.elements.values())
    for key, w in ball.elements.items():
        assert w.length == ball.distances[key] and w._length == w.length
