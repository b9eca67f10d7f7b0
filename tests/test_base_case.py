"""The base case of the dimension recursion: a minimal-length element v
meets only its class (kappa(v), nu_bar_v), in dimension l(v) - <2 rho,
nu_bar_v>.  Checked against the u x decomposition it replaced, on every
preset's length ball."""

import ast
import os

import pytest

import weylcalc
from weylcalc import build_root_datum, class_key, length_ball, straight_class_of
from weylcalc.classes import _class_of_straight, ux_decompose
from weylcalc.dims import _dim_cache, _shift_witnesses, dim_profile
from weylcalc.rootdata import PRESETS

BALL_BOUND = {1: 12, 2: 9, 3: 7}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_minimal_leaf_matches_the_ux_route(name):
    datum = build_root_datum(name)
    cache = _dim_cache(datum)
    minimal = 0
    for v in length_ball(datum, BALL_BOUND[datum.rank]):
        assert class_key(v) == straight_class_of(v).pair_key, v
        if _shift_witnesses(v)[1]:
            continue
        minimal += 1
        dec = ux_decompose(v, check_minimal=False)
        expected = {cache.class_id(_class_of_straight(dec.x).pair_key): dec.u.length}
        assert dim_profile(v) == expected, v
    assert minimal > 0


def test_dims_never_calls_the_spherical_search():
    path = os.path.join(os.path.dirname(weylcalc.__file__), "dims.py")
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
    assert not names & {"ux_decompose", "_class_of_straight"}
