"""The length-zero parts of each standard Levi, read off longest elements
(affweyl._levi), against the W_J closure they replace; and the class layer
(omega_elements, the census, resolve_class, describe) with no W0 built."""

import ast
import json
import os
import sys

import pytest
from conftest import CARTAN_MATRICES, RANK4_CARTAN_MATRICES, cartan_config, solve_rational

import weylcalc
from weylcalc import (
    build_root_datum,
    cli,
    enumerate_straight_classes,
    kappa_w,
    omega_elements,
    resolve_class,
)
from weylcalc import affweyl
from weylcalc.finiteweyl import fw_identity, fw_simple
from weylcalc.rootdata import PRESETS
from weylcalc.search import closure, right_moves

NAMES = [(name, False) for name in sorted(PRESETS)] + [
    (name, True) for name in sorted(CARTAN_MATRICES) + sorted(RANK4_CARTAN_MATRICES)]


def _a12():
    """Type A12 with X the coroot lattice: |W0| = 13! is past W0_CAP."""
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(12)]
              for i in range(12)]
    return {"name": "A12", "rank": 12, "roots": cartan,
            "coroots": [[int(i == j) for j in range(12)] for i in range(12)]}


def _reference_cosets(datum, mask, den):
    """The W_J closure _levi used to scan: all of W_J, closed from J's own
    simple reflections, kept where t^lam' u has length zero in M_J's
    extended affine Weyl group, <beta, lam'> = [u^-1 beta < 0] on Phi_J^+
    with p_J = <alpha_j, lam'> = [u^-1 alpha_j < 0]; each as (u.key, p_J,
    den A_KJ A_JJ^-1 p_J), solved over Q."""
    n, cartan = datum.n_simple, datum.cartan
    J = [j for j in range(n) if mask >> j & 1]
    K = [k for k in range(n) if not mask >> k & 1]
    gens = [(j, fw_simple(datum, j)) for j in J]
    w_j = closure([fw_identity(datum)], right_moves(gens), 100_000, "reference W_J")
    phi_j = [(k, [coeff[j] for j in J]) for k, coeff in enumerate(datum.pos_coeffs)
             if not any(coeff[i] for i in K)]
    out = set()
    for u in w_j.values():
        neg = u.neg_mask
        p_j = tuple(int(neg[datum.simple_index[j]]) for j in J)
        if all(sum(c * p for c, p in zip(coeffs, p_j)) == neg[k] for k, coeffs in phi_j):
            x = solve_rational([[cartan[i][j] for j in J] for i in J], p_j) if J else []
            shift = [den * sum(cartan[k][j] * xj for j, xj in zip(J, x)) for k in K]
            assert all(s.denominator == 1 for s in shift)
            out.add((u.key, p_j, tuple(int(s) for s in shift)))
    return out


@pytest.mark.parametrize("name, config", NAMES, ids=[name for name, _ in NAMES])
def test_the_levi_cosets_are_the_length_zero_part_of_w_j(name, config):
    datum = build_root_datum(cartan_config(name) if config else name)
    for mask in range(1 << datum.n_simple):
        *_, den, cosets = affweyl._levi(datum, mask)
        got = {(u.key, p_j, shift) for u, p_j, shift in cosets}
        assert len(got) == len(cosets)
        assert got == _reference_cosets(datum, mask, den), mask


@pytest.fixture
def no_w0(monkeypatch):
    """enumerate_w0 raises, wherever a weylcalc module reads it."""
    def refuse(datum):
        raise AssertionError("enumerate_w0 was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "weylcalc" and hasattr(module, "enumerate_w0"):
            monkeypatch.setattr(module, "enumerate_w0", refuse)


@pytest.mark.parametrize("name", ["F4", "B3", "A12"])
def test_the_class_layer_builds_no_w0(name, no_w0, tmp_path, capsys):
    config = _a12() if name == "A12" else cartan_config(name)
    datum = build_root_datum(config)
    omega = omega_elements(datum)
    assert omega and all(w.length == 0 for w in omega)
    assert enumerate_straight_classes(datum, 4)
    zero = (0,) * datum.rank
    for w in omega:
        cls = resolve_class(datum, kappa_w(w), zero)
        assert (cls.length, cls.defect) == (0, 0)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    assert cli.main(["describe", "--group", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["omega"]) == len(omega)


@pytest.mark.parametrize("module", ["affweyl.py", "classes.py"])
def test_the_class_layer_does_not_import_the_w0_enumeration(module):
    """No name, attribute or import of enumerate_w0 or require_w0_order in
    the class layer, so W_J enumeration cannot come back into it unseen."""
    path = os.path.join(os.path.dirname(weylcalc.__file__), module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"enumerate_w0", "require_w0_order"}
