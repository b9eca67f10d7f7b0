"""|W0| read off the heights of the positive roots (Kostant's formula), the
W0 cap refused by that order before any element is built, and the
length-zero parts of a Levi read off longest elements under it."""

import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest
from conftest import CARTAN_MATRICES, RANK4_CARTAN_MATRICES, cartan_config

import weylcalc
from weylcalc import build_root_datum, enumerate_straight_classes, omega_elements
from weylcalc import affweyl, finiteweyl
from weylcalc.errors import GroupTooLarge
from weylcalc.finiteweyl import enumerate_w0, fw_identity, fw_simple, longest_element, w0_order
from weylcalc.rootdata import PRESETS
from weylcalc.search import closure, right_moves

CONFIGS = sorted(CARTAN_MATRICES) + sorted(RANK4_CARTAN_MATRICES)
NAMES = [(name, False) for name in sorted(PRESETS)] + [(name, True) for name in CONFIGS]

# the configs in sympy's naming, a reducible one as its factors
SYMPY_TYPES = {"G2": ["G2"], "B3": ["B3"], "C3": ["C3"], "SL5": ["A4"], "D4": ["D4"],
               "B4": ["B4"], "C4": ["C4"], "F4": ["F4"], "A2xA1": ["A2", "A1"]}


def _datum(name, config):
    return build_root_datum(cartan_config(name) if config else name)


def _cartan(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def _a_n(n):
    """The type A_n config with X the coroot lattice: |W0| = (n + 1)!."""
    return {"name": f"A{n}", "rank": n, "roots": _cartan(n),
            "coroots": [[int(i == j) for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("name, config", NAMES)
def test_the_formula_counts_w0(name, config):
    datum = _datum(name, config)
    assert w0_order(datum) == len(enumerate_w0(datum))


@pytest.mark.parametrize("name", sorted(SYMPY_TYPES))
def test_the_formula_agrees_with_sympy(name):
    pytest.importorskip("sympy.liealgebras")
    from sympy.liealgebras.weyl_group import WeylGroup

    want = 1
    for factor in SYMPY_TYPES[name]:
        want *= int(WeylGroup(factor).group_order())
    assert w0_order(_datum(name, True)) == want


@pytest.mark.parametrize("name", ["Sp4", "SL4", "A2xA1", "B3", "G2", "F4"])
def test_the_formula_counts_every_parabolic_subgroup(name):
    """W_J, closed from J's simple reflections, has the order the formula
    gives for the datum of the Cartan submatrix A_JJ, and longest_element's
    walk lands on its longest element."""
    datum = _datum(name, name not in PRESETS)
    n = datum.n_simple
    for size in range(n + 1):
        for J in combinations(range(n), size):
            gens = [(j, fw_simple(datum, j)) for j in J]
            w_j = closure([fw_identity(datum)], right_moves(gens), 10_000, "reference W_J")
            assert longest_element(datum, J) is max(w_j.values(), key=lambda u: u.length)
            if J:
                levi = build_root_datum({
                    "name": f"{name}_J", "rank": size,
                    "roots": [[datum.cartan[i][j] for j in J] for i in J],
                    "coroots": [[int(i == j) for j in range(size)] for i in range(size)]})
                assert w0_order(levi) == len(w_j), J


def _count_built(monkeypatch):
    """A list that grows by one for every finite Weyl element built."""
    built = []
    init = finiteweyl.FiniteWeylElt.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(finiteweyl.FiniteWeylElt, "__init__", counting)
    return built


def test_an_oversized_w0_is_refused_before_any_element_is_built(monkeypatch):
    built = _count_built(monkeypatch)
    datum = build_root_datum(cartan_config("F4"))
    monkeypatch.setattr(finiteweyl, "W0_CAP", 1151)
    with pytest.raises(GroupTooLarge, match="^\\|W0\\| = 1152 exceeds cap 1151$"):
        enumerate_w0(datum)
    assert built == []
    # the length-zero parts need no W0: F4's Omega is trivial
    assert [w.length for w in omega_elements(datum)] == [0]
    monkeypatch.setattr(finiteweyl, "W0_CAP", 1152)
    assert len(enumerate_w0(datum)) == 1152 == len(built)


def test_a12_is_refused_before_any_element_is_built(monkeypatch):
    """At the default cap W0 is refused; the length-zero parts of the Levi
    of type A11, J = {0..10}, and of the whole group, where X is the coroot
    lattice and Omega is trivial, are read off longest elements."""
    built = _count_built(monkeypatch)
    datum = build_root_datum(_a_n(12))
    with pytest.raises(GroupTooLarge, match="^\\|W0\\| = 6227020800 exceeds cap 10000000$"):
        enumerate_w0(datum)
    assert built == []
    assert len(affweyl._levi(datum, (1 << 11) - 1)[-1]) == 12
    assert [w.length for w in omega_elements(datum)] == [0]
    assert 0 < len(built) < 1000


def test_a_levi_past_the_cap_still_gives_its_length_zero_parts(monkeypatch):
    """B3's J = {0, 1} is of type A2, of 6 elements: past a cap of 5, its
    Levi still gives its 3 length-zero parts, and the census goes through."""
    datum = build_root_datum(cartan_config("B3"))
    monkeypatch.setattr(finiteweyl, "W0_CAP", 5)
    cosets = affweyl._levi(datum, 0b011)[-1]
    assert [u.length for u, _, _ in cosets] == [0, 2, 2]
    assert enumerate_straight_classes(datum, 4)


def _run_a12(tmp_path, argv):
    config = tmp_path / "a12.json"
    config.write_text(json.dumps(_a_n(12)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylcalc.__file__)))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc.cli", *argv, "--group", str(config)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    return proc, time.perf_counter() - started


@pytest.mark.parametrize("argv", [["finite", "enumerate"], ["verify", "--suite", "finite-delta"]])
def test_a12_is_refused_in_under_a_second(tmp_path, argv):
    """|A12| = 13! is past W0_CAP: both commands exit 3 with one stderr
    line before W0 is built, with no memory limit set."""
    proc, elapsed = _run_a12(tmp_path, argv)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "budget exceeded: |W0| = 6227020800 exceeds cap 10000000\n"
    assert elapsed < 1.0


def test_a12_describe_answers_in_under_a_second(tmp_path):
    """describe reads |W0| off the formula and Omega off longest elements."""
    proc, elapsed = _run_a12(tmp_path, ["describe"])
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["w0_order"] == 6227020800 and len(doc["omega"]) == 1
    assert elapsed < 1.0
