"""The straight-class census from Kottwitz's classification against an
independent one read off the length ball, and the paths that must build
no ball: grass, superregular and naming a class."""

import itertools
from fractions import Fraction

import pytest
from conftest import cartan_config

from weylcalc import (
    InfinitePi1,
    UnknownClass,
    build_root_datum,
    class_key,
    defect_of,
    from_parts,
    is_straight,
    length_ball,
    linalg,
    resolve_class,
)
from weylcalc import verify as vf
from weylcalc.classes import enumerate_straight_classes, reduce_to_min
from weylcalc.memo import memo
from weylcalc.rootdata import PRESETS

BOUNDS = {
    "SL2": 10, "PGL2": 10, "SL3": 10, "PGL3": 10, "Sp4": 20, "SL4": 14,
    "A2-twisted": 10, "A3-twisted": 12, "G2": 14, "B3": 10, "C3": 10, "SL5": 8,
}


def _datum(name):
    return build_root_datum(name if name in PRESETS else cartan_config(name))


def _ball_census(datum, max_len):
    """(kappa, nu_bar, length, defect) of every straight class met in the
    length ball, each defect checked on every straight member."""
    found = {}
    for w in length_ball(datum, max_len):
        if is_straight(w):
            kappa, nu = class_key(w)
            row = (kappa, tuple(Fraction(*p) for p in nu), w.length, defect_of(w))
            assert found.setdefault(row[:2], row) == row
    return sorted(found.values(), key=lambda r: (r[2], r[1], r[0]))


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_census_matches_the_ball_census(name):
    datum = _datum(name)
    census = enumerate_straight_classes(datum, BOUNDS[name])
    got = [(c.kappa, c.nu_bar, c.length, c.defect) for c in census]
    assert got == _ball_census(_datum(name), BOUNDS[name])


@pytest.mark.parametrize(
    "name, lam, word, nu, length",
    [
        ("G2", (1, 1), [0], (Fraction(1, 2), Fraction(1)), 3),
        ("B3", (1, 1, 1), [0, 2], (Fraction(1, 2), Fraction(1), Fraction(1, 2)), 4),
    ],
)
def test_a_levi_representative_that_is_not_straight_is_reduced(name, lam, word, nu, length):
    """The length-zero Levi element of this class is not straight; the
    census takes its reduce_to_min, which is."""
    datum = _datum(name)
    rep = from_parts(datum, lam, word)
    assert not is_straight(rep) and rep.length > length
    w_min = reduce_to_min(rep).w_min
    assert is_straight(w_min) and w_min.length == length
    cls = next(c for c in enumerate_straight_classes(datum, length) if c.nu_bar == nu)
    assert rep.key in memo(datum, "levi_classes").table  # the census's own representative
    assert (cls.length, cls.defect) == (length, defect_of(w_min))
    assert resolve_class(datum, cls.kappa, nu) == cls


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_resolve_class_finds_every_census_class(name):
    datum = _datum(name)
    for cls in enumerate_straight_classes(datum, min(BOUNDS[name], 8)):
        got = resolve_class(datum, cls.kappa, cls.nu_bar)
        assert (got.pair_key, got.length, got.defect) == (cls.pair_key, cls.length, cls.defect)


def test_resolve_class_refusals(sl2, pgl2):
    with pytest.raises(UnknownClass, match="is not a nonnegative integer"):
        resolve_class(sl2, (0,), (Fraction(1, 4),))
    # <2 rho, nu> = 1 is integral, but no coweight of SL2 has <alpha, lam> = 1
    with pytest.raises(UnknownClass, match="no straight class"):
        resolve_class(sl2, (0,), (Fraction(1, 2),))
    with pytest.raises(UnknownClass, match="no straight class"):
        resolve_class(pgl2, (1,), (Fraction(2),))


def _no_ball(datum):
    table = datum._cache.get("length_ball")
    return table is None or not table.table


def test_grass_superregular_and_naming_build_no_length_ball():
    datum = build_root_datum("Sp4")
    assert vf.verify_grass(datum, pairing_cap=2)["passed"]
    assert vf.verify_superregular(datum)["passed"]
    assert _no_ball(datum)
    b3 = _datum("B3")
    mu = (18, 30, 18)  # 6 rho^vee: every simple pairing is 6
    cls = resolve_class(b3, b3.kappa_class(mu), mu)
    assert (cls.length, cls.defect) == (132, 0)
    assert _no_ball(b3)


GL2_ISH = {"name": "GL2-ish", "rank": 2, "roots": [[1, -1]], "coroots": [[1], [-1]]}


def test_infinite_pi1_is_refused_by_the_census():
    datum = build_root_datum(GL2_ISH)
    for query in (
        lambda: enumerate_straight_classes(datum, 2),
        lambda: resolve_class(datum, (0, 0), (0, 0)),
        lambda: vf.verify_grass(datum, pairing_cap=1),
    ):
        with pytest.raises(InfinitePi1, match=r"X / Z<coroots> is infinite"):
            query()


def _scanned_box(datum, pairing_cap):
    """The coordinate-box scan that _dominant_box replaced."""
    span = pairing_cap + 1
    out = []
    for coords in itertools.product(range(-4 * span, 4 * span + 1), repeat=datum.rank):
        if datum.is_dominant(coords) and all(
            linalg.vec_dot(a, coords) <= pairing_cap for a in datum.simple_roots
        ):
            out.append(tuple(coords))
    return sorted(out)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dominant_box_matches_the_coordinate_scan(name):
    datum = build_root_datum(name)
    for cap in range(3):
        assert vf._dominant_box(datum, cap) == _scanned_box(datum, cap)
