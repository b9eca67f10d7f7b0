"""The straight-class census from Kottwitz's classification against an
independent one read off the length ball, and the paths that must build
no ball: grass, superregular and naming a class."""

import itertools
from fractions import Fraction

import pytest
from conftest import cartan_config

from weylcalc import (
    InfinitePi1,
    StraightClass,
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
from weylcalc import classes, cli, dims, finiteweyl, search
from weylcalc import verify as vf
from weylcalc.classes import enumerate_straight_classes, reduce_to_min
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
def test_a_levi_representative_that_is_not_straight_is_reduced(
        name, lam, word, nu, length, monkeypatch):
    """The length-zero Levi element of this class is not straight.  The
    census reads the class off it with no walk, and its reduce_to_min, which
    is straight, has the same length and defect."""
    datum = _datum(name)
    rep = from_parts(datum, lam, word)
    assert not is_straight(rep) and rep.length > length
    w_min = reduce_to_min(rep).w_min
    assert is_straight(w_min) and class_key(w_min) == class_key(rep)
    read = []
    real = classes._class_of
    monkeypatch.setattr(classes, "_class_of", lambda w: read.append(w.key) or real(w))
    cls = next(c for c in enumerate_straight_classes(datum, length) if c.nu_bar == nu)
    assert rep.key in read  # the census's own representative
    assert (cls.length, cls.defect) == (w_min.length, defect_of(w_min)) == (length, defect_of(rep))
    assert resolve_class(datum, cls.kappa, nu) == cls


# the non-straight Levi representatives of the census at bound 10
NOT_STRAIGHT = {"G2": 1, "B3": 1, "D4": 1, "B4": 2, "C4": 0, "F4": 4}


@pytest.mark.parametrize("name", sorted(NOT_STRAIGHT))
def test_census_and_naming_run_no_search(name, monkeypatch):
    """enumerate_straight_classes and resolve_class make no reduce_to_min,
    explore_level or descend call; every census class at bound 10 is named
    by resolve_class, and each non-straight Levi representative has the
    length and defect of its reduce_to_min."""
    datum = _datum(name)
    reps = []
    real = classes._class_of
    monkeypatch.setattr(classes, "_class_of", lambda w: reps.append(w) or real(w))
    for module in (classes, search, dims, finiteweyl, vf):
        for fn in ("reduce_to_min", "explore_level", "descend"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, _refused(fn))
    census = enumerate_straight_classes(datum, 10)
    for cls in census:
        got = resolve_class(datum, cls.kappa, cls.nu_bar)
        assert (got.pair_key, got.length, got.defect) == (cls.pair_key, cls.length, cls.defect)
    monkeypatch.undo()
    crooked = [w for w in reps[:len(census)] if not is_straight(w)]  # the census's own
    assert len(crooked) == NOT_STRAIGHT[name]
    for w in crooked:
        cls, w_min = real(w), reduce_to_min(w).w_min
        assert cls in census and is_straight(w_min) and class_key(w_min) == cls.pair_key
        assert (w_min.length, defect_of(w_min)) == (cls.length, cls.defect)


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_resolve_class_finds_every_census_class(name):
    datum = _datum(name)
    for cls in enumerate_straight_classes(datum, min(BOUNDS[name], 8)):
        got = resolve_class(datum, cls.kappa, cls.nu_bar)
        assert (got.pair_key, got.length, got.defect) == (cls.pair_key, cls.length, cls.defect)


@pytest.mark.parametrize("name", ["G2", "B3"])
def test_the_census_suite_passes_at_bound_10(name):
    report = vf.verify_straight_census(_datum(name), max_len=10)
    assert report["passed"], report["failures"]
    assert report["checked"] == len(report["classes"]) > 0


def _bump_a_defect(census):
    first = census[0]
    return (StraightClass(first.kappa, first.nu_bar, first.length, first.defect + 1),) + census[1:]


@pytest.mark.parametrize("mutate", [lambda census: census[1:], _bump_a_defect],
                         ids=["dropped-class", "bumped-defect"])
def test_a_wrong_census_fails_the_census_suite(mutate, monkeypatch, capsys):
    """The suite compares the census with the classes of the length ball,
    so it fails with no frozen list, and `verify --suite census` exits 4."""
    real = vf.enumerate_straight_classes
    monkeypatch.setattr(vf, "enumerate_straight_classes",
                        lambda datum, max_len, budget=None: mutate(real(datum, max_len, budget)))
    report = vf.verify_straight_census(build_root_datum("PGL2"))
    assert not report["passed"] and len(report["failures"]) == 1
    assert cli.main(["verify", "--suite", "census", "--group", "PGL2"]) == 4
    assert '"passed": false' in capsys.readouterr().out


def test_members_of_a_ball_class_must_agree(monkeypatch):
    """A straight member whose defect differs from its class's first member
    fails the suite, though the census agrees with that first member."""
    datum = build_root_datum("PGL2")
    members = {}
    for w in length_ball(datum, 2):
        if is_straight(w):
            members.setdefault(class_key(w), []).append(w.key)
    second = next(keys[1] for keys in members.values() if len(keys) > 1)
    real = vf.defect_of
    monkeypatch.setattr(vf, "defect_of", lambda w: real(w) + (w.key == second))
    failures = vf.verify_straight_census(datum)["failures"]
    assert len(failures) == 1 and failures[0]["member"]["defect"] == failures[0]["class"]["defect"] + 1


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


@pytest.mark.parametrize("name", ["SL4", "Sp4", "B3"])
def test_naming_a_non_basic_class_builds_no_w0(name):
    """The Levi of a non-basic class is proper, and resolve_class reads A^-1
    off the Cartan matrix, so on a fresh datum it enumerates no W0."""
    census = _datum(name)
    non_basic = [cls for cls in enumerate_straight_classes(census, 4)
                 if any(linalg.mat_vec(census.simple_roots, cls.nu_bar))]
    assert non_basic
    for cls in non_basic:
        datum = _datum(name)
        assert resolve_class(datum, cls.kappa, cls.nu_bar) == cls
        table = datum._cache.get("w0")
        assert table is None or not table.table


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
