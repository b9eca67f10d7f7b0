import itertools
from fractions import Fraction

import pytest
from conftest import (
    CARTAN_MATRICES,
    RANK4_CARTAN_MATRICES,
    cartan_config,
    in_coroot_lattice,
    kappa_add,
    solve_rational,
)
from hypothesis import given, strategies as st

from weylcalc import (
    BadAutomorphism,
    DatumMismatch,
    MalformedConfig,
    NotDominant,
    NotFiniteType,
    NotIntegral,
    NotRational,
    build_root_datum,
    resolve_class,
    simple_reflections,
)
from weylcalc.finiteweyl import enumerate_w0
from weylcalc.linalg import vec_dot
from weylcalc.rootdata import PRESETS

GL2_ISH = {"name": "GL2-ish", "rank": 2, "roots": [[1, -1]], "coroots": [[1], [-1]]}


# -- construction and presets ----------------------------------------------


def test_sl2_preset(sl2):
    assert sl2.rank == 1
    assert sl2.pos_roots == ((2,),)
    assert sl2.simple_coroots == ((1,),)
    assert vec_dot(sl2.simple_roots[0], sl2.simple_coroots[0]) == 2
    assert sl2.two_rho == (2,)


def test_pgl2_preset(pgl2):
    # X = Z omega with alpha^vee = 2 omega and <alpha, omega> = 1
    assert pgl2.simple_coroots == ((2,),)
    assert vec_dot(pgl2.simple_roots[0], (1,)) == 1


def test_affine_cartan_rejected():
    with pytest.raises(NotFiniteType):
        build_root_datum(
            {
                "name": "affineA1",
                "rank": 2,
                "roots": [[2, -2], [-2, 2]],
                "coroots": [[1, 0], [0, 1]],
            }
        )


def test_malformed_configs():
    with pytest.raises(MalformedConfig):
        build_root_datum({"rank": 1, "roots": [[2]]})  # missing coroots
    with pytest.raises(MalformedConfig):
        build_root_datum("NoSuchGroup")
    with pytest.raises(MalformedConfig):
        # diagonal pairing must be 2
        build_root_datum({"rank": 1, "roots": [[1]], "coroots": [[1]]})
    with pytest.raises(MalformedConfig):
        # declared Cartan disagrees with the pairings
        build_root_datum(
            {"rank": 1, "roots": [[2]], "coroots": [[1]], "cartan": [[3]]}
        )


def test_positive_root_counts(sl3, sp4, pgl3):
    assert len(sl3.pos_roots) == 3
    assert len(sp4.pos_roots) == 4
    assert len(pgl3.pos_roots) == 3


def test_rho_pairing_identity(sl2, pgl2, sl3, pgl3, sp4):
    for datum in (sl2, pgl2, sl3, pgl3, sp4):
        for covee in datum.simple_coroots:
            assert vec_dot(datum.two_rho, covee) == 2
        assert all(vec_dot(a, datum.two_rho_check) == 2 for a in datum.simple_roots)


def test_delta_validation(sl3):
    build_root_datum("A2-twisted")  # valid by construction
    with pytest.raises(BadAutomorphism):
        build_root_datum(
            {
                "name": "bad",
                "rank": 2,
                "roots": [[2, -1], [-1, 2]],
                "coroots": [[1, 0], [0, 1]],
                "delta": {"perm": [1, 0], "lattice_matrix": [[1, 0], [0, 1]]},
            }
        )
    with pytest.raises(BadAutomorphism):
        build_root_datum(
            {
                "name": "bad2",
                "rank": 2,
                "roots": [[2, -1], [-1, 2]],
                "coroots": [[1, 0], [0, 1]],
                "delta": {"perm": [0, 1], "lattice_matrix": [[0, 1], [1, 0]]},
            }
        )


def test_delta_permutes_positive_roots(a2_twisted):
    g = a2_twisted.delta.matrix
    from weylcalc.linalg import row_mat

    for beta in a2_twisted.pos_roots:
        assert row_mat(beta, g) in a2_twisted.pos_roots


# -- dominant representatives ----------------------------------------------


def test_dominant_rep_sl2(sl2):
    assert sl2.dominant_rep((-1,)) == (Fraction(1),)
    assert sl2.dominant_rep((0,)) == (Fraction(0),)


def _orbit(datum, v):
    seen = {tuple(Fraction(x) for x in v)}
    frontier = [tuple(Fraction(x) for x in v)]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(datum.n_simple):
                r = datum.reflect_coweight(i, u)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def test_dominant_rep_sl3_orbit_oracle(sl3):
    # reflect a regular dominant coweight, then recover it; the oracle scans
    # the full 6-element orbit for its dominant member
    nu = (Fraction(1), Fraction(1))
    reflected = sl3.reflect_coweight(0, nu)
    orbit = _orbit(sl3, reflected)
    assert len(orbit) == 6
    dominant_members = [v for v in orbit if sl3.is_dominant(v)]
    assert dominant_members == [nu]
    assert sl3.dominant_rep(reflected) == nu


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=2, max_size=2))
def test_dominant_rep_reflection_invariant(v):
    datum = build_root_datum("SL3")
    v = tuple(v)
    rep = datum.dominant_rep(v)
    for i in range(datum.n_simple):
        assert datum.dominant_rep(datum.reflect_coweight(i, v)) == rep
    assert datum.is_dominant(rep)


# -- dominance order --------------------------------------------------------


def test_dominance_sl2(sl2):
    assert sl2.dominance_leq((0,), (1,)) is True
    assert sl2.dominance_leq((1,), (0,)) is False


def test_dominance_pgl2(pgl2):
    # omega = alpha^vee / 2, so 0 <= omega with rational coefficient 1/2,
    # and solving c * alpha^vee = -omega gives c = -1/2 < 0
    assert pgl2.dominance_leq((0,), (1,)) is True
    assert pgl2.dominance_leq((1,), (0,)) is False


def test_dominance_requires_dominant(sl2):
    with pytest.raises(NotDominant):
        sl2.dominance_leq((-1,), (0,))


def test_dominance_partial_order_on_grid(sl3):
    grid = [
        sl3.dominant_rep((a, b))
        for a in range(-2, 3)
        for b in range(-2, 3)
    ]
    grid = sorted(set(grid))
    for x in grid:
        assert sl3.dominance_leq(x, x)
        for y in grid:
            if sl3.dominance_leq(x, y) and sl3.dominance_leq(y, x):
                assert x == y
            for z in grid:
                if sl3.dominance_leq(x, y) and sl3.dominance_leq(y, z):
                    assert sl3.dominance_leq(x, z)

    # difference not in the coroot span is incomparable (Sp4 coweight vs 0)
    sp4 = build_root_datum("Sp4")
    assert sp4.dominance_leq((0, 0), (1, 1)) is True


def _ref_dominance_leq(datum, nu1, nu2):
    """nu2 - nu1 solved against the simple coroots over Q."""
    coeffs = solve_rational(datum.coroot_matrix, [b - a for a, b in zip(nu1, nu2)])
    return coeffs is not None and all(c >= 0 for c in coeffs)


@pytest.mark.parametrize("config", sorted(PRESETS) + sorted(CARTAN_MATRICES) + ["GL2-ish"])
def test_dominance_matches_the_rational_solve(config):
    datum = build_root_datum(
        GL2_ISH if config == "GL2-ish" else PRESETS.get(config) or cartan_config(config)
    )
    halves = [Fraction(k, 2) for k in range(-2, 3)]
    grid = sorted({datum.dominant_rep(v) for v in itertools.product(halves, repeat=datum.rank)})
    comparable = 0
    for nu1 in grid:
        for nu2 in grid:
            got = datum.dominance_leq(nu1, nu2)
            assert got == _ref_dominance_leq(datum, nu1, nu2), (nu1, nu2)
            comparable += got
    assert len(grid) < comparable < len(grid) ** 2
    # a dominant coweight off the centre, whose negative is not dominant
    nu = next(v for v in grid if any(vec_dot(alpha, v) for alpha in datum.simple_roots))
    minus = tuple(-x for x in nu)
    for pair in ((minus, nu), (nu, minus)):
        with pytest.raises(NotDominant):
            datum.dominance_leq(*pair)


# -- kappa -------------------------------------------------------------------


def test_kappa_sl2(sl2):
    assert sl2.kappa_class((1,)) == (0,)
    assert sl2.pi1_order() == 1


def test_kappa_pgl2(pgl2):
    # oracle: omega is in the coroot lattice Z*(2 omega) iff its coordinate
    # is even
    assert not in_coroot_lattice(pgl2, (1,))
    assert in_coroot_lattice(pgl2, (2,))
    assert pgl2.kappa_class((1,)) != (0,)
    assert pgl2.kappa_class((2,)) == (0,)
    assert pgl2.pi1_order() == 2


def test_kappa_pgl3(pgl3):
    assert pgl3.pi1_order() == 3
    gen = pgl3.kappa_class((1, 0))
    acc = (0, 0)
    seen = set()
    for _ in range(3):
        acc = kappa_add(pgl3, acc, gen)
        seen.add(acc)
    assert acc == (0, 0)
    assert len(seen) == 3


@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
)
def test_kappa_additive(lam, mu):
    datum = build_root_datum("PGL3")
    lam, mu = tuple(lam), tuple(mu)
    total = tuple(a + b for a, b in zip(lam, mu))
    assert datum.kappa_class(total) == kappa_add(
        datum, datum.kappa_class(lam), datum.kappa_class(mu)
    )
    # kappa vanishes exactly on the coroot lattice
    assert (datum.kappa_class(lam) == (0, 0)) == in_coroot_lattice(datum, lam)


def test_infinite_pi1_allowed_for_kappa():
    # a torus direction: X = Z^2 with a single A1 inside
    datum = build_root_datum(GL2_ISH)
    assert datum.pi1_order() is None
    assert datum.kappa_class((1, 0)) != (0, 0)
    assert datum.kappa_class((1, 1)) != datum.kappa_class((2, 2))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda d: d.dominance_leq((0.1, 0.1), (1, 1)), NotRational),
        (lambda d: d.dominance_leq((1, 1), (True, 1)), NotRational),
        (lambda d: d.dominance_leq((1,), (1, 1)), DatumMismatch),
        (lambda d: d.dominant_rep((0.5, -1.5)), NotRational),
        (lambda d: d.dominant_rep((True, False)), NotRational),
        (lambda d: d.kappa_class((1,)), DatumMismatch),
        (lambda d: d.kappa_class((1, 1, 1)), DatumMismatch),
        (lambda d: d.kappa_class((True, 0)), NotIntegral),
        (lambda d: resolve_class(d, (0,), (1, 1)), DatumMismatch),
        (lambda d: d.is_dominant((0.5, 0.5)), NotRational),
        (lambda d: d.is_dominant((1,)), DatumMismatch),
    ],
    ids=["leq-float", "leq-bool", "leq-short", "rep-float", "rep-bool", "kappa-short",
         "kappa-long", "kappa-bool", "resolve-short-kappa", "dominant-float", "dominant-short"],
)
def test_a_bad_coweight_is_refused(sl3, call, error):
    """nu and lam at the public entries: a float or a bool is never read as
    a number, and a wrong length is never cut by zip."""
    with pytest.raises(error):
        call(sl3)


@pytest.mark.parametrize("name, n_pos, order",
                         [("D4", 12, 192), ("B4", 16, 384), ("C4", 16, 384), ("F4", 24, 1152)])
def test_rank4_data_match_sympy(name, n_pos, order):
    """The rank-4 test data against sympy.liealgebras: the Cartan matrix,
    |Phi^+| and |W0|."""
    pytest.importorskip("sympy.liealgebras")
    from sympy.liealgebras.cartan_matrix import CartanMatrix
    from sympy.liealgebras.root_system import RootSystem
    from sympy.liealgebras.weyl_group import WeylGroup

    datum = build_root_datum(cartan_config(name))
    assert CartanMatrix(name).tolist() == RANK4_CARTAN_MATRICES[name]
    assert len(RootSystem(name).all_roots()) == 2 * n_pos == 2 * len(datum.pos_roots)
    assert WeylGroup(name).group_order() == order == len(enumerate_w0(datum))


def test_the_reducible_datum_matches_sympy():
    """A2xA1's Cartan matrix is the block sum of sympy's A2 and A1, and the
    datum has one affine generator per component.  sympy's CartanMatrix
    fails on rank 1, so each block is also read off the simple roots as
    2 (alpha_i, alpha_j) / (alpha_j, alpha_j)."""
    pytest.importorskip("sympy.liealgebras")
    from sympy import diag
    from sympy.liealgebras.cartan_matrix import CartanMatrix
    from sympy.liealgebras.root_system import RootSystem

    def from_roots(name):
        simple = list(RootSystem(name).simple_roots().values())
        dot = lambda a, b: sum(x * y for x, y in zip(a, b))
        return [[2 * dot(a, b) // dot(b, b) for b in simple] for a in simple]

    assert from_roots("A2") == CartanMatrix("A2").tolist()
    assert diag(from_roots("A2"), from_roots("A1")).tolist() == CARTAN_MATRICES["A2xA1"]
    datum = build_root_datum(cartan_config("A2xA1"))
    assert len(datum.pos_roots) == 4 and len(enumerate_w0(datum)) == 12
    assert [label for label, _ in simple_reflections(datum)] == [-1, 0, 1, 2, 3]
