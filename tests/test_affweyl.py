import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CARTAN_MATRICES,
    AffineRoot,
    alcove_point,
    cartan_config,
    kappa_add,
    solve_rational,
    transport_affine_root,
)
from weylcalc import (
    InfinitePi1,
    aw_identity,
    aw_inv,
    aw_mul,
    build_root_datum,
    defect_of,
    enumerate_w0,
    eta_decomposition,
    from_finite,
    from_parts,
    fw_simple,
    is_straight,
    kappa_w,
    newton_point,
    omega_elements,
    simple_reflections,
    translation,
)
from weylcalc.linalg import row_mat, vec_dot
from weylcalc.oracle import brute_straight_check, cayley_ball
from weylcalc.rootdata import PRESETS


def _random_elements(datum, count, lam_range=3, seed=11):
    rng = random.Random(seed)
    w0 = enumerate_w0(datum)
    out = []
    for _ in range(count):
        lam = tuple(rng.randint(-lam_range, lam_range) for _ in range(datum.rank))
        out.append(from_parts(datum, lam, rng.choice(w0).word))
    return out


# -- group law ---------------------------------------------------------------


def test_translations_commute(sl2):
    t = translation(sl2, (1,))
    assert aw_mul(t, t) == translation(sl2, (2,))


def test_inverse_of_affine_reflection(sl2):
    w = from_parts(sl2, (1,), [0])  # t^{alpha_vee} s
    assert aw_inv(w) == w
    assert aw_mul(w, w).is_identity


@settings(max_examples=60)
@given(st.data())
def test_associativity_random(data):
    datum = build_root_datum("Sp4")
    elems = []
    for _ in range(3):
        lam = tuple(data.draw(st.integers(-3, 3)) for _ in range(datum.rank))
        word = data.draw(st.lists(st.integers(0, datum.n_simple - 1), max_size=5))
        elems.append(from_parts(datum, lam, word))
    a, b, c = elems
    assert aw_mul(aw_mul(a, b), c) == aw_mul(a, aw_mul(b, c))


def test_inverse_property_sample(sl3):
    for w in _random_elements(sl3, 1000):
        assert aw_mul(w, aw_inv(w)).is_identity


# -- length -------------------------------------------------------------------


def test_length_identity(sl2):
    assert aw_identity(sl2).length == 0


def test_length_translation_sl2_oracle(sl2):
    # Cayley distance over the simple reflections is the defining oracle
    ball = cayley_ball(sl2, 3)
    t = translation(sl2, (1,))
    assert ball.distance(t) == 2
    assert t.length == 2


def test_length_zero_pgl2_oracle(pgl2):
    w = from_parts(pgl2, (1,), [0])
    assert w.length == 0
    # geometric oracle: w maps the open base alcove into itself
    v0 = alcove_point(pgl2)
    image = w.act(v0)
    for beta in pgl2.pos_roots:
        assert 0 < vec_dot(beta, image) < 1


def test_length_formula_vs_cayley(sl3):
    ball = cayley_ball(sl3, 5)
    for key in sorted(ball.elements):
        w = ball.elements[key]
        assert w.length == ball.distances[key]


def test_length_inverse_and_omega_invariance(pgl2, pgl3):
    for datum in (pgl2, pgl3):
        omegas = omega_elements(datum)
        for w in _random_elements(datum, 40):
            assert w.length == aw_inv(w).length
            for tau in omegas:
                for tau2 in omegas:
                    assert aw_mul(aw_mul(tau, w), tau2).length == w.length


def test_length_equals_affine_inversions(sl2, pgl2, sp4):
    # independent recount: positive affine roots sent negative by the
    # covariant transport f -> f o w^{-1}
    for datum in (sl2, pgl2, sp4):
        for w in _random_elements(datum, 25, lam_range=2):
            winv = aw_inv(w)
            window = 2 + max(
                abs(vec_dot(beta, w.lam)) for beta in datum.pos_roots
            )
            count = 0
            for beta in list(datum.pos_roots) + [
                tuple(-x for x in b) for b in datum.pos_roots
            ]:
                for k in range(-window, window + 1):
                    ar = AffineRoot(beta, k)
                    if ar.is_positive(datum) and not transport_affine_root(
                        winv, ar
                    ).is_positive(datum):
                        count += 1
            assert count == w.length


# -- simple reflections -------------------------------------------------------


def test_simple_reflections_sl2(sl2):
    refl = dict(simple_reflections(sl2))
    assert set(refl) == {0, 1}
    assert refl[0] == from_parts(sl2, (1,), [0])
    assert all(s.length == 1 for s in refl.values())


def test_simple_reflections_counts(sl3, sp4):
    assert len(simple_reflections(sl3)) == 3
    assert len(simple_reflections(sp4)) == 3


def test_affine_root_positivity_two_sample_points(sl3):
    # the positivity predicate is constant on the alcove interior
    for beta in list(sl3.pos_roots) + [tuple(-x for x in b) for b in sl3.pos_roots]:
        for k in range(-3, 4):
            ar = AffineRoot(beta, k)
            v1 = ar.value_at(alcove_point(sl3)) > 0
            v2 = ar.value_at(alcove_point(sl3, 1)) > 0
            assert v1 == v2


# -- Newton points ------------------------------------------------------------


def test_newton_examples(sl2):
    w = from_parts(sl2, (1,), [0])  # t^{alpha_vee} s
    nu, nu_bar = newton_point(w)
    assert nu == (Fraction(0),) and nu_bar == (Fraction(0),)

    t = translation(sl2, (1,))
    nu, nu_bar = newton_point(t)
    assert nu == (Fraction(1),) and nu_bar == (Fraction(1),)

    # s1 s0 = t^{-alpha_vee}, by expanding the group law
    refl = dict(simple_reflections(sl2))
    w = aw_mul(refl[1], refl[0])
    assert w == translation(sl2, (-1,))
    nu, nu_bar = newton_point(w)
    assert nu == (Fraction(-1),) and nu_bar == (Fraction(1),)


def test_newton_inverse_negates(sl3):
    for w in _random_elements(sl3, 50):
        nu, _ = newton_point(w)
        nu_inv, _ = newton_point(aw_inv(w))
        assert nu_inv == tuple(-x for x in nu)


def test_newton_bar_conjugation_invariant(sp4):
    for w in _random_elements(sp4, 15, lam_range=2, seed=3):
        _, nu_bar = newton_point(w)
        for g in _random_elements(sp4, 8, lam_range=2, seed=5):
            conj = aw_mul(aw_mul(g, w), aw_inv(g))
            assert newton_point(conj)[1] == nu_bar


# -- straightness -------------------------------------------------------------


def test_straight_examples(sl2):
    assert is_straight(aw_identity(sl2))
    assert not is_straight(from_finite(fw_simple(sl2, 0)))
    w = translation(sl2, (-1,))
    assert is_straight(w)
    assert brute_straight_check(w, 12)


def test_straight_vs_power_oracle(pgl2, sl3, sp4):
    for datum in (pgl2, sl3, sp4):
        ball = cayley_ball(datum, 4)
        for key in sorted(ball.elements):
            w = ball.elements[key]
            assert is_straight(w) == brute_straight_check(w, 12)


# -- defect -------------------------------------------------------------------


def test_defect_examples(sl2, pgl2):
    assert defect_of(aw_identity(sl2)) == 0
    assert defect_of(translation(sl2, (1,))) == 0
    # solve -v + omega = v over Q: single point, so the fixed space is
    # 0-dimensional and the defect is 1
    w = from_parts(pgl2, (1,), [0])
    assert defect_of(w) == 1


# -- kappa --------------------------------------------------------------------


def test_kappa_examples(sl2, pgl2):
    for _, s in simple_reflections(sl2):
        assert kappa_w(s) == (0,)
    assert kappa_w(from_parts(pgl2, (1,), [0])) == (1,)


def test_kappa_multiplicative_and_coset_invariant(pgl2):
    for w in _random_elements(pgl2, 30):
        for v in _random_elements(pgl2, 5, seed=7):
            assert kappa_w(aw_mul(w, v)) == kappa_add(pgl2, kappa_w(w), kappa_w(v))
        for _, s in simple_reflections(pgl2):
            assert kappa_w(aw_mul(s, w)) == kappa_w(w)


# -- eta decomposition --------------------------------------------------------


def test_eta_sl2_dominant_translation_times_s(sl2):
    w = from_parts(sl2, (2,), [0])  # t^{2 alpha_vee} s1, already coset-minimal
    s1 = from_finite(fw_simple(sl2, 0))
    assert aw_mul(s1, w).length == 4 > w.length == 3
    dec = eta_decomposition(w)
    assert dec.x.is_identity
    assert dec.mu == (2,)
    assert dec.y == fw_simple(sl2, 0)
    assert dec.eta == fw_simple(sl2, 0)


def test_eta_dominant_regular_translation(sl3):
    w = translation(sl3, (2, 2))
    dec = eta_decomposition(w)
    assert dec.x.is_identity and dec.y.is_identity and dec.eta.is_identity
    assert dec.mu == (2, 2)


def test_eta_finite_element(sl2):
    dec = eta_decomposition(from_finite(fw_simple(sl2, 0)))
    assert dec.x == fw_simple(sl2, 0)
    assert dec.mu == (0,)
    assert dec.y.is_identity
    assert dec.eta == fw_simple(sl2, 0)


def test_eta_reconstructs_and_is_length_additive(sp4):
    for w in _random_elements(sp4, 60, lam_range=2):
        dec = eta_decomposition(w)
        assert sp4.is_dominant(dec.mu)
        rebuilt = aw_mul(
            aw_mul(from_finite(dec.x), translation(sp4, dec.mu)), from_finite(dec.y)
        )
        assert rebuilt == w
        m = aw_mul(translation(sp4, dec.mu), from_finite(dec.y))
        assert w.length == dec.x.length + m.length
        assert dec.eta == dec.y * dec.x


# -- omega --------------------------------------------------------------------


def test_omega_sl2(sl2):
    assert [w for w in omega_elements(sl2)] == [aw_identity(sl2)]


def test_omega_pgl2(pgl2):
    omegas = omega_elements(pgl2)
    assert len(omegas) == 2
    nontrivial = [w for w in omegas if not w.is_identity]
    assert nontrivial == [from_parts(pgl2, (1,), [0])]


def test_omega_pgl3_is_cyclic_of_order_3(pgl3):
    omegas = omega_elements(pgl3)
    assert len(omegas) == 3
    tau = next(w for w in omegas if not w.is_identity)
    assert aw_mul(tau, aw_mul(tau, tau)).is_identity
    keys = {w.key for w in omegas}
    assert aw_mul(tau, tau).key in keys
    assert {kappa_w(w) for w in omegas} == {(0, 0), (0, 1), (0, 2)}


def test_omega_infinite_pi1_refused():
    datum = build_root_datum(
        {"name": "GL2-ish", "rank": 2, "roots": [[1, -1]], "coroots": [[1], [-1]]}
    )
    with pytest.raises(InfinitePi1):
        omega_elements(datum)
    # kappa stays available
    assert datum.kappa_class((1, 0)) != (0, 0)


def _scan_omega(datum):
    """The length-zero elements by a W0 scan: for each u, the lam with
    <alpha_i, lam> = [u^-1 alpha_i < 0], kept when integral and of length 0."""
    found = []
    for u in enumerate_w0(datum):
        rhs = [int(tuple(-x for x in row_mat(alpha, u.matrix)) in datum.pos_roots)
               for alpha in datum.simple_roots]
        lam = solve_rational(datum.simple_roots, rhs)
        if lam is not None and all(x.denominator == 1 for x in lam):
            w = from_parts(datum, [int(x) for x in lam], u.word)
            if w.length == 0:
                found.append(w.key)
    return sorted(found)


@pytest.mark.parametrize("config", sorted(PRESETS) + sorted(CARTAN_MATRICES))
def test_omega_matches_the_w0_scan(config):
    datum = build_root_datum(PRESETS.get(config) or cartan_config(config))
    assert [w.key for w in omega_elements(datum)] == _scan_omega(datum)


def test_length_zero_iff_omega(pgl2):
    ball = cayley_ball(pgl2, 3)
    omega_keys = {w.key for w in omega_elements(pgl2)}
    for key in ball.elements:
        w = ball.elements[key]
        assert (w.length == 0) == (w.key in omega_keys)


def test_a_lambda_of_the_wrong_length_is_refused():
    """The public constructor, and from_parts and translation through it,
    refuse a lambda whose length is not the rank instead of building an
    element with a wrong length."""
    from weylcalc import AffineWeylElt, DatumMismatch, fw_identity

    sl4 = build_root_datum("SL4")
    for build in (
        lambda: from_parts(sl4, (0, 0, 0, 1), [0, 2, 1]),
        lambda: translation(sl4, (1, 2)),
        lambda: AffineWeylElt(sl4, (), fw_identity(sl4)),
    ):
        with pytest.raises(DatumMismatch, match="lambda has .* coordinates, not 3"):
            build()
    assert from_parts(sl4, (0, 0, 1), [0, 2, 1]).lam == (0, 0, 1)


def test_a_non_integral_coordinate_is_refused():
    """No public entry truncates a coordinate: an int or an integral Fraction
    is read as itself, anything else raises NotIntegral."""
    from weylcalc import (
        GammaDescriptor,
        NotIntegral,
        dim_X_grass,
        dim_Y_superregular,
        enumerate_straight_classes,
        fw_identity,
        grass_fibration_max,
        kappa_class,
        resolve_class,
    )

    sl3 = build_root_datum("SL3")
    cls = enumerate_straight_classes(sl3, 4)[0]
    one, half = fw_identity(sl3), Fraction(3, 2)
    for call in (
        lambda: from_parts(sl3, (Fraction(1, 2), 1), []),
        lambda: from_parts(sl3, (0.5, 1), []),
        lambda: translation(sl3, (Fraction(5, 2), 0)),
        lambda: translation(sl3, (True, 0)),
        lambda: dim_X_grass(sl3, (half, half), cls),
        lambda: grass_fibration_max(sl3, (half, half), cls),
        lambda: dim_Y_superregular(one, (half, half), one, GammaDescriptor(cls, springer_dim=0)),
        lambda: resolve_class(sl3, (Fraction(1, 2), 0), (0, 0)),
        lambda: kappa_class(sl3, (0.5, 0)),
    ):
        with pytest.raises(NotIntegral, match="expected an integer"):
            call()
    assert translation(sl3, (Fraction(4, 2), 0)).lam == (2, 0)
    assert resolve_class(sl3, (Fraction(0), 0), (0, 0)) == cls
