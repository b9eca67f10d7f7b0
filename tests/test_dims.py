import os
from fractions import Fraction

import pytest

from weylcalc import (
    EMPTY,
    GammaDescriptor,
    HypothesisViolated,
    NonIntegralHalf,
    NotDominant,
    aw_identity,
    aw_mul,
    dim_X_flag,
    dim_X_grass,
    dim_Y_flag,
    dim_Y_grass,
    dim_Y_superregular,
    enumerate_straight_classes,
    finite,
    from_finite,
    from_parts,
    fw_identity,
    fw_simple,
    grass_fibration_max,
    length_ball,
    resolve_class,
    simple_reflections,
    springer_dim_from_invariants,
    straight_class_of,
    translation,
    virtual_dimension,
)
from weylcalc.dims import dim_max, load_cache, save_cache, _dim_cache


def _basic(datum):
    return straight_class_of(aw_identity(datum))


# -- DimValue ------------------------------------------------------------------


def test_dimvalue_absorption():
    assert EMPTY.plus(1) is EMPTY or EMPTY.plus(1) == EMPTY
    assert (EMPTY + 1).is_empty
    assert dim_max(EMPTY, finite(3)) == finite(3)
    assert dim_max(finite(2), EMPTY) == finite(2)
    assert finite(2) + 1 == finite(3)
    assert dim_max(EMPTY, EMPTY).is_empty
    assert EMPTY.to_json() == {"nonempty": False, "dim": None}
    assert finite(0).to_json() == {"nonempty": True, "dim": 0}
    assert finite(0) != EMPTY


# -- virtual dimension ----------------------------------------------------------


def test_virtual_dimension_example(sl2):
    w = from_parts(sl2, (2,), [0])  # t^{2 alpha_vee} s1 = s0 s1 s0
    basic = _basic(sl2)
    assert virtual_dimension(w, basic) == 2


def test_virtual_dimension_length_zero(pgl2):
    tau = from_parts(pgl2, (1,), [0])
    cls = straight_class_of(tau)
    # l(w)=0, eta(w)=1, def=1, l(C)=0 would give -1/2: non-integral
    with pytest.raises(NonIntegralHalf) as exc:
        virtual_dimension(aw_identity(pgl2), cls)
    assert exc.value.value == Fraction(-1, 2)
    basic = _basic(pgl2)
    assert virtual_dimension(aw_identity(pgl2), basic) == 0


def test_virtual_dimension_straight_translation(sl2):
    w = translation(sl2, (-1,))
    cls = straight_class_of(w)
    vd = virtual_dimension(w, cls)
    # eta of t^{-alpha_vee}: coset-minimal form is s1 t^{alpha_vee} s1
    assert vd == 0
    assert dim_X_flag(w, cls) == finite(0)


# -- flag recursion ---------------------------------------------------------------


def test_dim_x_flag_base_cases(sl2):
    basic = _basic(sl2)
    s1 = from_parts(sl2, (0,), [0])
    assert dim_X_flag(s1, basic) == finite(1)

    w = translation(sl2, (-1,))  # s1 s0, straight, class (0, alpha_vee)
    assert dim_X_flag(w, basic).is_empty

    s0s1s0 = from_parts(sl2, (2,), [0])
    assert dim_X_flag(s0s1s0, basic) == finite(2)


def test_dim_x_flag_hand_recursion(sl2):
    # expand one step by hand: s0 s1 s0 -> max(dim(s1 s0), dim(s1)) + 1
    basic = _basic(sl2)
    refl = dict(simple_reflections(sl2))
    w = from_parts(sl2, (2,), [0])
    sw = aw_mul(refl[0], w)
    sws = aw_mul(sw, refl[0])
    a = dim_X_flag(sw, basic)
    b = dim_X_flag(sws, basic)
    assert a.is_empty and b == finite(1)
    assert dim_X_flag(w, basic) == dim_max(a, b) + 1


def test_dim_x_flag_minimal_identity(pgl2):
    # for straight-class-compatible minimal w the value is l(w) - l(C)
    for w in length_ball(pgl2, 5):
        m = w
        from weylcalc import reduce_to_min

        m = reduce_to_min(w).w_min
        cls = straight_class_of(m)
        val = dim_X_flag(m, cls)
        assert val == finite(m.length - cls.length)


def test_dim_x_flag_partition_at_minimal_elements(pgl2):
    # minimal-length elements meet exactly their own class; general elements
    # always meet their own class (possibly others too, via the reduction
    # tree)
    from weylcalc import reduce_to_min

    classes = enumerate_straight_classes(pgl2, 2)
    for w in length_ball(pgl2, 4):
        own = straight_class_of(w)
        assert not dim_X_flag(w, own).is_empty
        m = reduce_to_min(w).w_min
        for cls in classes:
            assert dim_X_flag(m, cls).is_empty == (cls != own)


def test_dim_x_flag_choice_independence_fresh_cache(sl3):
    # recompute a mid-sized value with a cold memo; equality with the warm
    # value exercises the second-witness assertion path as well
    basic = _basic(sl3)
    w = from_parts(sl3, (2, 1), [0, 1])
    warm = dim_X_flag(w, basic)
    sl3._cache.pop("dim_x_flag", None)
    cold = dim_X_flag(w, basic)
    assert warm == cold


def test_dim_upper_bound_sample(sl3):
    basic = _basic(sl3)
    for w in length_ball(sl3, 6):
        val = dim_X_flag(w, basic)
        if not val.is_empty:
            assert val.dim <= virtual_dimension(w, basic)


# -- Grassmannian ------------------------------------------------------------------


def test_dim_x_grass_examples(sl2, pgl2):
    basic = _basic(sl2)
    assert dim_X_grass(sl2, (1,), basic) == finite(1)

    cls = resolve_class(sl2, (0,), (1,))
    assert dim_X_grass(sl2, (1,), cls) == finite(0)

    tau_cls = resolve_class(pgl2, (1,), (0,))
    assert dim_X_grass(pgl2, (1,), tau_cls) == finite(0)  # <rho, omega> - 1/2 = 0
    assert dim_X_grass(pgl2, (2,), tau_cls).is_empty  # kappa mismatch
    assert dim_X_grass(pgl2, (2,), _basic(pgl2)) == finite(1)


def test_dim_x_grass_requires_dominant(sl2):
    with pytest.raises(NotDominant):
        dim_X_grass(sl2, (-1,), _basic(sl2))


def test_grass_fibration_oracle(sl2, pgl2):
    for datum in (sl2, pgl2):
        for m in range(0, 4):
            mu = (m,)
            if not datum.is_dominant(mu):
                continue
            for cls in enumerate_straight_classes(datum, 2 * m + 2):
                assert dim_X_grass(datum, mu, cls) == grass_fibration_max(datum, mu, cls)


# -- fiber dimension -----------------------------------------------------------------


def test_springer_dim_from_invariants(sl2, pgl2):
    basic = _basic(sl2)
    gd = GammaDescriptor(basic, d_gamma=0, c_gamma=0)
    assert springer_dim_from_invariants(sl2, gd) == 0

    tau_cls = resolve_class(pgl2, (1,), (0,))
    gd = GammaDescriptor(tau_cls, d_gamma=1, c_gamma=0)
    assert springer_dim_from_invariants(pgl2, gd) == 1

    cls = resolve_class(sl2, (0,), (1,))
    gd = GammaDescriptor(cls, d_gamma=2, c_gamma=2)
    assert springer_dim_from_invariants(sl2, gd) == 1  # <rho, alpha_vee> = 1


def test_gamma_descriptor_validation(sl2):
    basic = _basic(sl2)
    with pytest.raises(ValueError):
        GammaDescriptor(basic)  # neither springer_dim nor (d, c)
    gd = GammaDescriptor(basic, springer_dim=0, d_gamma=0, c_gamma=0)
    assert gd.resolve_springer_dim(sl2) == 0
    gd_bad = GammaDescriptor(basic, springer_dim=5, d_gamma=0, c_gamma=0)
    with pytest.raises(ValueError):
        gd_bad.resolve_springer_dim(sl2)


# -- affine Lusztig combiners ----------------------------------------------------------


def test_dim_y_flag(sl2):
    basic = _basic(sl2)
    s1 = from_parts(sl2, (0,), [0])
    for d in range(4):
        gd = GammaDescriptor(basic, springer_dim=d)
        assert dim_Y_flag(s1, gd) == finite(1 + d)

    # class mismatch stays empty whatever the fiber dimension
    other = resolve_class(sl2, (0,), (1,))
    gd = GammaDescriptor(other, springer_dim=3)
    assert dim_Y_flag(s1, gd).is_empty

    gd = GammaDescriptor(basic, springer_dim=0)
    assert dim_Y_flag(from_parts(sl2, (2,), [0]), gd) == finite(2)


def test_dim_y_grass(sl2, pgl2):
    basic = _basic(sl2)
    assert dim_Y_grass(sl2, (1,), GammaDescriptor(basic, springer_dim=0)) == finite(1)
    cls = resolve_class(sl2, (0,), (1,))
    assert dim_Y_grass(sl2, (1,), GammaDescriptor(cls, springer_dim=2)) == finite(2)
    tau_cls = resolve_class(pgl2, (1,), (0,))
    assert dim_Y_grass(pgl2, (2,), GammaDescriptor(tau_cls, springer_dim=1)).is_empty


def test_dim_y_superregular_example(sl2):
    basic = _basic(sl2)
    gd = GammaDescriptor(basic, springer_dim=0)
    x = fw_identity(sl2)
    y = fw_simple(sl2, 0)
    mu = (4,)
    val = dim_Y_superregular(x, mu, y, gd)
    w = aw_mul(from_finite(x), aw_mul(translation(sl2, mu), from_finite(y)))
    assert val == finite(virtual_dimension(w, basic))
    assert val == dim_Y_flag(w, gd)


def test_dim_y_superregular_support_empty(sl2):
    basic = _basic(sl2)
    gd = GammaDescriptor(basic, springer_dim=0)
    val = dim_Y_superregular(fw_identity(sl2), (4,), fw_identity(sl2), gd)
    assert val.is_empty  # supp(yx) is empty, not the full diagram


def test_dim_y_superregular_kappa_mismatch(pgl2):
    tau_cls = resolve_class(pgl2, (1,), (0,))
    gd = GammaDescriptor(tau_cls, springer_dim=0)
    # mu = 4 omega has kappa 0, the class has kappa 1
    val = dim_Y_superregular(fw_identity(pgl2), (4,), fw_simple(pgl2, 0), gd)
    assert val.is_empty


def test_dim_y_superregular_hypothesis_violations(sl2):
    basic = _basic(sl2)
    gd = GammaDescriptor(basic, springer_dim=0)
    with pytest.raises(HypothesisViolated):
        dim_Y_superregular(fw_identity(sl2), (0,), fw_simple(sl2, 0), gd)
    big = resolve_class(sl2, (0,), (3,))
    gd2 = GammaDescriptor(big, springer_dim=0)
    with pytest.raises(HypothesisViolated):
        # nu + 2 rho_vee = 4 alpha_vee is not <= 2 alpha_vee
        dim_Y_superregular(fw_identity(sl2), (2,), fw_simple(sl2, 0), gd2)


# -- persistence ---------------------------------------------------------------------


def test_cache_round_trip(tmp_path, sl2):
    basic = _basic(sl2)
    w = from_parts(sl2, (2,), [0])
    value = dim_X_flag(w, basic)
    path = save_cache(sl2, str(tmp_path))
    assert os.path.exists(path)

    fresh = resolve_class(sl2, (0,), (0,))
    sl2._cache.pop("dim_x_flag", None)
    loaded = load_cache(sl2, str(tmp_path))
    assert loaded > 0
    cache = _dim_cache(sl2)
    assert dim_X_flag(w, fresh) == value
    # served straight from the persisted table: one hit, no recursion
    assert cache.hits == 1 and cache.misses == 0


def test_cache_ignores_other_datum(tmp_path, sl2, pgl2):
    basic = _basic(sl2)
    dim_X_flag(from_parts(sl2, (0,), [0]), basic)
    save_cache(sl2, str(tmp_path))
    assert load_cache(pgl2, str(tmp_path)) == 0


def test_class_with_a_wrong_length_is_refused_after_its_facts_are_memoised(sl3):
    """Class facts are memoised by (kappa, nu_bar, length); class equality
    ignores the length, so a twin carrying a wrong length must still raise."""
    import dataclasses

    from weylcalc.errors import InternalAssertion

    w = from_parts(sl3, (1, 0), [0])
    cls = straight_class_of(w)
    virtual_dimension(w, cls)
    dim_X_flag(w, cls)
    twin = dataclasses.replace(cls, length=cls.length + 2)
    assert twin == cls
    for query in (
        lambda: virtual_dimension(w, twin),
        lambda: dim_X_flag(w, twin),
        lambda: dim_X_grass(sl3, (1, 1), twin),
        lambda: grass_fibration_max(sl3, (1, 1), twin),
    ):
        with pytest.raises(InternalAssertion, match="class length"):
            query()
