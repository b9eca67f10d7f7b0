import os
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import enumerate_parabolic

import weylcalc
from weylcalc import (
    DatumMismatch,
    ExplorationBudgetExceeded,
    NotMinimal,
    NotRational,
    approx_closure,
    aw_identity,
    build_root_datum,
    enumerate_straight_classes,
    from_parts,
    is_spherical,
    is_straight,
    length_ball,
    linalg,
    newton_point,
    p_alcove_test,
    reduce_to_min,
    resolve_class,
    simple_reflections,
    straight_class_of,
    translation,
    ux_decompose,
    UnknownClass,
)
from weylcalc.oracle import brute_min_length
from weylcalc.rootdata import PRESETS


def test_reduce_descent_example(sl2):
    refl = dict(simple_reflections(sl2))
    w = refl[0] * refl[1] * refl[0]  # s0 s1 s0
    assert w == from_parts(sl2, (2,), [0])
    assert w.length == 3
    result = reduce_to_min(w)
    assert result.w_min == from_parts(sl2, (0,), [0])  # s1
    assert result.w_min.length == 1
    # one conjugation step by s0 suffices
    assert len(result.path) == 1
    assert result.path[0][0] == 0
    # path is consistent: replaying the conjugations lands on w_min
    current = w
    for label, before, after in result.path:
        s = refl[label]
        assert before == current
        current = s * current * s
        assert after == current
    assert current == result.w_min


def test_straight_elements_are_minimal(sl2, pgl2):
    for datum in (sl2, pgl2):
        for w in length_ball(datum, 4):
            if is_straight(w):
                assert reduce_to_min(w).w_min.length == w.length


def test_reduce_matches_oracle_sl3(sl3):
    import random

    rng = random.Random(5)
    candidates = [w for w in length_ball(sl3, 8)]
    for w in rng.sample(candidates, 25):
        got = reduce_to_min(w).w_min.length
        assert got == brute_min_length(w, 6)


def test_reduce_matches_oracle_sp4(sp4):
    import random

    rng = random.Random(9)
    candidates = [w for w in length_ball(sp4, 8)]
    for w in rng.sample(candidates, 20):
        got = reduce_to_min(w).w_min.length
        assert got == brute_min_length(w, 6)


def test_approx_closure_identity(sl2):
    assert approx_closure(aw_identity(sl2)) == [aw_identity(sl2)]


def test_approx_closure_s1(sl2):
    s1 = from_parts(sl2, (0,), [0])
    assert approx_closure(s1) == [s1]


def test_approx_closure_straight_class_sl2(sl2):
    # the two straight elements t^{+-alpha_vee} of the class (0, alpha_vee)
    # lie in one closure orbit
    plus = translation(sl2, (1,))
    minus = translation(sl2, (-1,))
    closure = approx_closure(plus)
    assert minus in closure
    assert plus in approx_closure(minus)


def test_budget_exceeded(sl3):
    w = translation(sl3, (3, 3))
    with pytest.raises(ExplorationBudgetExceeded):
        approx_closure(w, budget=1)


# -- ux decomposition ---------------------------------------------------------


def test_ux_s1(sl2):
    s1 = from_parts(sl2, (0,), [0])
    dec = ux_decompose(s1)
    assert dec.u == s1
    assert dec.x == aw_identity(sl2)
    assert dec.K == (1,)
    assert dec.u.length + dec.x.length == s1.length


def test_ux_straight_elements(sl2, pgl2):
    tau = from_parts(pgl2, (1,), [0])
    dec = ux_decompose(tau)
    assert dec.u.is_identity and dec.x == tau and dec.K == ()

    w = translation(sl2, (-1,))
    dec = ux_decompose(w)
    assert dec.u.is_identity and dec.x == w and dec.K == ()


def test_ux_requires_minimal(sl2):
    w = from_parts(sl2, (2,), [0])  # s0 s1 s0, not minimal
    with pytest.raises(NotMinimal):
        ux_decompose(w)


def test_ux_structure_on_ball():
    """On every preset, each decomposition of a reduced element of the
    length-6 ball is length-additive, x is straight of length <2 rho,
    nu_bar(m)>, x has no K-descent on either side (by affine products), and
    conjugation by x permutes K."""
    for name in sorted(PRESETS):
        datum = build_root_datum(name)
        refl = dict(simple_reflections(datum))
        for w in length_ball(datum, 6):
            m = reduce_to_min(w).w_min
            dec = ux_decompose(m, check_minimal=False)
            assert dec.u.length + dec.x.length == m.length
            assert is_straight(dec.x)
            assert dec.x.length == linalg.vec_dot(datum.two_rho, newton_point(m)[1])
            for label in dec.K:
                s = refl[label]
                assert (s * dec.x).length > dec.x.length
                assert (dec.x * s).length > dec.x.length
                conj = dec.x * s * dec.x.inv()
                assert any(conj == refl[l] for l in dec.K)


# -- straight classes ---------------------------------------------------------


def test_straight_class_examples(sl2, pgl2):
    s1 = from_parts(sl2, (0,), [0])
    cls = straight_class_of(s1)
    assert cls.kappa == (0,) and cls.nu_bar == (Fraction(0),)
    assert cls.length == 0 and cls.defect == 0

    w = from_parts(sl2, (0,), [0]) * dict(simple_reflections(sl2))[0]  # s1 s0
    assert w == translation(sl2, (-1,))
    cls = straight_class_of(w)
    assert cls.nu_bar == (Fraction(1),) and cls.length == 2 and cls.defect == 0

    tau = from_parts(pgl2, (1,), [0])
    cls = straight_class_of(tau)
    assert cls.kappa == (1,) and cls.nu_bar == (Fraction(0),)
    assert cls.length == 0 and cls.defect == 1


def test_census_sl2(sl2):
    classes = enumerate_straight_classes(sl2, 2)
    assert [(c.kappa, c.nu_bar, c.length, c.defect) for c in classes] == [
        ((0,), (Fraction(0),), 0, 0),
        ((0,), (Fraction(1),), 2, 0),
    ]


def test_census_pgl2_frozen(pgl2):
    classes = enumerate_straight_classes(pgl2, 2)
    assert [(c.kappa, c.nu_bar, c.length, c.defect) for c in classes] == [
        ((0,), (Fraction(0),), 0, 0),
        ((1,), (Fraction(0),), 0, 1),
        ((1,), (Fraction(1),), 1, 0),
        ((0,), (Fraction(2),), 2, 0),
    ]


def test_census_zero_length(pgl3):
    classes = enumerate_straight_classes(pgl3, 0)
    assert all(c.length == 0 for c in classes)
    assert len(classes) == 3  # one per omega element


def test_resolve_class(pgl2):
    cls = resolve_class(pgl2, (1,), (Fraction(0),))
    assert cls.defect == 1
    with pytest.raises(UnknownClass):
        resolve_class(pgl2, (0,), (Fraction(1),))  # kappa of omega is 1, not 0


def test_kappa_constant_under_reduction(pgl2):
    from weylcalc import kappa_w

    for w in length_ball(pgl2, 5):
        assert kappa_w(reduce_to_min(w).w_min) == kappa_w(w)
        assert straight_class_of(w).kappa == kappa_w(w)


# -- spherical subsets ---------------------------------------------------------


def test_spherical_empty(sl2):
    assert is_spherical(sl2, ())


def test_spherical_full_affine_diagram_is_not(sl2):
    assert not is_spherical(sl2, (0, 1))
    # oracle: the subgroup closure keeps growing past any finite bound
    with pytest.raises(ExplorationBudgetExceeded):
        enumerate_parabolic(sl2, (0, 1), cap=64)


def test_spherical_sl3_pair(sl3):
    assert is_spherical(sl3, (0, 1))
    group = enumerate_parabolic(sl3, (0, 1))
    assert len(group) == 6


def test_spherical_all_proper_subsets_sp4(sp4):
    labels = [l for l, _ in simple_reflections(sp4)]
    assert not is_spherical(sp4, tuple(labels))
    import itertools

    for k in range(len(labels)):
        for sub in itertools.combinations(labels, k):
            assert is_spherical(sp4, sub)
            enumerate_parabolic(sp4, sub, cap=100)


# -- alcove test ----------------------------------------------------------------


def test_p_alcove_trivial_for_zero_nu(sl2):
    w = from_parts(sl2, (1,), [0])
    nu, _ = newton_point(w)
    assert nu == (Fraction(0),)
    assert p_alcove_test(w, nu)


def test_p_alcove_antidominant_translation(sl2):
    w = translation(sl2, (-1,))
    assert p_alcove_test(w, (Fraction(-1),))
    # and for the opposite direction the sign condition fails
    assert not p_alcove_test(w, (Fraction(1),))


def test_p_alcove_levi_membership_fails(sl2):
    # finite part s is not in the Levi of a regular nu
    w = from_parts(sl2, (1,), [0])
    assert not p_alcove_test(w, (Fraction(1),))


def test_p_alcove_for_all_minimals(sl2, pgl2):
    for datum in (sl2, pgl2):
        for w in length_ball(datum, 6):
            w_min = reduce_to_min(w).w_min
            nu, _ = newton_point(w_min)
            assert p_alcove_test(w_min, nu)


# -- nu coordinates: exact rationals, one per rank ------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda d, w: resolve_class(d, (0, 0), (True, False)),
        lambda d, w: resolve_class(d, (0, 0), (1.0, -1.0)),
        lambda d, w: p_alcove_test(w, (0.5, 0.5)),
        lambda d, w: p_alcove_test(w, (True, False)),
    ],
    ids=["resolve-bool", "resolve-float", "p-alcove-float", "p-alcove-bool"],
)
def test_a_float_or_bool_nu_is_refused(sl3, call):
    """(True, False) was read as nu_bar = (1, 1), (1.0, -1.0) as (1, -1),
    and p_alcove_test tested floats."""
    with pytest.raises(NotRational, match="expected an int or a Fraction"):
        call(sl3, from_parts(sl3, (1, 0), [0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda d, w: d.dominant_rep((1, 1, 1)),
        lambda d, w: resolve_class(d, (0, 0), (1, 1, 1)),
        lambda d, w: p_alcove_test(w, (1,)),
        lambda d, w: p_alcove_test(w, (1, 1, 1)),
    ],
    ids=["dominant-rep-long", "resolve-long", "p-alcove-short", "p-alcove-long"],
)
def test_a_nu_of_the_wrong_length_is_refused(sl3, call):
    """resolve_class ended in InternalAssertion on (1, 1, 1), and
    p_alcove_test answered False on (1,): zip cut nu to the rank."""
    with pytest.raises(DatumMismatch, match="nu has [13] coordinates, not 2"):
        call(sl3, from_parts(sl3, (1, 0), [0]))


def test_a_short_nu_is_refused_not_reflected_forever():
    """dominant_rep((1,)) on SL3 reflected forever, zip cutting each pairing
    short, and so did resolve_class.  Run in a child process with a
    timeout, so that a regression fails instead of hanging the suite."""
    code = "\n".join([
        "from weylcalc import DatumMismatch, build_root_datum, resolve_class",
        "d = build_root_datum('SL3')",
        "for call in (lambda: d.dominant_rep((1,)), lambda: resolve_class(d, (0, 0), (1,))):",
        "    try:",
        "        call()",
        "    except DatumMismatch:",
        "        continue",
        "    raise SystemExit('a short nu was accepted')",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylcalc.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, b"")


# -- class/datum hygiene --------------------------------------------------------


def test_straight_members_share_one_shift_orbit(sl2, pgl2, sl3):
    # all straight elements with equal (kappa, nu_bar) found in the length-6
    # ball are connected by length-preserving shifts
    from weylcalc.verify import verify_str_cyc

    for datum in (sl2, pgl2, sl3):
        report = verify_str_cyc(datum, max_len=6)
        assert report["passed"], report["failures"]
        assert report["checked"] > 0


def test_straight_class_invariants_across_members(pgl2):
    from weylcalc import defect_of, kappa_w

    by_class = {}
    for w in length_ball(pgl2, 6):
        if is_straight(w):
            cls = straight_class_of(w)
            by_class.setdefault(cls.pair_key, []).append(w)
    assert len(by_class) >= 4
    for key, members in by_class.items():
        defects = {defect_of(w) for w in members}
        lengths = {w.length for w in members}
        assert len(defects) == 1 and len(lengths) == 1


def test_straight_class_of_checks_the_whole_key(monkeypatch):
    """A straight part whose class has w's kappa but another nu_bar is refused."""
    from weylcalc import InternalAssertion, StraightClass, build_root_datum
    from weylcalc import classes

    real = classes._class_of

    def shifted_nu(x):
        cls = real(x)
        nu_bar = tuple(c + 1 for c in cls.nu_bar)
        return StraightClass(kappa=cls.kappa, nu_bar=nu_bar, length=cls.length, defect=cls.defect)

    monkeypatch.setattr(classes, "_class_of", shifted_nu)
    datum = build_root_datum("SL3")  # fresh memos: nothing is read back
    with pytest.raises(InternalAssertion):
        straight_class_of(translation(datum, (1, 0)))
