"""Verification suites: each checks one structural claim on a given group
and returns a JSON-ready report with the first counterexample, if any.

These back `weylcalc verify` and the acceptance test module.
"""

from __future__ import annotations

import itertools

from . import linalg
from .affweyl import (
    _position,
    class_key,
    coweight,
    defect_of,
    is_straight,
    newton_point,
    simple_reflections,
)
from .classes import (
    StraightClass,
    approx_closure,
    enumerate_straight_classes,
    length_ball,
    p_alcove_test,
    reduce_to_min,
)
from .dims import (
    EMPTY,
    GammaDescriptor,
    dim_X_flag,
    dim_X_grass,
    dim_Y_flag,
    dim_Y_superregular,
    finite,
    grass_fibration_max,
    superregular_applies,
    virtual_dimension,
)
from .errors import InternalAssertion, NonIntegralHalf
from .finiteweyl import W0_CAP, delta_reduce_to_min, enumerate_w0, twisted_shifts
from .oracle import brute_min_length, brute_straight_check, cayley_ball
from .rootdata import DiagramAutomorphism
from .search import closure


def _report(suite, datum, failures, checked, **extra):
    out = {
        "suite": suite,
        "group": datum.name,
        "passed": not failures,
        "checked": checked,
        "failures": failures[:5],
    }
    out.update(extra)
    return out


def verify_oracle(datum, radius=6):
    """Closed length formula == Cayley-graph distance on the radius ball."""
    ball = cayley_ball(datum, radius)
    failures = []
    for key, w in sorted(ball.elements.items()):
        if w.length != ball.distances[key]:
            failures.append(
                {"w": w.to_json(), "formula": w.length, "distance": ball.distances[key]}
            )
    return _report("oracle", datum, failures, len(ball.elements), radius=radius)


def verify_straightness(datum, radius=5, n_max=12):
    """is_straight == the direct power test on every ball element."""
    ball = cayley_ball(datum, radius)
    failures = []
    for key in sorted(ball.elements):
        w = ball.elements[key]
        got = is_straight(w)
        want = brute_straight_check(w, n_max)
        if got != want:
            failures.append({"w": w.to_json(), "is_straight": got, "power_test": want})
    return _report("straightness", datum, failures, len(ball.elements))


def min_failure(w, replayed, oracle_radius=6):
    """What is wrong with r = reduce_to_min(w), as a failure record, or None.
    r.path must chain from w to r.w_min, each step's after must be s *
    before * s by affine products, and l(r.w_min) must be at most
    brute_min_length(w, oracle_radius): w_min is then a conjugate of w, and
    no conjugate by the oracle's ball is shorter.  `replayed` maps each step
    (label, before.key) replayed so far to its product's key."""
    reduced = reduce_to_min(w)
    path = reduced.path
    ends = [st.before.key for st in path] + [reduced.w_min.key]
    if ends != [w.key] + [st.after.key for st in path]:
        return {"w": w.to_json(), "reason": "the path is not a chain from w to w_min"}
    for st in path:
        step = (st.label, st.before.key)
        if step not in replayed:
            s = simple_reflections(w.datum)[_position(w.datum, st.label)][1]
            replayed[step] = (s * st.before * s).key
        if replayed[step] != st.after.key:
            return {"w": w.to_json(), "reason": f"a step by {st.label} is not s v s"}
    bound = brute_min_length(w, oracle_radius)
    if reduced.w_min.length > bound:
        return {"w": w.to_json(), "reduced": reduced.w_min.length, "oracle": bound}
    return None


def verify_min(datum, max_len=8, oracle_radius=6):
    """Every element of the length ball passes min_failure."""
    replayed = {}
    failures = [min_failure(w, replayed, oracle_radius) for w in length_ball(datum, max_len)]
    return _report("min", datum, [f for f in failures if f], len(failures))


def verify_straight_census(datum, max_len=2, expected=None):
    """enumerate_straight_classes against the straight classes met in the
    length ball, each record (kappa, nu_bar, l(w), defect_of(w)) read off
    every straight member w, and against a frozen expected list if given."""
    classes = enumerate_straight_classes(datum, max_len)
    got = [cls.to_json() for cls in classes]
    failures, ball = [], {}
    for w in length_ball(datum, max_len):
        if is_straight(w):
            key = class_key(w)
            row = StraightClass(key[0], newton_point(w)[1], w.length, defect_of(w)).to_json()
            if ball.setdefault(key, row) != row:
                failures.append({"w": w.to_json(), "member": row, "class": ball[key]})
    census = {cls.pair_key: row for cls, row in zip(classes, got)}
    failures += [{"census": census.get(key), "ball": ball.get(key)}
                 for key in sorted(census.keys() | ball.keys()) if census.get(key) != ball.get(key)]
    if expected is not None and got != expected:
        failures.append({"got": got, "expected": expected})
    return _report("census", datum, failures, len(classes), classes=got)


def verify_str_cyc(datum, max_len=6):
    """All straight elements of one class are linked by length-preserving
    shifts: the closure of the smallest one contains the others."""
    by_class = {}
    for w in length_ball(datum, max_len):
        if is_straight(w):
            by_class.setdefault(class_key(w), []).append(w)
    failures = []
    checked = 0
    for key in sorted(by_class, key=str):
        members = sorted(by_class[key], key=lambda w: w.key)
        reached = {w.key for w in approx_closure(members[0])}
        checked += 1
        for w in members[1:]:
            if w.key not in reached:
                failures.append({"class": str(key), "w": w.to_json()})
    return _report("straight-cyclic", datum, failures, checked)


def verify_p_alcove(datum, max_len=8):
    """Every minimal-length element passes the alcove sign test for its own
    Newton point."""
    failures = []
    seen = set()
    for w in length_ball(datum, max_len):
        w_min = reduce_to_min(w).w_min
        if w_min.key in seen:
            continue
        seen.add(w_min.key)
        nu, _ = newton_point(w_min)
        if not p_alcove_test(w_min, nu):
            failures.append({"w_min": w_min.to_json(), "nu": [str(x) for x in nu]})
    return _report("p-alcove", datum, failures, len(seen))


def verify_dim_bound(datum, max_len=8, class_len=6):
    """No nonempty cell exceeds its virtual dimension."""
    classes = enumerate_straight_classes(datum, class_len)
    failures = []
    checked = 0
    for w in length_ball(datum, max_len):
        for cls in classes:
            val = dim_X_flag(w, cls)
            if val.is_empty:
                continue
            checked += 1
            try:
                bound = virtual_dimension(w, cls)
            except NonIntegralHalf as exc:
                failures.append(
                    {"w": w.to_json(), "class": cls.to_json(), "error": str(exc)}
                )
                continue
            if val.dim > bound:
                failures.append(
                    {"w": w.to_json(), "class": cls.to_json(), "dim": val.dim, "bound": bound}
                )
    return _report("dim-bound", datum, failures, checked)


def _dominant_box(datum, pairing_cap):
    """Dominant integral coweights with all simple pairings <= cap, sorted:
    mu runs over the pairings 0 <= <alpha_i, mu> <= cap, which determine it
    when X / Z<coroots> is finite, and is kept when integral."""
    pairings = itertools.product(range(pairing_cap + 1), repeat=datum.n_simple)
    mus = (coweight(datum, p) for p in pairings)
    return sorted(mu for mu in mus if mu is not None)


def _census_by_mu(datum, mus):
    """mu -> the straight classes of length <= <2 rho, mu>, from one census
    at the largest bound: a straight class has all its straight
    representatives at length l(C), so a smaller census is a filter."""
    bounds = {mu: int(linalg.vec_dot(datum.two_rho, mu)) for mu in mus}
    census = enumerate_straight_classes(datum, max(bounds.values(), default=0))
    return {mu: [cls for cls in census if cls.length <= b] for mu, b in bounds.items()}


def verify_grass(datum, pairing_cap=4):
    """Closed Grassmannian formula == fibration max over the double coset."""
    failures = []
    checked = 0
    mus = _dominant_box(datum, pairing_cap)
    for mu, classes in _census_by_mu(datum, mus).items():
        for cls in classes:
            closed = dim_X_grass(datum, mu, cls)
            derived = grass_fibration_max(datum, mu, cls)
            checked += 1
            if closed != derived:
                failures.append(
                    {
                        "mu": list(mu),
                        "class": cls.to_json(),
                        "closed": closed.to_json(),
                        "fibration": derived.to_json(),
                    }
                )
    return _report("grass", datum, failures, checked, mus=len(mus))


def verify_superregular(datum, pairing_min=2, pairing_cap=None):
    """Wherever the superregular hypotheses hold (superregular_applies), the
    closed formula agrees with the reduction recursion for every x, y in W0.
    dim_Y_superregular makes the comparison itself; a disagreement is
    recorded with x, mu, y, the class and its message."""
    if pairing_cap is None:
        pairing_cap = pairing_min + (2 if datum.rank == 1 else 0)
    failures = []
    checked = 0
    w0 = enumerate_w0(datum)
    mus = [
        mu
        for mu in _dominant_box(datum, pairing_cap)
        if all(linalg.vec_dot(a, mu) >= pairing_min for a in datum.simple_roots)
    ]
    for mu, classes in _census_by_mu(datum, mus).items():
        for cls in classes:
            if not superregular_applies(datum, mu, cls):
                continue
            gd = GammaDescriptor(cls, springer_dim=0)
            for x in w0:
                for y in w0:
                    checked += 1
                    try:
                        dim_Y_superregular(x, mu, y, gd)
                    except InternalAssertion as exc:
                        failures.append(
                            {
                                "x": list(x.word),
                                "mu": list(mu),
                                "y": list(y.word),
                                "class": cls.to_json(),
                                "error": str(exc),
                            }
                        )
    return _report("superregular", datum, failures, checked, mus=len(mus))


def verify_master(datum, max_len=8, class_len=2, springer_dims=(0, 1, 2, 3)):
    """dim_Y_flag = dim_X_flag + fiber dimension with empty absorption."""
    classes = enumerate_straight_classes(datum, class_len)
    failures = []
    checked = 0
    for w in length_ball(datum, max_len):
        for cls in classes:
            base = dim_X_flag(w, cls)
            for d in springer_dims:
                gd = GammaDescriptor(cls, springer_dim=d)
                got = dim_Y_flag(w, gd)
                want = EMPTY if base.is_empty else finite(base.dim + d)
                checked += 1
                if got != want:
                    failures.append(
                        {
                            "w": w.to_json(),
                            "class": cls.to_json(),
                            "springer_dim": d,
                            "got": got.to_json(),
                            "want": want.to_json(),
                        }
                    )
    return _report("master", datum, failures, checked)


def verify_finite_delta(datum):
    """Exhaustive check that the twisted cyclic-shift walk reaches the true
    class minimum for every element of the finite Weyl group, untwisted and
    twisted by the datum's delta when it has one.  The twisted classes
    partition W0, so each is closed once and read for every member."""
    deltas = [DiagramAutomorphism.identity(datum.n_simple, datum.rank)]
    if datum.delta is not None and not datum.delta.is_identity:
        deltas.append(datum.delta)
    failures = []
    checked = 0
    for delta in deltas:
        moves, minima = twisted_shifts(datum, delta), {}
        for w in enumerate_w0(datum):
            if w.key not in minima:
                cls = closure([w], moves, W0_CAP, "twisted class").values()
                true_min = min(v.length for v in cls)
                o_min = {v.key for v in cls if v.length == true_min}
                minima.update(dict.fromkeys((v.key for v in cls), (true_min, o_min)))
            true_min, o_min = minima[w.key]
            w_min, path = delta_reduce_to_min(w, delta)
            checked += 1
            if w_min.length != true_min or w_min.key not in o_min:
                failures.append(
                    {
                        "delta": list(delta.perm),
                        "w": list(w.word),
                        "got": list(w_min.word),
                        "true_min": true_min,
                    }
                )
            for i, before, after in path:
                if after.length > before.length:
                    failures.append({"w": list(w.word), "step": i, "reason": "length increased"})
    return _report("finite-delta", datum, failures, checked, deltas=len(deltas))


SUITES = {
    "oracle": verify_oracle,
    "straightness": verify_straightness,
    "min": verify_min,
    "census": verify_straight_census,
    "straight-cyclic": verify_str_cyc,
    "p-alcove": verify_p_alcove,
    "dim-bound": verify_dim_bound,
    "grass": verify_grass,
    "superregular": verify_superregular,
    "master": verify_master,
    "finite-delta": verify_finite_delta,
}
