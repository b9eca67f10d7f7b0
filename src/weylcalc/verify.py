"""Verification suites: each checks one structural claim on a given group
and returns a JSON-ready report with the first counterexample, if any.

These back `weylcalc verify` and the acceptance test module.
"""

from __future__ import annotations

import itertools

from . import linalg
from .affweyl import class_key, from_finite, is_straight, newton_point, translation
from .classes import (
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
    virtual_dimension,
)
from .errors import Inconclusive, NonIntegralHalf
from .finiteweyl import delta_reduce_to_min, enumerate_w0, twisted_conjugate
from .oracle import brute_min_length, cayley_ball
from .rootdata import DiagramAutomorphism


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
    from .oracle import brute_straight_check

    for key in sorted(ball.elements):
        w = ball.elements[key]
        got = is_straight(w)
        want = brute_straight_check(w, n_max)
        if got != want:
            failures.append({"w": w.to_json(), "is_straight": got, "power_test": want})
    return _report("straightness", datum, failures, len(ball.elements))


def verify_min(datum, max_len=8, oracle_radius=6):
    """reduce_to_min lands on the class minimum (oracle-conclusive cases)."""
    failures = []
    checked = 0
    inconclusive = 0
    for w in length_ball(datum, max_len):
        reduced = reduce_to_min(w)
        try:
            want = brute_min_length(w, oracle_radius)
        except Inconclusive:
            inconclusive += 1
            continue
        checked += 1
        if reduced.w_min.length != want:
            failures.append(
                {"w": w.to_json(), "reduced": reduced.w_min.length, "oracle": want}
            )
    return _report("min", datum, failures, checked, inconclusive=inconclusive)


def verify_straight_census(datum, max_len=2, expected=None):
    """enumerate_straight_classes against a frozen expected list."""
    classes = enumerate_straight_classes(datum, max_len)
    got = [cls.to_json() for cls in classes]
    failures = []
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
        closure = {w.key for w in approx_closure(members[0])}
        checked += 1
        for w in members[1:]:
            if w.key not in closure:
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
    """Dominant integral coweights with all simple pairings <= cap, found by
    scanning an integer coordinate box that surely contains them."""
    span = pairing_cap + 1
    out = []
    for coords in itertools.product(range(-4 * span, 4 * span + 1), repeat=datum.rank):
        if datum.is_dominant(coords) and all(
            linalg.vec_dot(a, coords) <= pairing_cap for a in datum.simple_roots
        ):
            out.append(tuple(coords))
    return sorted(out)


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
    """Wherever the superregular hypotheses hold, the closed formula agrees
    with the reduction recursion (checked through dim_Y_superregular's
    internal cross-check plus an explicit comparison)."""
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
            shifted = linalg.vec_add(cls.nu_bar, datum.two_rho_check)
            if not datum.dominance_leq(datum.dominant_rep(shifted), tuple(map(int, mu))):
                continue
            if shifted != datum.dominant_rep(shifted):
                continue
            gd = GammaDescriptor(cls, springer_dim=0)
            for x in w0:
                for y in w0:
                    checked += 1
                    closed = dim_Y_superregular(x, mu, y, gd, cross_check=False)
                    w = from_finite(x) * translation(datum, mu) * from_finite(y)
                    recursed = dim_Y_flag(w, gd)
                    if closed != recursed:
                        failures.append(
                            {
                                "x": list(x.word),
                                "mu": list(mu),
                                "y": list(y.word),
                                "class": cls.to_json(),
                                "closed": closed.to_json(),
                                "recursion": recursed.to_json(),
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


def _twisted_class(datum, w, delta):
    """Full twisted conjugacy class by closure under all twisted conjugations."""
    seen = {w.key: w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(datum.n_simple):
                v2 = twisted_conjugate(v, i, delta)
                if v2.key not in seen:
                    seen[v2.key] = v2
                    nxt.append(v2)
        frontier = nxt
    return list(seen.values())


def verify_finite_delta(datum, with_flip=None):
    """Exhaustive check that the twisted cyclic-shift walk reaches the true
    class minimum for every element of the finite Weyl group."""
    deltas = [DiagramAutomorphism.identity(datum.n_simple, datum.rank)]
    if with_flip is None:
        with_flip = datum.delta
    if with_flip is not None and not with_flip.is_identity:
        deltas.append(with_flip)
    failures = []
    checked = 0
    for delta in deltas:
        for w in enumerate_w0(datum):
            cls = _twisted_class(datum, w, delta)
            true_min = min(v.length for v in cls)
            o_min = {v.key for v in cls if v.length == true_min}
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
