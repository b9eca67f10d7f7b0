"""The min suite's rule: reduce_to_min's path is a chain of shifts s v s
from w to w_min, each replayed by affine products, and l(w_min) is at most
the oracle's ball minimum, which bounds the class minimum from above."""

from conftest import cartan_config

from weylcalc import build_root_datum, from_parts, reduce_to_min, simple_reflections, verify
from weylcalc.classes import ConjugationStep, MinimizationResult
from weylcalc.oracle import brute_min_length
from weylcalc.verify import min_failure, verify_min

# (lambda, 1-based word) of length 8: the radius-6 ball sees no conjugate
# shorter than 6, while reduce_to_min reaches length 4
F4_DEEP = [
    ((1, 2, 1, 0), (2, 1, 3, 2, 1, 3, 2, 4, 3, 2, 1, 3, 2, 3)),
    ((1, 2, 1, 1), (2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1)),
    ((2, 3, 2, 1), (1, 2, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2)),
    ((2, 3, 2, 1), (1, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2)),
]


def test_a_conjugator_outside_the_ball_is_no_failure():
    """The ball minimum is a bound, not the class minimum: on these F4
    elements reduce_to_min goes below it, and its path replays."""
    datum = build_root_datum(cartan_config("F4"))
    for lam, word in F4_DEEP:
        w = from_parts(datum, lam, [i - 1 for i in word])
        assert w.length == 8
        assert reduce_to_min(w).w_min.length == 4
        assert brute_min_length(w, 6) == 6
        assert min_failure(w, {}) is None


def _mutated_report(monkeypatch, mutate):
    """verify_min on a fresh Sp4 with each reduction of w made mutate(w, it)."""
    real = verify.reduce_to_min
    monkeypatch.setattr(verify, "reduce_to_min", lambda w, budget=None: mutate(w, real(w, budget)))
    report = verify_min(build_root_datum("Sp4"))
    assert report["checked"] == 97 and not report["passed"]
    return report["failures"]


def _with_path(result, path):
    return MinimizationResult(result.w_min, tuple(path), result.held)


def test_a_step_that_is_not_a_shift_fails(monkeypatch):
    def relabel(w, result):
        if not result.path:
            return result
        st = result.path[0]
        other = next(label for label, _ in simple_reflections(w.datum) if label != st.label)
        return _with_path(result, (ConjugationStep(other, st.before, st.after),) + result.path[1:])

    failures = _mutated_report(monkeypatch, relabel)
    assert all(f["reason"].endswith("is not s v s") for f in failures)


def test_a_path_with_a_gap_fails(monkeypatch):
    failures = _mutated_report(monkeypatch, lambda w, result: _with_path(result, result.path[1:]))
    assert all(f["reason"] == "the path is not a chain from w to w_min" for f in failures)


def test_a_w_min_longer_than_the_ball_minimum_fails(monkeypatch):
    failures = _mutated_report(monkeypatch, lambda w, result: MinimizationResult(w, (), result.held))
    assert failures and all(f["reduced"] > f["oracle"] for f in failures)
