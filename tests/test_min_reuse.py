"""reduce_to_min ends its walk at a reduction the reduce_min table already
holds: the path is that of a plain descend, and the budget is as exact as a
cold walk's."""

import pytest
from conftest import cartan_config

from weylcalc import build_root_datum, classes, length_ball, reduce_to_min
from weylcalc.affweyl import low_shifts
from weylcalc.errors import ExplorationBudgetExceeded
from weylcalc.rootdata import PRESETS
from weylcalc.search import descend

# the length bound of the ball walked, by rank
BOUND = {1: 12, 2: 8, 3: 6}
WHAT = "cyclic-shift search"


def _datum(name):
    return build_root_datum(name if name in PRESETS else cartan_config(name))


def _overrun(call):
    with pytest.raises(ExplorationBudgetExceeded) as info:
        call()
    exc = info.value
    return exc.what, exc.held, exc.budget, exc.start.key


def _keys(steps):
    return [(label, before.key, after.key) for label, before, after in steps]


@pytest.mark.parametrize("name", sorted(PRESETS) + ["B3", "C3", "G2"])
def test_reuse_walks_the_plain_descent(name, monkeypatch):
    """On the length ball in (length, key) order, every reduction is a
    plain descend's on a fresh datum, the reuse path is taken, a budget of
    the walk's total passes and one less raises the fresh walk's overrun."""
    datum, fresh = _datum(name), _datum(name)
    reused = set()  # (start key, budget) of the walks a stop lookup ended

    def watched(start, moves, budget, what, stop=None):
        def spy(v):
            known = stop(v)
            if known is not None:
                reused.add((start.key, budget))
            return known

        return descend(start, moves, budget, what, spy)

    monkeypatch.setattr(classes, "descend", watched)
    ball, plain_ball = length_ball(datum, BOUND[datum.rank]), length_ball(fresh, BOUND[fresh.rank])
    taken = 0
    for w, v in zip(ball, plain_ball):
        assert w.key == v.key
        w_min, steps, total, _ = descend(v, low_shifts, None, WHAT)
        assert _overrun(lambda: reduce_to_min(w, total - 1)) == _overrun(
            lambda: descend(v, low_shifts, total - 1, WHAT))
        got = reduce_to_min(w, total)
        assert got.held == total
        assert got.w_min.key == w_min.key
        assert [(st.label, st.before.key, st.after.key) for st in got.path] == _keys(steps)
        taken += (w.key, total) in reused
    assert taken
