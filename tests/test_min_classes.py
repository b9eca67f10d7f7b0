"""A reduce_to_min walk that ends on its own final level has explored the
whole minimal shift class C it lands in, and records every member v of C
as (v, (), |C|): each member is then answered without a walk, exactly as
a fresh datum answers it, and a budget under |C| still raises as there."""

import pytest
from conftest import cartan_config

from weylcalc import build_root_datum, classes, length_ball, reduce_to_min
from weylcalc.affweyl import low_shifts
from weylcalc.errors import ExplorationBudgetExceeded
from weylcalc.search import descend

BOUND = 6


def _datum(name):
    return build_root_datum(name if name == "SL4" else cartan_config(name))


def _walk(name):
    """w and the final level of its plain walk, for the ball element w whose
    walk descends at least once and ends on the largest minimal class."""
    best = None
    for w in length_ball(_datum(name), BOUND):
        _, steps, _, level = descend(w, low_shifts, None, "cyclic-shift search")
        if steps and (best is None or len(level) > len(best[1])):
            best = w, level
    return best


def _result(r):
    return r.w_min.key, [(st.label, st.before.key, st.after.key) for st in r.path], r.held


def _overrun(call):
    with pytest.raises(ExplorationBudgetExceeded) as info:
        call()
    exc = info.value
    return exc.what, exc.held, exc.budget, exc.start.key


def _fresh(name, key):
    """The element of a fresh datum with this key."""
    return {v.key: v for v in length_ball(_datum(name), BOUND)}[key]


@pytest.mark.parametrize("name", ["SL4", "G2"])
def test_a_walk_records_its_minimal_class(name, monkeypatch):
    w, level = _walk(name)
    size = len(level)
    assert size >= 2 and w.key not in level
    fresh = {key: _result(reduce_to_min(_fresh(name, key))) for key in level}
    overruns = {key: _overrun(lambda: reduce_to_min(_fresh(name, key), size - 1)) for key in level}

    reduce_to_min(w)

    def walked(*args, **kwargs):
        raise AssertionError("a member of the class was walked")

    with monkeypatch.context() as patch:
        patch.setattr(classes, "descend", walked)
        for key, (v, _) in level.items():
            got = reduce_to_min(v)
            assert (got.w_min.key, got.path, got.held) == (key, (), size)
            assert _result(got) == fresh[key]
    for key, (v, _) in level.items():
        assert _overrun(lambda: reduce_to_min(v, size - 1)) == overruns[key]
