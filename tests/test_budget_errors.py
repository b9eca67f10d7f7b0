"""A budget overrun carries the search's name, what it held, its budget and,
for a search of the kernel, the element it began from."""

import pytest
from conftest import cartan_config

from weylcalc import (
    build_root_datum,
    cayley_ball,
    enumerate_straight_classes,
    from_parts,
    length_ball,
    omega_elements,
    reduce_to_min,
    ux_decompose,
)
from weylcalc.affweyl import low_shifts
from weylcalc.dims import _shift_descents
from weylcalc.errors import ExplorationBudgetExceeded, GroupTooLarge
from weylcalc.finiteweyl import enumerate_w0
from weylcalc.search import explore_level


def test_overrun_carries_its_numbers():
    # a translation: minimal length, with a shift class of several elements
    w = from_parts(build_root_datum("SL3"), (3, 3), [])
    with pytest.raises(ExplorationBudgetExceeded) as info:
        reduce_to_min(w, budget=3)
    exc = info.value
    assert (exc.what, exc.held, exc.budget) == ("cyclic-shift search", 4, 3)
    assert str(exc) == "cyclic-shift search exceeded its budget of 3 elements"


@pytest.mark.parametrize(
    "name, radius, cap, held",
    [
        ("SL3", 2, 3, 4),  # the identity and SL3's three generators at radius 1
        ("PGL2", 0, 1, 2),  # the identity and its length-zero translate
    ],
    ids=["bfs-level", "length-zero-translate"],
)
def test_cayley_ball_overrun_carries_its_numbers(name, radius, cap, held):
    with pytest.raises(ExplorationBudgetExceeded) as info:
        cayley_ball(build_root_datum(name), radius, cap=cap)
    exc = info.value
    assert (exc.what, exc.held, exc.budget) == ("Cayley ball", held, cap)
    assert str(exc) == f"Cayley ball exceeded {cap} nodes"


def test_a_kernel_overrun_carries_its_start():
    datum = build_root_datum("PGL2")
    w = from_parts(datum, (3,), [])
    with pytest.raises(ExplorationBudgetExceeded) as info:
        _shift_descents(w, budget=1)
    assert info.value.start is w
    # the length ball's first seed: the first length-zero element, the identity
    with pytest.raises(ExplorationBudgetExceeded) as info:
        length_ball(datum, 3, budget=2)
    assert info.value.start.key == omega_elements(datum)[0].key
    assert info.value.start.is_identity
    with pytest.raises(ExplorationBudgetExceeded) as info:
        cayley_ball(datum, 0, cap=1)
    assert info.value.start is None


def test_a_descent_overrun_carries_its_original_start():
    # w's own level finds a descent within the budget; the next level down
    # overruns it, and the start is still w
    w = from_parts(build_root_datum("SL3"), (0, 0), [0, 1, 0])
    explore_level(w, low_shifts, 1, "cyclic-shift search")
    with pytest.raises(ExplorationBudgetExceeded) as info:
        reduce_to_min(w, budget=1)
    exc = info.value
    assert exc.held == 2 and exc.start is w
    assert str(exc) == "cyclic-shift search exceeded its budget of 1 elements"


@pytest.mark.parametrize("name, max_len", [("SL3", 40), ("Sp4", 30), ("PGL3", 20)])
def test_census_counts_its_classes_against_the_budget(name, max_len):
    size = len(enumerate_straight_classes(build_root_datum(name), max_len))
    assert len(enumerate_straight_classes(build_root_datum(name), max_len, budget=size)) == size
    with pytest.raises(ExplorationBudgetExceeded) as info:
        enumerate_straight_classes(build_root_datum(name), max_len, budget=size - 1)
    exc = info.value
    assert (exc.what, exc.budget, exc.start) == ("straight-class census", size - 1, None)
    assert size - 1 < exc.held <= size


def _datum(name):
    return build_root_datum(cartan_config(name) if name == "G2" else name)


def _numbers(exc):
    start = exc.start if exc.start is None else exc.start.key
    return exc.what, exc.held, exc.budget, start


def _raised(call):
    with pytest.raises(ExplorationBudgetExceeded) as info:
        call()
    return _numbers(info.value)


def _least_budget(name, search):
    """The smallest budget a fresh datum passes.  A run under any budget
    between one that raised and the count it held raises at the same
    point, so the next budget tried is that count."""
    budget = 0
    while True:
        try:
            search(_datum(name), budget)
            return budget
        except ExplorationBudgetExceeded as exc:
            budget = exc.held


def _census(max_len):
    return lambda datum, budget=None: enumerate_straight_classes(datum, max_len, budget)


def _ux(datum, budget=None):
    return ux_decompose(from_parts(datum, (-2, -2), []), budget, check_minimal=False)


@pytest.mark.parametrize(
    "name, search, stored, kept",
    [
        ("SL3", lambda datum, budget=None: length_ball(datum, 6, budget),
         lambda datum: len(length_ball(datum, 6)), True),
        # the census keeps no memo: its stored count is what a fresh datum needs
        ("SL3", _census(40), lambda datum: _least_budget("SL3", _census(40)), False),
        # G2's census at 3 holds 2 classes, one read off a non-straight Levi
        # representative with no walk, so only the class count meets the budget
        ("G2", _census(3), lambda datum: _least_budget("G2", _census(3)), False),
        ("SL3", lambda datum, budget=None: reduce_to_min(from_parts(datum, (3, 3), []), budget),
         lambda datum: reduce_to_min(from_parts(datum, (3, 3), [])).held, True),
        # a translation, whose shift class holds 6 elements
        ("SL3", _ux, lambda datum: _ux(datum).held, True),
    ],
    ids=["length-ball", "census", "census-levi-walk", "reduce-to-min", "ux"],
)
def test_a_memo_hit_keeps_the_budget(name, search, stored, kept):
    """After a large call, a smaller budget on the same datum raises what it
    raises on a fresh datum, and a budget equal to the stored count is
    served, from the memo where the search keeps one."""
    datum = _datum(name)
    big = search(datum)
    held = stored(datum)
    for budget in sorted({0, 1, held // 2, held - 1}):
        assert _raised(lambda: search(datum, budget)) == _raised(
            lambda: search(_datum(name), budget))
    served = search(datum, held)
    assert served is big if kept else served == big


def test_a_used_datum_keeps_the_w0_cap():
    datum = _datum("SL3")
    assert len(enumerate_w0(datum)) == 6
    for cap in (1, 5):
        with pytest.raises(GroupTooLarge, match=f"exceeds cap {cap}"):
            enumerate_w0(datum, cap=cap)
        with pytest.raises(GroupTooLarge, match=f"exceeds cap {cap}"):
            enumerate_w0(_datum("SL3"), cap=cap)
    assert enumerate_w0(datum, cap=6) == enumerate_w0(datum)
