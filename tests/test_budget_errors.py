"""A budget overrun carries the search's name, what it held, its budget and,
for a search of the kernel, the element it began from."""

import pytest

from weylcalc import (
    build_root_datum,
    cayley_ball,
    enumerate_straight_classes,
    from_parts,
    length_ball,
    omega_elements,
    reduce_to_min,
)
from weylcalc.affweyl import low_shifts
from weylcalc.dims import _shift_descents
from weylcalc.errors import ExplorationBudgetExceeded
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
