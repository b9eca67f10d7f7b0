"""A budget overrun carries the search's name, what it held and its budget."""

import pytest

from weylcalc import build_root_datum, cayley_ball, from_parts, reduce_to_min
from weylcalc.errors import ExplorationBudgetExceeded


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
