"""A budget overrun carries the search's name, what it held and its budget."""

import pytest

from weylcalc import build_root_datum, from_parts, reduce_to_min
from weylcalc.errors import ExplorationBudgetExceeded


def test_overrun_carries_its_numbers():
    # a translation: minimal length, with a shift class of several elements
    w = from_parts(build_root_datum("SL3"), (3, 3), [])
    with pytest.raises(ExplorationBudgetExceeded) as info:
        reduce_to_min(w, budget=3)
    exc = info.value
    assert (exc.what, exc.held, exc.budget) == ("cyclic-shift search", 4, 3)
    assert str(exc) == "cyclic-shift search exceeded its budget of 3 elements"
