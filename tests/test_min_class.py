"""The min_class table: a reduce_to_min walk that ends on its own final
level stores that minimal shift class once, and approx_closure and the
dimension recursion read it instead of walking the class again, with the
same answers and the same budget refusals as on a fresh datum."""

import pytest
from conftest import cartan_config

from weylcalc import build_root_datum, from_parts, length_ball, reduce_to_min, ux_decompose
from weylcalc import classes, dims
from weylcalc.classes import approx_closure
from weylcalc.dims import dim_profile
from weylcalc.errors import ExplorationBudgetExceeded
from weylcalc.memo import memo
from weylcalc.rootdata import PRESETS

# (config, lam, 0-based word) of an element whose walk descends once onto
# a minimal shift class of 4 members
WALKS = {
    "SL4": ("SL4", (-1, 0, 0), [1, 0, 2]),
    "G2": (cartan_config("G2"), (0, -1), [0]),
}


def _walked(name):
    """A fresh datum after one reduce_to_min walk, and the class it stored."""
    config, lam, word = WALKS[name]
    datum = build_root_datum(config)
    w = from_parts(datum, lam, word)
    reduced = reduce_to_min(w)
    assert reduced.path and reduced.w_min.length < w.length
    members = memo(datum, "min_class").table[reduced.w_min.key]
    return datum, members


def _fresh(name, v):
    """v on a fresh datum of the same config."""
    return from_parts(build_root_datum(WALKS[name][0]), v.lam, v.fw.word)


def _by_pair(datum, profile):
    """A profile with its class ids read back as class pair keys."""
    pairs = {cid: pair for pair, cid in memo(datum, "class_ids").table.items()}
    return {pairs[cid]: d for cid, d in profile.items()}


def _raised(call):
    with pytest.raises(ExplorationBudgetExceeded) as info:
        call()
    exc = info.value
    return exc.what, exc.held, exc.budget, exc.start.key


@pytest.mark.parametrize("name", sorted(WALKS))
def test_the_walk_stores_its_class_once(name):
    datum, members = _walked(name)
    assert len(members) >= 4
    assert [v.key for v in members] == sorted(v.key for v in members)
    table = memo(datum, "min_class").table
    assert all(table[v.key] is members for v in members)
    assert len(table) == len(members)
    reduce_min = memo(datum, "reduce_min").table
    assert all((reduce_min[v.key].w_min, reduce_min[v.key].path, reduce_min[v.key].held)
               == (v, (), len(members)) for v in members)


@pytest.mark.parametrize("name", sorted(WALKS))
def test_a_stored_class_is_read_not_walked(name, monkeypatch):
    """approx_closure and dim_profile of every member start no closure and
    explore no level on the walked datum, and answer as a fresh datum does."""
    datum, members = _walked(name)
    walked = []

    def closure(seeds, *args, **kwargs):
        walked.extend(w.key for w in seeds if w.datum is datum)
        return search_closure(seeds, *args, **kwargs)

    def explore_level(start, *args, **kwargs):
        if start.datum is datum:
            walked.append(start.key)
        return search_explore(start, *args, **kwargs)

    search_closure, search_explore = classes.closure, dims.explore_level
    monkeypatch.setattr(classes, "closure", closure)
    monkeypatch.setattr(dims, "explore_level", explore_level)
    for v in members:
        closed = approx_closure(v)
        profile = dim_profile(v)
        fresh = _fresh(name, v)
        assert [u.key for u in closed] == [u.key for u in approx_closure(fresh)]
        assert _by_pair(datum, profile) == _by_pair(fresh.datum, dim_profile(fresh))
    assert walked == []


@pytest.mark.parametrize("name", sorted(WALKS))
def test_a_stored_class_over_the_budget_raises_as_on_a_fresh_datum(name):
    datum, members = _walked(name)
    budget = len(members) - 1
    for v in members:
        fresh = _fresh(name, v)
        for search in (approx_closure, dim_profile):
            assert _raised(lambda: search(v, budget)) == _raised(lambda: search(fresh, budget))


def _grouping(datum):
    """The profile table by key, with class pair keys, and its keys grouped
    by profile object."""
    table = memo(datum, "dim_x_flag").table
    groups = {}
    for key, profile in table.items():
        groups.setdefault(id(profile), set()).add(key)
    profiles = {key: _by_pair(datum, profile) for key, profile in table.items()}
    return profiles, {frozenset(keys) for keys in groups.values()}


BOUNDS = {1: 8, 2: 6, 3: 5}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_the_profile_table_is_the_same_after_the_class_walks(name):
    """The walks of a query before dim_profile change neither the profile
    table's keys and values nor which keys share a profile."""
    chained, alone = build_root_datum(name), build_root_datum(name)
    bound = BOUNDS[chained.rank]
    for w in length_ball(chained, bound):
        reduced = reduce_to_min(w)
        ux_decompose(reduced.w_min, check_minimal=False)
        dim_profile(w)
    for w in length_ball(alone, bound):
        dim_profile(w)
    assert memo(chained, "min_class").table
    assert _grouping(chained) == _grouping(alone)
