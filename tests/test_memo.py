"""The per-datum memo tables: one Memo type behind every get-or-compute
table, its first-value-wins and raise-stores-nothing rules, its counters,
and no table kept any other way."""

import ast
import os
from types import SimpleNamespace

import pytest

import weylcalc
from weylcalc import build_root_datum, cli
from weylcalc.memo import Memo, memo, memoised


TABLES = {
    "fw_intern", "w0", "simple_reflections", "omega", "reduce_min", "spherical_subsets",
    "affine_diagram", "ux", "straight_class", "length_ball", "straight_classes",
    "levi_groups", "class_facts", "eta", "grass_max", "dim_x_flag", "oracle_ball",
}


def test_every_table_is_a_memo_after_the_cli_commands(tmp_path, monkeypatch, capsys):
    datum = build_root_datum("SL3")
    monkeypatch.setattr(cli, "_load_datum", lambda spec: datum)
    assert cli.main(["verify", "--suite", "all", "--group", "SL3"]) == 0
    out = str(tmp_path / "table.csv")
    assert cli.main(
        ["table", "--group", "SL3", "--max-length", "4", "--class-length", "4",
         "--format", "csv", "--out", out]
    ) == 0
    assert cli.main(
        ["dim", "x-flag", "--group", "SL3", "--w", '{"lambda":[1,0],"word":[1,2]}',
         "--class", '{"kappa":[0,0],"nu":[0,0]}']
    ) == 0
    assert cli.main(
        ["classes", "ux", "--group", "SL3", "--w", '{"lambda":[1,0],"word":[1,2]}']
    ) == 0
    capsys.readouterr()
    assert set(datum._cache) == TABLES
    assert {name: type(table) for name, table in datum._cache.items()
            if not isinstance(table, Memo)} == {}


def test_put_keeps_the_first_value():
    table = Memo()
    assert table.put("k", 1) == 1
    assert table.put("k", 2) == 1
    assert table.table == {"k": 1}


def test_a_raising_compute_stores_nothing():
    datum = SimpleNamespace(_cache={})
    calls = []

    @memoised("flaky", key=lambda datum, x: x)
    def flaky(datum, x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return {}

    with pytest.raises(ValueError):
        flaky(datum, 3)
    assert memo(datum, "flaky").table == {}
    # a falsy result is stored and then served
    assert flaky(datum, 3) == {} and flaky(datum, 3) == {}
    assert calls == [3, 3]


def test_memoised_counts_hits_and_misses_on_the_datum_of_an_element():
    datum = SimpleNamespace(_cache={})
    elts = [SimpleNamespace(datum=datum, key=k) for k in (1, 2, 1, 1, 2, 3)]

    @memoised("double", key=lambda w: w.key)
    def double(w):
        """Twice the key."""
        return 2 * w.key

    assert [double(w) for w in elts] == [2, 4, 2, 2, 4, 6]
    table = datum._cache["double"]
    assert (table.hits, table.misses) == (3, 3)
    assert table.table == {1: 2, 2: 4, 3: 6}
    assert double.__name__ == "double" and double.__doc__ == "Twice the key."


def test_memoised_without_key_keeps_one_value_per_datum():
    a, b = SimpleNamespace(_cache={}), SimpleNamespace(_cache={})
    count = iter(range(100))
    once = memoised("once")(lambda datum, cap=0: next(count))
    assert (once(a), once(a, cap=5), once(b)) == (0, 0, 1)


def test_only_the_memo_module_touches_the_datum_tables():
    src = os.path.dirname(weylcalc.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "memo.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        scopes = [(name, tree)]
        while scopes:
            where, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((f"{where}:{child.name}", child))
                else:
                    if isinstance(child, ast.Attribute) and child.attr == "_cache":
                        found.append(where)
                    scopes.append((where, child))
    assert found == ["rootdata.py:RootDatum:__init__"]
