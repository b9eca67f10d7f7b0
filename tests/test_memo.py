"""The per-datum memo tables: one Memo type behind every get-or-compute
table, its first-value-wins and raise-stores-nothing rules, its counters,
and no table kept any other way."""

import ast
import os
from types import SimpleNamespace

import pytest

import weylcalc
from weylcalc import affweyl, build_root_datum, cli, finiteweyl
from weylcalc.memo import Memo, memo, memoised


# The functions that take a budget and keep or read a table without
# memoised's held rule, each with its reason.
BUDGET_EXEMPT = {
    "classes.py:reduce_to_min":
        "its descend stop takes a held reduction only while the counts fit the budget, "
        "and the members of the minimal class a walk ends on are stored with |C| as held",
    "dims.py:dim_profile":
        "profiles are shared, so a stored profile holds no count (CHANGES FOUND)",
}

TABLES = {
    "fw_intern", "w0", "simple_reflections", "omega", "reduce_min", "ux", "length_ball",
    "levis", "superregular", "class_ids", "class_facts", "eta", "grass_max",
    "dim_x_flag", "oracle_ball", "cartan_inverse",
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


# fw_intern (hits, misses) after enumerate_w0, then after every move row's
# left and shifted, on a fresh datum
FW_INTERN_COUNTS = {"SL4": ((29, 24), (225, 24)), "Sp4": ((4, 8), (55, 8))}


@pytest.mark.parametrize("name", sorted(FW_INTERN_COUNTS))
def test_fw_intern_counts_every_probe(name):
    """Each product and each reflection probes the intern table once and
    counts a hit or a miss; the move rows' products all hit."""
    datum = build_root_datum(name)
    w0 = finiteweyl.enumerate_w0(datum)
    table = memo(datum, "fw_intern")
    counts = [(table.hits, table.misses)]
    for u in w0:
        for m in affweyl.move_row(u):
            m.left, m.shifted
    counts.append((table.hits, table.misses))
    assert tuple(counts) == FW_INTERN_COUNTS[name]
    assert len(table.table) == len(w0)


def test_memoised_without_key_keeps_one_value_per_datum():
    a, b = SimpleNamespace(_cache={}), SimpleNamespace(_cache={})
    count = iter(range(100))
    once = memoised("once")(lambda datum, cap=0: next(count))
    assert (once(a), once(a, cap=5), once(b)) == (0, 0, 1)


def _modules():
    src = os.path.dirname(weylcalc.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "memo.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _called(node):
    """The name a call node calls, plain or as an attribute."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_every_budgeted_memo_keeps_the_budget():
    """A function that takes a budget and is memoised passes held=, so a hit
    over the call's budget recomputes; one that reads a table directly, by
    memo() or an accessor returning memo(), is exempt by name with a reason."""
    modules = list(_modules())
    accessors = {"memo"} | {
        fn.name for _, tree in modules for fn in _functions(tree)
        if isinstance(fn.body[-1], ast.Return) and isinstance(fn.body[-1].value, ast.Call)
        and _called(fn.body[-1].value) == "memo" and len(fn.body) <= 2
    }
    assert "_dim_cache" in accessors
    found = set()
    for name, tree in modules:
        for fn in _functions(tree):
            if "budget" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
                continue
            without_held = any(
                isinstance(d, ast.Call) and _called(d) == "memoised"
                and "held" not in {k.arg for k in d.keywords}
                for d in fn.decorator_list
            )
            reads = any(isinstance(node, ast.Call) and _called(node) in accessors
                        for node in ast.walk(fn))
            if without_held or reads:
                found.add(f"{name}:{fn.name}")
    assert found == set(BUDGET_EXEMPT)


def test_only_the_memo_module_touches_the_datum_tables():
    found = []
    for name, tree in _modules():
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
