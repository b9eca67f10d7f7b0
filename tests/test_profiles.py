"""Dimension profiles: one reduction recursion per element for every class,
the per-element eta memo, the persisted profile memo (format 2), table
output frozen from the per-(element, class) recursion and row writer that
preceded them, and table rows built from per-element and per-class parts."""

import hashlib
import json
import os

import pytest
from conftest import dim_max, shift_witnesses

from weylcalc import (
    EMPTY,
    InternalAssertion,
    NonIntegralHalf,
    build_root_datum,
    dim_X_flag,
    enumerate_straight_classes,
    finite,
    from_parts,
    length_ball,
    straight_class_of,
    virtual_dimension,
)
from weylcalc import dims
from weylcalc.classes import _class_of, ux_decompose
from weylcalc.affweyl import eta_decomposition
from weylcalc.cli import UsageError, emit_table, main
from weylcalc.dims import _dim_cache, dim_profile, load_cache, save_cache
from weylcalc.linalg import format_fraction
from weylcalc.memo import memo
from weylcalc.rootdata import PRESETS

# SHA-256 of `weylcalc table --format csv` for (group, --max-length,
# --class-length), generated by the per-(element, class) recursion.
FROZEN_TABLES = [
    ("PGL2", 8, 4, "9c6408c8027f15eb706088daf2926afac4fcfde573ef65897fa4154a0a2fdb65"),
    ("SL3", 6, 4, "e25af3ad2048ef58bbc075cd4fd06af033c138666e9e556fd66e4fa8df042145"),
    ("Sp4", 5, 4, "3719a093c1965c6871561aace6df4806fa1af742b58abede6aeff99cc67a5e8d"),
    ("PGL3", 6, 3, "37a1871c32fc250a43753aca7e77abf0b719894047c8d157763c3b18ae72e48c"),
]


# SHA-256 of `weylcalc table --format json` for the same triples, generated by
# the per-(element, class) table writer, which printed the whole document
# with json.dumps(indent=2, sort_keys=True).
FROZEN_JSON_TABLES = [
    ("PGL2", 8, 4, "259a30444d4e8d6abea58aa173f40c0621797c91c91a3f248d7a2abb3a1e43e7"),
    ("SL3", 6, 4, "a6fce6df19150c9efedf8c6b5fc9de35ad6e7d019ae7dcc4021b7c3f96d0c21c"),
    ("Sp4", 5, 4, "88b3afc74836299a1b1f588a28a6eccf5cb881c9255e3fa99972d79c636d3bd7"),
    ("PGL3", 6, 3, "a7db160942d7aa508f37f7ff8ff0e7a37cadfbbc7294f6daba52bf8c3fadb312"),
]


def _table_digests(tmp_path, group, max_length, class_length, fmt):
    """SHA-256 of the cold and the warm table, sharing one cache directory."""
    digests = []
    for phase in ("cold", "warm"):
        out = tmp_path / f"{phase}.{fmt}"
        code = main(
            [
                "table",
                "--group", group,
                "--max-length", str(max_length),
                "--class-length", str(class_length),
                "--format", fmt,
                "--out", str(out),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    return digests


@pytest.mark.parametrize("group,max_length,class_length,digest", FROZEN_JSON_TABLES)
def test_json_table_output_matches_frozen_digest(tmp_path, capsys, group, max_length, class_length, digest):
    assert _table_digests(tmp_path, group, max_length, class_length, "json") == [digest, digest]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("group,max_length,class_length,digest", FROZEN_TABLES)
def test_table_output_matches_frozen_digest(tmp_path, capsys, group, max_length, class_length, digest):
    cache_dir = tmp_path / "cache"
    for phase in ("cold", "warm"):
        out = tmp_path / f"{phase}.csv"
        code = main(
            [
                "table",
                "--group", group,
                "--max-length", str(max_length),
                "--class-length", str(class_length),
                "--format", "csv",
                "--out", str(out),
                "--cache-dir", str(cache_dir),
            ]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, phase
    assert capsys.readouterr().err == ""


def _reference_dim(w, cls, memo):
    """The per-class reduction recursion, written out directly: the first
    witness of the shift-class search, 1 + max over its two children, and
    at a minimal element l(u) for the class of x, Empty for any other."""
    if w.key in memo:
        return memo[w.key]
    _, witnesses = shift_witnesses(w)
    if witnesses:
        v, s = witnesses[0]
        result = dim_max(_reference_dim(s * v, cls, memo), _reference_dim(s * v * s, cls, memo)).plus(1)
    else:
        dec = ux_decompose(w, check_minimal=False)
        result = finite(dec.u.length) if _class_of(dec.x) == cls else EMPTY
    memo[w.key] = result
    return result


@pytest.mark.parametrize("group,max_length,class_length", [("SL3", 5, 4), ("Sp4", 4, 4), ("PGL3", 4, 3)])
def test_profile_agrees_with_per_class_recursion(group, max_length, class_length):
    datum = build_root_datum(group)
    classes = enumerate_straight_classes(datum, class_length)
    memos = {cls: {} for cls in classes}
    for w in length_ball(datum, max_length):
        for cls in classes:
            assert dim_X_flag(w, cls) == _reference_dim(w, cls, memos[cls]), (w, cls)


def test_witness_disagreement_raises():
    datum = build_root_datum("SL3")
    bogus_class = dims._class_id(datum, ((99, 99), ()))
    for w in length_ball(datum, 6):
        _, witnesses = shift_witnesses(w)
        if len(witnesses) < 2:
            continue
        (v1, s1), (v2, s2) = witnesses
        second = {(s2 * v2).key, (s2 * v2 * s2).key}
        if (s1 * v1).key not in second:
            break
    else:
        pytest.fail("no element with two witnesses whose children differ")
    # poison one child of the first witness only
    _dim_cache(datum).table[(s1 * v1).key] = {bogus_class: 10**6}
    with pytest.raises(InternalAssertion, match="depends on the chosen witness"):
        dim_profile(w)


def test_deep_element_needs_no_recursion_limit(capsys):
    # l(w) = 1999: far deeper than Python's default recursion limit allows
    code = main(
        [
            "dim", "x-flag",
            "--group", "SL2",
            "--w", '{"lambda":[1000],"word":[1]}',
            "--class", '{"kappa":[0],"nu":["0"]}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    doc = json.loads(captured.out)
    assert doc["nonempty"] and doc["dim"] <= doc["virtual_dim"]


def test_eta_memoised_per_element():
    """One class's virtual dimension walks w's eta decomposition; every
    other class reads it back from the eta table."""
    datum = build_root_datum("SL3")
    classes = enumerate_straight_classes(datum, 4)
    w = from_parts(datum, (2, 1), [0, 1])
    for cls in classes:
        try:
            virtual_dimension(w, cls)
        except NonIntegralHalf:
            pass
    table = memo(datum, "eta")
    assert (list(table.table), table.misses, table.hits) == ([w.key], 1, len(classes) - 1)


def _reference_virtual_dim(w, cls):
    """(l(w) + l(eta(w)) - def - l(C)) / 2, None when that is not an integer."""
    num = w.length + eta_decomposition(w).eta.length - cls.defect - cls.length
    return None if num % 2 else num // 2


def _table_rows(text, fmt):
    """(lambda, word, kappa, nu, virtual_dim) of every row of a printed table."""
    if fmt == "json":
        return [(r["lambda"], r["word"], r["kappa"], r["nu"], r["virtual_dim"])
                for r in json.loads(text)["rows"]]
    rows = []
    for line in text.splitlines()[1:]:
        lam, word, _, kappa, nu, _, _, vd = line.split(";")
        ints = [[int(x) for x in field.split("|") if x] for field in (lam, word, kappa)]
        rows.append((*ints, nu.split("|"), int(vd) if vd else None))
    return rows


def test_table_virtual_dim_column_matches_the_formula(capsys):
    odd = 0
    for group in PRESETS:
        datum = build_root_datum(group)
        classes = {
            (tuple(c.kappa), tuple(format_fraction(x) for x in c.nu_bar)): c
            for c in enumerate_straight_classes(datum, 4)
        }
        for fmt in ("json", "csv"):
            argv = ["table", "--group", group, "--max-length", "3", "--class-length", "4"]
            assert main([*argv, "--format", fmt]) == 0
            rows = _table_rows(capsys.readouterr().out, fmt)
            assert len(rows) == len(length_ball(datum, 3)) * len(classes)
            for lam, word, kappa, nu, vd in rows:
                w = from_parts(datum, lam, [i - 1 for i in word])
                cls = classes[tuple(kappa), tuple(nu)]
                assert vd == _reference_virtual_dim(w, cls), (group, fmt, w, cls)
                odd += vd is None
    assert odd > 0  # an odd numerator prints as an empty field or null


def test_table_computes_each_part_once(monkeypatch, capsys):
    datum = build_root_datum("SL3")
    classes = enumerate_straight_classes(datum, 4)
    ball = length_ball(datum, 4)
    etas = []
    original = dims.eta_decomposition

    def counting(w):
        etas.append(w.key)
        return original(w)

    def per_pair(w, cls):
        raise AssertionError("the table called virtual_dimension")

    monkeypatch.setattr(dims, "eta_decomposition", counting)
    monkeypatch.setattr(dims, "virtual_dimension", per_pair)
    facts = memo(datum, "class_facts")
    emit_table(datum, 4, classes, fmt="csv")
    assert (facts.misses, facts.hits) == (len(classes), 0)
    assert sorted(etas) == sorted(w.key for w in ball)
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(ball) * len(classes)


def test_a_bad_table_format_is_refused_before_any_work(monkeypatch):
    datum = build_root_datum("SL3")
    classes = enumerate_straight_classes(datum, 4)

    def no_profile(w, budget=None):
        raise AssertionError("dim_profile ran before the format was checked")

    monkeypatch.setattr(dims, "dim_profile", no_profile)
    with pytest.raises(UsageError, match="unknown table format 'xml'"):
        emit_table(datum, 4, classes, fmt="xml")


def test_census_on_a_used_datum_equals_a_fresh_one(sl3):
    """The census keeps no memo and reads none, so a second run on a used
    datum equals the first and a run on a fresh one."""
    first = enumerate_straight_classes(sl3, 4)
    assert enumerate_straight_classes(sl3, 4) == first
    assert enumerate_straight_classes(build_root_datum("SL3"), 4) == first


# -- persistence, format 2 ------------------------------------------------------------


def _filled(group="SL3", max_len=4):
    datum = build_root_datum(group)
    classes = enumerate_straight_classes(datum, 4)
    elements = length_ball(datum, max_len)
    for w in elements:
        dim_X_flag(w, classes[0])
    return datum, classes, elements


def test_cache_round_trip_one_entry_per_element(tmp_path, capsys):
    datum, classes, elements = _filled()
    path = save_cache(datum, str(tmp_path))
    assert os.listdir(tmp_path) == [os.path.basename(path)]  # no temp file left
    payload = json.loads(open(path, encoding="utf-8").read())
    assert payload["version"] == 2
    table = _dim_cache(datum).table
    assert len(payload["elements"]) == len(table)

    fresh = build_root_datum("SL3")
    assert load_cache(fresh, str(tmp_path)) == len(table)
    cache = _dim_cache(fresh)
    for w in elements:
        for cls in classes:
            assert dim_X_flag(from_parts(fresh, w.lam, w.fw.word), cls) == dim_X_flag(w, cls)
    assert cache.misses == 0 and cache.hits == len(elements) * len(classes)
    # saving what was loaded writes the same file
    assert open(save_cache(fresh, str(tmp_path)), "rb").read() == open(path, "rb").read()
    assert capsys.readouterr().err == ""


def test_truncated_cache_loads_nothing(tmp_path, capsys):
    datum, _, _ = _filled()
    path = save_cache(datum, str(tmp_path))
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    fresh = build_root_datum("SL3")
    assert load_cache(fresh, str(tmp_path)) == 0
    assert _dim_cache(fresh).table == {}
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ignoring unreadable cache" in err


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: p["elements"][0].__setitem__(2, 10**6),  # no such profile
        lambda p: p["profiles"][0][0].__setitem__(1, -1),  # negative dimension
        lambda p: p["profiles"][0][0].__setitem__(1, 1.5),  # not an integer
        lambda p: p["classes"][0].__setitem__(1, ["1/0"] * 2),  # not a rational
        lambda p: p.pop("elements"),
    ],
)
def test_malformed_cache_loads_nothing(tmp_path, capsys, mangle):
    datum, _, _ = _filled()
    path = save_cache(datum, str(tmp_path))
    payload = json.loads(open(path, encoding="utf-8").read())
    mangle(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    fresh = build_root_datum("SL3")
    assert load_cache(fresh, str(tmp_path)) == 0
    assert _dim_cache(fresh).table == {}
    assert capsys.readouterr().err.count("\n") == 1


def test_version_1_cache_is_ignored(tmp_path, capsys):
    datum = build_root_datum("SL2")
    basic = straight_class_of(from_parts(datum, (0,), []))
    path = tmp_path / f"dimx-{datum.hash_hex[:16]}.json"
    entry = {"lambda": [2], "matrix": [[-1]], "kappa": [0], "nu": ["0"], "dim": 9}
    path.write_text(json.dumps({"version": 1, "datum": datum.hash_hex, "entries": [entry]}))
    assert load_cache(datum, str(tmp_path)) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "format version 1" in err
    assert dim_X_flag(from_parts(datum, (2,), [0]), basic) == finite(2)
