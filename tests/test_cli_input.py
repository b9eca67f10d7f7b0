"""CLI input parsing: every malformed input gives exit 1 and one stderr
line, never a traceback, and nothing is truncated into a valid input."""

import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import weylcalc
from weylcalc.cli import CACHE_ENV, main

W = '{"lambda":[0],"word":[1]}'
BAD_INPUTS = [
    ("dim", "x-flag", "--group", "SL2", "--w", W, "--class", '{"kappa":[0],"nu":["1/0"]}'),
    ("dim", "x-flag", "--group", "SL2", "--w", W, "--class", '{"kappa":[true],"nu":[0]}'),
    ("dim", "y-flag", "--group", "SL2", "--w", W, "--class", '{"kappa":[0],"nu":[0]}', "--d", "1"),
    ("dim", "y-flag", "--group", "SL2", "--w", W, "--class", '{"kappa":[0],"nu":[0]}',
     "--springer-dim", "5", "--d", "1", "--c", "1"),
    ("dim", "y-gr", "--group", "PGL2", "--mu", "1", "--class", '{"kappa":[1],"nu":[0]}',
     "--d", "1", "--c", "1"),
    ("dim", "x-gr", "--group", "PGL2", "--mu", "1/2", "--class", '{"kappa":[1],"nu":[0]}'),
    ("table", "--group", "SL2", "--max-length", "2", "--classes", '[{"kappa":[0]}]'),
    ("table", "--group", "SL2", "--max-length", "2", "--classes", '{"kappa":[0],"nu":[0]}'),
    ("classes", "min", "--group", "SL2", "--w", '{"lambda":[0.5],"word":[1]}'),
    ("classes", "min", "--group", "SL2", "--w", '{"lambda":[0],"word":[1.7]}'),
    ("classes", "min", "--group", "SL2", "--w", '[1]'),
    ("classes", "min", "--group", "SL2", "--w", "[" * 100_000),
    ("classes", "p-alcove", "--group", "SL2", "--w", W, "--nu", "1/0"),
    ("classes", "min", "--group", "SL2", "--w", '{"lambda":[0],"word":[2]}'),
    # a letter above the rank is refused like one below 1
    ("finite", "reduce", "--group", "SL3", "--word", "9"),
    ("finite", "supp", "--group", "SL3", "--word", "3"),
    ("dim", "y-super", "--group", "SL3", "--mu", "2,2", "--x-word", "9",
     "--class", '{"kappa":[0,0],"nu":[0,0]}', "--springer-dim", "0"),
    ("dim", "y-super", "--group", "SL3", "--mu", "2,2", "--y-word", "3",
     "--class", '{"kappa":[0,0],"nu":[0,0]}', "--springer-dim", "0"),
    # an empty coordinate is refused, not dropped (test_empty_coordinate_is_named)
    ("dim", "x-gr", "--group", "SL2", "--mu", "2,", "--class", '{"kappa":[0],"nu":[0]}'),
    # a negative budget is refused like a negative length bound
    ("classes", "min", "--group", "SL2", "--w", W, "--budget", "-1"),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_is_one_usage_line(argv):
    code, out, err = _run(argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_empty_coordinate_is_named():
    """"1,,1" is not read as SL3's (1, 1)."""
    code, out, err = _run(("dim", "x-gr", "--group", "SL3", "--mu", "1,,1",
                           "--class", '{"kappa":[0,0],"nu":[0,0]}'))
    assert (code, out, err) == (1, "", "usage error: empty coordinate in '1,,1'\n")


@pytest.mark.parametrize(
    "config, entry",
    [
        ({"rank": 1, "roots": [[2.9]], "coroots": [[1.2]]}, "2.9"),
        ({"rank": 1.7, "roots": [[True]], "coroots": [[1]]}, "1.7"),
        ({"rank": 1, "roots": [[True]], "coroots": [[1]]}, "True"),
        ({"rank": 1, "roots": [[2]], "coroots": [[1]], "cartan": [[2.0]]}, "2.0"),
    ],
    ids=["float-entries", "float-rank", "bool-entry", "float-cartan"],
)
def test_a_non_integer_config_entry_is_refused(tmp_path, config, entry):
    """A config entry that is not an integer is refused, never truncated
    into another datum (2.9 read as SL2's 2, 1.7 as rank 1)."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(("describe", "--group", str(path)))
    assert (code, out, err) == (1, "", f"error: expected an integer, got {entry}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--group", "PGL2", "--max-length", "-1", "--format", "csv"),
        ("table", "--group", "PGL2", "--max-length", "2", "--class-length", "-1"),
        ("classes", "straight-classes", "--group", "PGL2", "--max-length", "-1"),
        ("verify", "--suite", "oracle", "--group", "SL2", "--radius", "-1"),
        ("verify", "--suite", "min", "--group", "SL2", "--max-length", "-1"),
    ],
    ids=["table-max-length", "table-class-length", "classes-max-length", "verify-radius",
         "verify-max-length"],
)
def test_negative_bound_is_a_usage_error(argv):
    """A negative length bound or radius is refused, not read as an empty
    bound: the library would still return the length-zero seeds of a ball."""
    code, out, err = _run(argv)
    flag = argv[argv.index("-1") - 1]
    assert (code, out, err) == (1, "", f"usage error: {flag} must be nonnegative\n")


@pytest.mark.parametrize(
    "where",
    [("--cache-dir", "{file}/sub"), ("--out", "{missing}/x.csv")],
    ids=["cache-dir-under-a-file", "out-in-a-missing-dir"],
)
def test_unusable_path_is_one_error_line(tmp_path, where):
    """An OSError from a path the user gave exits 1 with one stderr line."""
    regular = tmp_path / "file"
    regular.write_text("")
    flag, template = where
    path = template.format(file=regular, missing=tmp_path / "missing")
    code, _, err = _run(("table", "--group", "SL2", "--max-length", "1", flag, path))
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert path in err


def test_unusable_cache_dir_writes_no_table(tmp_path):
    """The cache directory is made before the table is written, so a run
    that fails on it leaves stdout empty."""
    regular = tmp_path / "file"
    regular.write_text("")
    path = str(regular / "sub")
    code, out, err = _run(("table", "--group", "SL2", "--max-length", "1", "--cache-dir", path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and path in err


@pytest.mark.parametrize(
    "argv",
    [
        (*command, "--group", "SL2", flag, value)
        for command in (("describe",), ("finite", "enumerate"), ("verify", "--suite", "census"))
        for flag, value in (("--budget", "10"), ("--cache-dir", "cache"))
    ]
    + [("classes", "straight-classes", "--group", "SL2", "--cache-dir", "cache")],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_a_command_does_not_read_is_refused(argv, tmp_path, monkeypatch):
    """A command takes only the flags it acts on; any other is an unknown
    argument, exit 1 with nothing on stdout."""
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not (tmp_path / "cache").exists()


# JSON values of every kind a user may type where an integer or a rational
# is expected, including "p/q" strings with a zero denominator.
_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.booleans(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(-1, 3)),
    st.none(),
)


def _vectors(rank, entries):
    """Mostly well-formed vectors of the right length, sometimes anything."""
    return st.one_of(
        st.lists(entries, min_size=rank, max_size=rank),
        st.lists(_SCALARS, max_size=rank + 1),
    )


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from([("SL2", 1), ("SL3", 2)]), data=st.data())
def test_fuzzed_cli_input_never_raises(group, data):
    name, rank = group
    small = st.integers(-3, 3)
    letters = st.integers(-1, rank + 2)  # in range and just outside it
    w = json.dumps(
        {
            "lambda": data.draw(_vectors(rank, small)),
            "word": data.draw(st.one_of(st.lists(letters, max_size=3), _vectors(2, small))),
        }
    )
    word = ",".join(str(i) for i in data.draw(st.lists(letters, max_size=3)))
    cls = json.dumps(
        {"kappa": data.draw(_vectors(rank, small)), "nu": data.draw(_vectors(rank, _SCALARS))}
    )
    for argv in (
        ("classes", "min", "--group", name, "--w", w),
        ("dim", "x-flag", "--group", name, "--w", w, "--class", cls),
        ("finite", "reduce", "--group", name, "--word", word),
    ):
        code, _, err = _run(argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err


# Where a path flag can point: a missing directory, a path under a regular
# file, nothing at all, and a plain child of a temporary directory.
_PATH_KINDS = ("missing", "under-a-file", "empty", "child")


def _path(root, kind, leaf):
    return {
        "missing": str(root / "missing" / "deeper" / leaf),
        "under-a-file": str(root / "file" / leaf),
        "empty": "",
        "child": str(root / leaf),
    }[kind]


@settings(max_examples=20, deadline=None)
@given(cache=st.sampled_from(_PATH_KINDS), out=st.sampled_from(_PATH_KINDS + (None,)))
def test_fuzzed_path_flags_never_raise(tmp_path_factory, cache, out):
    """--cache-dir and --out of every kind end in an exit code, never a
    traceback."""
    root = tmp_path_factory.mktemp("paths")
    (root / "file").write_text("")
    cache_dir = _path(root, cache, "cache")
    table = ("table", "--group", "SL2", "--max-length", "1", "--cache-dir", cache_dir)
    if out is not None:
        table += ("--out", _path(root, out, "table.csv"))
    dim = ("dim", "x-flag", "--group", "SL2", "--w", W,
           "--class", '{"kappa":[0],"nu":[0]}', "--cache-dir", cache_dir)
    with mock.patch.dict(os.environ):
        os.environ.pop(CACHE_ENV, None)
        for argv in (table, dim):
            code, _, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, err)
            assert "Traceback" not in err


def test_closed_stdout_exits_quietly():
    """`weylcalc describe --group SL4 | head -1`: the reader goes away
    before the document is written, and the run ends without a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylcalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylcalc.cli", "describe", "--group", "SL4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # closed long before the child can write anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
