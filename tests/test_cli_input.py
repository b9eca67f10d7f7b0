"""CLI input parsing: every malformed input gives exit 1 and one stderr
line, never a traceback, and nothing is truncated into a valid input."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import weylcalc
from weylcalc.cli import main

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
    w = json.dumps(
        {
            "lambda": data.draw(_vectors(rank, small)),
            "word": data.draw(st.one_of(st.lists(st.integers(1, rank), max_size=3), _vectors(2, small))),
        }
    )
    cls = json.dumps(
        {"kappa": data.draw(_vectors(rank, small)), "nu": data.draw(_vectors(rank, _SCALARS))}
    )
    for argv in (
        ("classes", "min", "--group", name, "--w", w),
        ("dim", "x-flag", "--group", name, "--w", w, "--class", cls),
    ):
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
