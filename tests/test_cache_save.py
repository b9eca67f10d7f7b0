"""A cache save that fails after the answer is out warns once on stderr and
keeps the exit code: the persisted memo never changes an answer."""

import contextlib
import io
import json

import pytest

from weylcalc import dims
from weylcalc.cli import main

W = '{"lambda":[1,0],"word":[1,2]}'
COMMANDS = {
    "table": ("table", "--group", "SL3", "--max-length", "3", "--class-length", "3",
              "--format", "csv"),
    "dim x-flag": ("dim", "x-flag", "--group", "SL3", "--w", W,
                   "--class", '{"kappa":[0,0],"nu":[0,0]}'),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _refuse(datum, directory):
    raise PermissionError(13, "Permission denied", directory)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_failed_save_is_one_warning(tmp_path, monkeypatch, name):
    argv = COMMANDS[name]
    code, expected, err = _run(argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(dims, "save_cache", _refuse)
    code, out, err = _run(argv + ("--cache-dir", str(tmp_path)))
    assert code == 0
    assert err.count("\n") == 1
    assert err.startswith("weylcalc: could not save cache") and "Permission denied" in err
    if name == "table":
        assert out == expected
    else:
        doc, want = json.loads(out), json.loads(expected)
        assert doc["dim"] == want["dim"] and doc["nonempty"] == want["nonempty"]
