import json
import os

import pytest

from weylcalc import build_root_datum, cli, dims
from weylcalc.cli import main
from weylcalc.errors import DecompositionFailure, InternalAssertion
from weylcalc.memo import memo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_pgl2(capsys):
    code, out, _ = run(capsys, "describe", "--group", "PGL2")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "PGL2"
    assert len(doc["generators"]) == 2
    assert doc["pi1"]["order"] == 2
    assert len(doc["omega"]) == 2


def test_describe_unknown_group(capsys):
    code, _, err = run(capsys, "describe", "--group", "NoSuchGroup")
    assert code == 1
    assert "unknown preset" in err


def test_finite_enumerate(capsys):
    code, out, _ = run(capsys, "finite", "enumerate", "--group", "SL3")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6 and doc["max_length"] == 3


def test_finite_reduce_twisted(capsys):
    # under the diagram flip the longest element is fixed by every twisted
    # conjugation, so it is already minimal
    code, out, _ = run(capsys, "finite", "reduce", "--group", "A2-twisted", "--word", "1,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_length"] == 3
    assert doc["path"] == []

    # without the twist the same word is a transposition and drops to length 1
    code, out, _ = run(capsys, "finite", "reduce", "--group", "SL3", "--word", "1,2,1")
    assert code == 0
    assert json.loads(out)["min_length"] == 1


def test_finite_supp(capsys):
    code, out, _ = run(capsys, "finite", "supp", "--group", "A2-twisted", "--word", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["supp"] == [1]
    assert doc["supp_delta"] == [1, 2]
    assert doc["elliptic"] is True


def test_classes_min(capsys):
    code, out, _ = run(
        capsys, "classes", "min", "--group", "SL2", "--w", '{"lambda":[2],"word":[1]}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["w_min"] == {"lambda": [0], "word": [1]}
    assert len(doc["result"]["path"]) == 1


def test_classes_straight_classes(capsys):
    code, out, _ = run(
        capsys, "classes", "straight-classes", "--group", "PGL2", "--max-length", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["kappa"] for c in doc["classes"]] == [[0], [1], [1], [0]]
    assert [c["defect"] for c in doc["classes"]] == [0, 1, 0, 0]


def test_classes_ux_and_p_alcove(capsys):
    code, out, _ = run(
        capsys, "classes", "ux", "--group", "SL2", "--w", '{"lambda":[0],"word":[1]}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ux"]["x"] == {"lambda": [0], "word": []}
    assert doc["ux"]["K"] == [1]
    assert doc["straight_class"]["length"] == 0

    code, out, _ = run(
        capsys, "classes", "p-alcove", "--group", "SL2", "--w", '{"lambda":[-1],"word":[]}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p_alcove"] is True
    assert doc["nu"] == ["-1"]


def test_dim_x_flag_query(capsys):
    code, out, _ = run(
        capsys,
        "dim",
        "x-flag",
        "--group",
        "SL2",
        "--w",
        '{"lambda":[0],"word":[1]}',
        "--class",
        '{"kappa":[0],"nu":[0]}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nonempty"] is True and doc["dim"] == 1
    assert doc["virtual_dim"] == 1
    assert doc["witnesses"]["ux"]["K"] == [1]


def test_dim_empty_distinct_from_zero(capsys):
    code, out, _ = run(
        capsys,
        "dim",
        "x-flag",
        "--group",
        "SL2",
        "--w",
        '{"lambda":[-1],"word":[]}',
        "--class",
        '{"kappa":[0],"nu":[0]}',
    )
    doc = json.loads(out)
    assert doc["nonempty"] is False and doc["dim"] is None

    code, out, _ = run(
        capsys,
        "dim",
        "x-flag",
        "--group",
        "PGL2",
        "--w",
        '{"lambda":[1],"word":[1]}',
        "--class",
        '{"kappa":[1],"nu":[0]}',
    )
    doc = json.loads(out)
    assert doc["nonempty"] is True and doc["dim"] == 0


def test_dim_y_flag_and_gr(capsys):
    code, out, _ = run(
        capsys,
        "dim",
        "y-flag",
        "--group",
        "SL2",
        "--w",
        '{"lambda":[0],"word":[1]}',
        "--class",
        '{"kappa":[0],"nu":[0]}',
        "--springer-dim",
        "2",
    )
    doc = json.loads(out)
    assert doc["dim"] == 3

    code, out, _ = run(
        capsys,
        "dim",
        "y-gr",
        "--group",
        "PGL2",
        "--mu",
        "1",
        "--class",
        '{"kappa":[1],"nu":[0]}',
        "--d",
        "1",
        "--c",
        "0",
    )
    doc = json.loads(out)
    assert doc["dim"] == 0 + 1


def test_dim_y_super_query(capsys):
    code, out, _ = run(
        capsys,
        "dim",
        "y-super",
        "--group",
        "SL2",
        "--mu",
        "4",
        "--y-word",
        "1",
        "--class",
        '{"kappa":[0],"nu":[0]}',
        "--springer-dim",
        "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nonempty"] is True
    assert doc["dim"] == doc["virtual_dim"]


def test_dim_y_super_hypothesis_exit_code(capsys):
    code, _, err = run(
        capsys,
        "dim",
        "y-super",
        "--group",
        "SL2",
        "--mu",
        "0",
        "--y-word",
        "1",
        "--class",
        '{"kappa":[0],"nu":[0]}',
        "--springer-dim",
        "0",
    )
    assert code == 2
    assert "hypothesis" in err


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "classes",
        "min",
        "--group",
        "SL3",
        "--w",
        '{"lambda":[4,2],"word":[1,2]}',
        "--budget",
        "1",
    )
    assert code == 3
    assert "budget" in err


def test_census_budget_exit_code(capsys):
    code, out, err = run(
        capsys, "classes", "straight-classes", "--group", "SL3", "--max-length", "300",
        "--budget", "10",
    )
    assert code == 3 and out == ""
    assert err == "budget exceeded: straight-class census exceeded its budget of 10 classes\n"


def test_table_with_a_huge_class_length_exits_on_the_census_budget(capsys):
    code, out, err = run(
        capsys, "table", "--group", "SL3", "--max-length", "2", "--class-length", "99999999999",
    )
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("budget exceeded: straight-class census")


def test_running_out_of_memory_is_one_line(capsys, monkeypatch):
    """A MemoryError is caught at the CLI edge only: exit 3 and one stderr
    line naming the command, with no traceback."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(dims, "dim_profile", exhausted)
    code, out, err = run(capsys, "table", "--group", "SL2", "--max-length", "1")
    assert (code, out, err) == (3, "", "out of memory: weylcalc table\n")


@pytest.mark.parametrize("error", [InternalAssertion, DecompositionFailure])
def test_an_internal_error_exits_4_in_one_line(error, capsys, monkeypatch):
    """A failed self-check, a decomposition step's included, exits 4 with
    one stderr line and no traceback."""

    def broken(w):
        raise error("w is not x t^mu y")

    monkeypatch.setattr(dims, "eta_decomposition", broken)
    code, out, err = run(capsys, "dim", "x-flag", "--group", "SL2", "--w",
                         '{"lambda":[0],"word":[1]}', "--class", '{"kappa":[0],"nu":[0]}')
    assert (code, out, err) == (4, "", "internal assertion failed: w is not x t^mu y\n")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "dim", "x-flag", "--group", "SL2", "--class", '{"kappa":[0],"nu":[0]}')
    assert code == 1
    code, _, err = run(
        capsys, "dim", "x-flag", "--group", "SL2", "--w", "junk", "--class", '{"kappa":[0],"nu":[0]}'
    )
    assert code == 1
    code, _, err = run(
        capsys,
        "dim",
        "y-flag",
        "--group",
        "SL2",
        "--w",
        '{"lambda":[0],"word":[1]}',
        "--class",
        '{"kappa":[0],"nu":[0]}',
    )
    assert code == 1  # missing springer data


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--group", "SL2", "--radius", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "oracle"


def test_verify_all_sl2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--group", "SL2", "--max-length", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["suites"]) == 11


def test_verify_passes_radius_to_straightness(capsys):
    """--radius sizes the straightness ball: on SL3 it holds 10 elements
    at radius 2, 85 at 7 and 46 at the suite's own radius 5."""
    for flags, checked in ((("--radius", "2"), 10), (("--radius", "7"), 85), ((), 46)):
        code, out, _ = run(capsys, "verify", "--suite", "straightness", "--group", "SL3", *flags)
        assert code == 0
        assert json.loads(out)["suites"][0]["checked"] == checked


def test_verify_passes_radius_to_the_min_oracle(capsys, monkeypatch):
    """--radius is the radius of the ball min's oracle bounds by: only the
    radius-2 ball is built."""
    datum = build_root_datum("SL3")
    monkeypatch.setattr(cli, "_load_datum", lambda spec: datum)
    code, out, _ = run(capsys, "verify", "--suite", "min", "--group", "SL3", "--radius", "2")
    assert code == 0 and json.loads(out)["passed"] is True
    assert [radius for radius, _ in memo(datum, "oracle_ball").table] == [2]


@pytest.mark.parametrize("suite, default", [("census", 1), ("straight-cyclic", 6)])
def test_verify_passes_max_length_to_census_and_straight_cyclic(capsys, suite, default):
    """--max-length reaches the census and the straight-cyclic suite, as it
    reaches min: on SL3 each checks 6 classes at 6 and 1 at 2, and without
    the flag each keeps its own bound (the census 2, straight-cyclic 6)."""
    for flags, checked in ((("--max-length", "6"), 6), (("--max-length", "2"), 1), ((), default)):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--group", "SL3", *flags)
        assert code == 0
        assert json.loads(out)["suites"][0]["checked"] == checked


def test_table_empty_class_set(capsys):
    code, out, _ = run(
        capsys, "table", "--group", "SL2", "--max-length", "2", "--classes", "[]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == []


def test_config_file_group(tmp_path, capsys):
    config = {
        "name": "SL2-copy",
        "rank": 1,
        "roots": [[2]],
        "coroots": [[1]],
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "describe", "--group", str(path))
    assert code == 0
    assert json.loads(out)["group"] == "SL2-copy"


def test_table_determinism_cold_vs_warm(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    for out in (out1, out2):
        code = main(
            [
                "table",
                "--group",
                "PGL2",
                "--max-length",
                "3",
                "--class-length",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
                "--cache-dir",
                str(cache_dir),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert os.listdir(cache_dir)


def test_table_csv_stdout(capsys):
    code, out, _ = run(
        capsys, "table", "--group", "SL2", "--max-length", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda;word;length;kappa;nu;nonempty;dim;virtual_dim"
    assert len(lines) > 1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEYLCALC_CACHE_DIR", str(tmp_path))
    code, out, _ = run(
        capsys,
        "dim",
        "x-flag",
        "--group",
        "SL2",
        "--w",
        '{"lambda":[2],"word":[1]}',
        "--class",
        '{"kappa":[0],"nu":[0]}',
    )
    assert code == 0
    assert any(name.startswith("dimx-") for name in os.listdir(tmp_path))
    # a second run must be served from the loaded cache with the same result
    code, out2, _ = run(
        capsys,
        "dim",
        "x-flag",
        "--group",
        "SL2",
        "--w",
        '{"lambda":[2],"word":[1]}',
        "--class",
        '{"kappa":[0],"nu":[0]}',
    )
    doc1, doc2 = json.loads(out), json.loads(out2)
    assert doc1["dim"] == doc2["dim"] == 2
    assert doc2["cache"]["loaded"] > 0
