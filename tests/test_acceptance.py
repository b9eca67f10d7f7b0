"""Acceptance suite: one test per criterion, exact tolerances, with a
PASS/FAIL line per criterion on stdout.

All checks are exact (integer/rational equality); there are no numeric
tolerances to tune.
"""

import time

from weylcalc import build_root_datum
from weylcalc.cli import main
from weylcalc import verify as vf


def _datum(name):
    return build_root_datum(name)


def _finish(num, title, reports, started=None, limit=None):
    ok = all(r["passed"] for r in reports)
    checked = sum(r["checked"] for r in reports)
    elapsed = None if started is None else time.perf_counter() - started
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {title} ({checked} checks){stamp}")
    for r in reports:
        if not r["passed"]:
            print(f"  first failure in {r['group']}: {r['failures'][:1]}")
    assert ok, f"criterion {num} failed"
    if limit is not None and elapsed is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_length_oracle():
    started = time.perf_counter()
    reports = [
        vf.verify_oracle(_datum(name), radius=6) for name in ("SL2", "PGL2", "SL3", "Sp4")
    ]
    _finish(1, "length formula equals Cayley distance on radius-6 balls", reports, started, limit=10)


def test_criterion_2_minimal_length_reduction():
    started = time.perf_counter()
    reports = [
        vf.verify_min(_datum(name), max_len=8, radius=6)
        for name in ("SL2", "PGL2", "SL3", "PGL3")
    ]
    # the oracle must actually certify the overwhelming majority
    for r in reports:
        assert r["checked"] > 0
    _finish(2, "cyclic-shift reduction reaches verified class minima (length <= 8)", reports, started, limit=60)


def test_criterion_3_straight_class_census():
    expected = [
        {"kappa": [0], "nu": ["0"], "length": 0, "defect": 0},
        {"kappa": [1], "nu": ["0"], "length": 0, "defect": 1},
        {"kappa": [1], "nu": ["1"], "length": 1, "defect": 0},
        {"kappa": [0], "nu": ["2"], "length": 2, "defect": 0},
    ]
    report = vf.verify_straight_census(_datum("PGL2"), max_len=2)
    if report["classes"] != expected:
        report = {**report, "passed": False,
                  "failures": [{"got": report["classes"], "expected": expected}]}
    _finish(3, "PGL2 census of straight classes up to length 2 is the frozen 4-class list", [report])


def test_criterion_4_p_alcove_for_minimals():
    started = time.perf_counter()
    reports = [
        vf.verify_p_alcove(_datum(name), max_len=8) for name in ("SL2", "PGL2", "SL3")
    ]
    _finish(4, "every minimal-length element is an alcove element for its Newton point", reports, started)


def test_criterion_5_virtual_dimension_bound():
    started = time.perf_counter()
    reports = [
        vf.verify_dim_bound(_datum(name), max_len=8, class_len=6)
        for name in ("SL2", "PGL2", "SL3")
    ]
    _finish(5, "no nonempty cell exceeds its virtual dimension (length <= 8, classes <= 6)", reports, started)


def test_criterion_6_grassmannian_consistency():
    started = time.perf_counter()
    reports = [
        vf.verify_grass(_datum(name), pairing_cap=4) for name in ("SL2", "PGL2", "SL3")
    ]
    _finish(6, "closed Grassmannian formula equals the fibration maximum (pairings <= 4)", reports, started, limit=300)


def test_criterion_7_superregular_identity():
    started = time.perf_counter()
    reports = [
        vf.verify_superregular(_datum("SL2"), pairing_cap=4),
        vf.verify_superregular(_datum("PGL2"), pairing_cap=4),
        vf.verify_superregular(_datum("SL3"), pairing_cap=2),
    ]
    for r in reports:
        assert r["checked"] > 0
    _finish(7, "superregular closed formula equals the reduction recursion wherever it applies", reports, started)


def test_criterion_8_master_relation():
    started = time.perf_counter()
    reports = [vf.verify_master(_datum("PGL2"), max_len=8, class_len=2)]
    _finish(8, "flag Lusztig dimension = twisted dimension + fiber dimension, empty absorbing", reports, started)


def test_criterion_9_finite_delta_reduction():
    started = time.perf_counter()
    reports = [
        vf.verify_finite_delta(_datum("SL3")),
        vf.verify_finite_delta(_datum("A2-twisted")),
        vf.verify_finite_delta(_datum("SL4")),
        vf.verify_finite_delta(_datum("A3-twisted")),
    ]
    _finish(9, "twisted cyclic shift reaches class minima, exhaustively on W(A2) and W(A3)", reports, started, limit=1)


def test_criterion_10_table_determinism(tmp_path):
    cache_dir = tmp_path / "cache"
    outputs = []
    for name in ("cold.csv", "warm.csv"):
        out = tmp_path / name
        code = main(
            [
                "table",
                "--group",
                "PGL2",
                "--max-length",
                "4",
                "--class-length",
                "2",
                "--format",
                "csv",
                "--out",
                str(out),
                "--cache-dir",
                str(cache_dir),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    print(f"{'PASS' if ok else 'FAIL'} criterion 10: table output byte-identical across cold and warm cache")
    assert ok
