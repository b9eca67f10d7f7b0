"""Tests of the benchmark's own arithmetic and gate.

    python3 -m pytest bench/test_bench.py
"""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 401))
    assert run.percentile(values, 975) == 390  # ten samples lie above it
    assert run.percentile(values[:-1], 975) is None  # only nine would
    assert run.percentile(list(range(1, 21)), 500) == 10


def test_self_time_on_synthetic_span_tree():
    # a(0..10) -> b(1..4), a(5..8) -> b(6..7): a recurses once
    names = ["a", "b"]
    spans = [
        [0, 0.0, 10.0, -1],
        [1, 1.0, 4.0, 0],
        [0, 5.0, 8.0, 0],
        [1, 6.0, 7.0, 2],
    ]
    out = tracer.summarize(names, spans, work_children={"a"})
    a, b = out["a"], out["b"]
    assert a["calls"] == 2
    assert a["total_s"] == 10.0  # the inner call is inside the outer one
    assert a["self_s"] == (10.0 - 3.0 - 3.0) + (3.0 - 1.0)
    assert a["max_depth"] == 2
    assert a["hits"] == 1  # only the inner call opened no child "a"
    assert (b["calls"], b["self_s"], b["total_s"], b["max_depth"]) == (2, 4.0, 4.0, 1)


def _table_pass(digest):
    jobs = [
        {"kind": "table", "group": "SL4", "phase": "cold", "request": "SL4-cold"},
        {"kind": "table", "group": "SL4", "phase": "warm", "request": "SL4-warm"},
    ]
    results = [
        {"seconds": 1.0, "ref_s": 1.0, "error": None, "output": {"exit": 0, "sha256": digest}},
        {"seconds": 0.5, "ref_s": 0.5, "error": None, "output": {"exit": 0, "sha256": digest}},
    ]
    return jobs, results


def test_speed_scale_uses_samples_near_the_span():
    meter = worker.Speedometer()
    # a fast host until t=10, then twice as slow
    meter.samples = [(t / 10, worker.REF_SAMPLE_S * (1 if t < 100 else 2)) for t in range(200)]
    assert meter.scale(2.0, 3.0) == 1.0
    assert meter.scale(15.0, 16.0) == 0.5  # 2 s measured there are 1 s at the reference speed
    near = meter.scale(10.0, 10.0)  # samples from 9.5 to 10.5: half fast, half slow
    assert 0.6 < near < 0.7


def test_wrong_reference_digest_raises_fail_ratio():
    refs = {"table": {"SL4": {"sha256": "a" * 64}}}
    jobs, results = _table_pass("a" * 64)
    good = {
        "jobs": jobs,
        "result": {"jobs": results, "peak_rss_mb": 30.0},
        "reasons": run.gate(jobs, results, refs),
    }
    values, extra = run.end_to_end(jobs, [good], [0.1])
    assert extra["fail_ratio"] == 0 and values["pass_ratio"] == 1

    wrong = {"table": {"SL4": {"sha256": "b" * 64}}}
    bad = dict(good, reasons=run.gate(jobs, results, wrong))
    values, extra = run.end_to_end(jobs, [bad], [0.1])
    assert extra["fail_ratio"] == 1 and values["pass_ratio"] == 0
    assert all("digest" in reason for reason in bad["reasons"])


def test_unreported_job_counts_as_timeout():
    refs = {"table": {"SL4": {"sha256": "a" * 64}}}
    jobs, results = _table_pass("a" * 64)
    assert run.gate(jobs, results[:1], refs) == [None, "timeout"]


def test_median_pass_per_job_and_end_to_end_split():
    jobs, results = _table_pass("a" * 64)
    passes = []
    for slowdown in (1.0, 0.8, 2.0):
        res = [dict(r, ref_s=r["ref_s"] * slowdown, seconds=9.0) for r in results]
        passes.append({"jobs": jobs, "result": {"jobs": res, "peak_rss_mb": 30.0}, "reasons": [None, None]})
    values, extra = run.end_to_end(jobs, passes, [0.1, 0.3, 0.2])
    assert values["wall_s"] == 1.0 + 0.5  # each job at its median pass, at the reference speed
    assert values["cold_s"] == extra["table_cold_s"] == 1.0
    assert extra["table_warm_s"] == 0.5
    assert values["setup_s"] == 0.2  # the median set-up
    assert values["request_p97.5_ms"] == 1000.0  # fewer than 400 requests: the slowest


def test_tracer_patches_every_importer_and_reports_absent():
    pkg = types.ModuleType("fakecalc")
    dims = types.ModuleType("fakecalc.dims")

    def dim_X_flag(n):
        return 0 if n == 0 else dims.dim_X_flag(n - 1) + 1

    dims.dim_X_flag = dim_X_flag
    verify = types.ModuleType("fakecalc.verify")
    verify.dim_X_flag = dim_X_flag  # as `from .dims import dim_X_flag` leaves it
    modules = {"fakecalc": pkg, "fakecalc.dims": dims, "fakecalc.verify": verify}
    sys.modules.update(modules)
    try:
        t = tracer.Tracer()
        t.install("fakecalc")
        assert verify.dim_X_flag(3) == 3
        t.uninstall()
        assert verify.dim_X_flag is dim_X_flag and dims.dim_X_flag is dim_X_flag
    finally:
        for name in modules:
            del sys.modules[name]
    entry = t.summary()["functions"]["dims.dim_X_flag"]
    assert (entry["calls"], entry["max_depth"], entry["hits"]) == (4, 4, 1)
    assert "classes.reduce_to_min" in t.absent and "affweyl.mul" in t.absent
