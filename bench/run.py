"""weylcalc benchmark: seeded workloads, output gate, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare OLD.json NEW.json
    python3 bench/run.py --freeze

Each pass runs in a fresh ``python3 bench/worker.py`` process that imports
``weylcalc`` from the checkout's ``src/``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``).  A run record with the job counts, the
environment and the metrics is merged into ``bench/out/record.json``.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
REFS = os.path.join(BENCH, "refs.json")

RUN_LIMIT_S = 170  # every run, set-up included, ends before this
SETUP_SAMPLES = 3  # back-to-back set-up processes before each pass
DEFAULT_SEED = 0

WORKLOADS = ("table", "verify-dims", "verify-search", "queries")
TABLES = (("SL4", 9, 4), ("PGL3", 10, 4))  # group, --max-length, --class-length
VERIFY_GROUPS = ("Sp4", "SL4")
VERIFY_DIMS = ("dim-bound", "grass", "superregular", "master")
VERIFY_SEARCH = ("oracle", "straightness", "min", "census", "straight-cyclic", "p-alcove", "finite-delta")
# SL4 grass at its default cap 4 runs for minutes (over 120 s on a fresh
# datum, 2 CPUs); cap 1 keeps a pass near ten seconds and still shows the
# per-check cost (see README.md).
VERIFY_KWARGS = {("grass", "SL4"): {"pairing_cap": 1}}
QUERY_RANGES = {"Sp4": 3, "SL4": 1}  # lambda_i in [-r, r]
QUERIES_PER_GROUP = 200
TIMEOUTS = {"table": 60, "verify": 60, "query": 10}
FREEZE_COST_PASSES = 3  # a query's frozen cost is its median over these


# ---------------------------------------------------------------- statistics


def percentile(values, per_mille, beyond=10):
    """Nearest-rank percentile, or None unless at least `beyond` samples lie
    above it.  With 400 samples p97.5 has exactly ten above it."""
    xs = sorted(values)
    rank = -(-per_mille * len(xs) // 1000)  # ceil without floats
    if rank < 1 or len(xs) - rank < beyond:
        return None
    return xs[rank - 1]


# ---------------------------------------------------------------- workloads


def query_jobs(refs, seed):
    """QUERIES_PER_GROUP queries per group, drawn from the frozen element
    list of the group: sorted by frozen cost with seeded tie-breaks, then a
    systematic sample with a seeded start, so every element is equally
    likely and every seed gets the same spread of costs."""
    rng = random.Random(seed)
    jobs = []
    for group in QUERY_RANGES:
        frame = sorted(query_elements(refs, group), key=lambda e: (e[3], rng.random()))
        step = len(frame) / QUERIES_PER_GROUP
        start = rng.random() * step
        for i in range(QUERIES_PER_GROUP):
            lam, word = frame[int(start + i * step)][:2]
            jobs.append({"kind": "query", "group": group, "lam": list(lam), "word": list(word)})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["request"] = f"query{i}"
    return jobs


def query_elements(refs, group):
    """The frozen query candidates of a group as (lam, word, length, cost,
    answer digest); refs.json keeps each as one
    "lam;word;length;cost;digest" line, with 1-based words and the cost in
    microseconds at the reference speed."""
    out = []
    for line in refs["queries"][group]:
        lam, word, length, cost, digest = line.split(";")
        out.append((_ints(lam), _ints(word), int(length), int(cost), digest))
    return out


def _ints(text):
    return tuple(int(x) for x in text.split(",") if x)


def workload_jobs(workload, refs, seed):
    """The jobs of one pass; every pass of a run gets the same list.  A
    job's request is the CLI call it belongs to: one table, one `weylcalc
    verify` of a group (all its suites), or one query."""
    if workload == "table":
        return [
            {
                "kind": "table",
                "group": g,
                "max_length": ml,
                "class_length": cl,
                "phase": phase,
                "request": f"{g}-{phase}",
            }
            for g, ml, cl in TABLES
            for phase in ("cold", "warm")
        ]
    if workload in ("verify-dims", "verify-search"):
        suites = VERIFY_DIMS if workload == "verify-dims" else VERIFY_SEARCH
        return [
            {"kind": "verify", "group": g, "suite": s, "kwargs": VERIFY_KWARGS.get((s, g), {}), "request": g}
            for g in VERIFY_GROUPS
            for s in suites
        ]
    if workload == "queries":
        return query_jobs(refs, seed)
    raise ValueError(f"unknown workload {workload!r}")


def workload_groups(workload):
    return [g for g, _, _ in TABLES] if workload == "table" else list(VERIFY_GROUPS)


# ---------------------------------------------------------------- gate


def check_job(job, output, refs):
    """Reason the output is wrong, or None when it matches the references."""
    kind, group = job["kind"], job["group"]
    if kind == "table":
        want = refs["table"][group]
        if output["exit"] != 0:
            return f"exit code {output['exit']}"
        if output["sha256"] != want["sha256"]:
            return f"table digest {output['sha256'][:12]} != {want['sha256'][:12]}"
        return None
    if kind == "verify":
        want = refs["verify"][group][job["suite"]]
        got = {"passed": output["passed"], "checked": output["checked"]}
        return None if got == want else f"verify {got} != {want}"
    if kind == "query":
        if output["dim"] is None or output["dim"] > output["virtual_dim"]:
            return f"dim {output['dim']} is empty or above the virtual dim {output['virtual_dim']}"
        if output["class_kappa"] != output["w_kappa"]:
            return "kappa of the class differs from kappa of w"
        want = refs["answers"].get((group, tuple(job["lam"]), tuple(job["word"])))
        return None if output["digest"] == want else f"answer digest {output['digest']} != {want}"
    return f"unknown job kind {kind!r}"


def load_refs(path=REFS):
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    refs["answers"] = {
        (group, lam, word): digest
        for group in refs["queries"]
        for lam, word, _, _, digest in query_elements(refs, group)
    }
    return refs


def gate(jobs, results, refs):
    """Failure reason per job (None for a pass).  A job the worker never
    reported, because its process was killed, counts as a timeout.  Cold and
    warm tables are checked against one digest, so they are also
    byte-identical to each other."""
    reasons = []
    for i, job in enumerate(jobs):
        res = results[i] if i < len(results) else {"error": "timeout", "output": None}
        reasons.append(res["error"] or check_job(job, res["output"], refs))
    return reasons


# ---------------------------------------------------------------- processes


def child_env():
    env = dict(os.environ)
    env.pop("WEYLCALC_CACHE_DIR", None)  # a user's cache must not warm a cold run
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec, deadline, tag):
    """Run one worker process on `spec`; returns its result, or None when
    it was killed at the deadline or died."""
    os.makedirs(OUT, exist_ok=True)
    spec_path = os.path.join(OUT, f"{tag}.spec.json")
    result_path = os.path.join(OUT, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), spec_path, result_path]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        # the result line must stay the last line of stdout
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"bench: {tag} killed at the run deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"bench: {tag} exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload, jobs, refs, index, deadline, trace=False):
    tag = f"{workload}-pass{index}{'-traced' if trace else ''}"
    workdir = os.path.join(OUT, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = {"groups": workload_groups(workload), "jobs": jobs, "workdir": workdir, "trace": trace}
    if trace:
        spec["spans_path"] = os.path.join(OUT, f"spans-{workload}.json")
    try:
        result = run_worker(spec, deadline, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = result["jobs"] if result else []
    return {"jobs": jobs, "result": result, "reasons": gate(jobs, results, refs)}


def run_setup(workload, deadline):
    """Set-up times at the reference speed of SETUP_SAMPLES back-to-back
    processes that only import weylcalc and build the workload's datums."""
    times = []
    for i in range(SETUP_SAMPLES):
        result = run_worker({"groups": workload_groups(workload)}, deadline, f"{workload}-setup{i}")
        if result is not None:
            times.append(result["setup_ref_s"])
    return times


def measure(workload, jobs, refs, seconds, trace, deadline):
    """Set-up times and passes of one run.  An untraced run repeats passes
    until the next one would end after `seconds`, each after a set-up
    sample; a traced run makes one pass without and one with tracing."""
    started = time.monotonic()
    setups, passes, longest = [], [], 0.0
    while not passes or (not trace and time.monotonic() - started + longest <= seconds):
        t0 = time.monotonic()
        setups.extend(run_setup(workload, deadline))
        passes.append(run_pass(workload, jobs, refs, len(passes), deadline))
        longest = max(longest, time.monotonic() - t0)
        if passes[-1]["result"] is None:
            break
    if trace:
        traced = run_pass(workload, jobs, refs, 0, deadline, trace=True)
        passes.append(dict(traced, traced=True))
    return setups, passes


# ---------------------------------------------------------------- metrics


def untraced(passes):
    return [p for p in passes if p["result"] and not p.get("traced")]


def job_counts(passes):
    """(attempted, failed) over every job of every pass."""
    attempted = sum(len(p["jobs"]) for p in passes)
    return attempted, sum(1 for p in passes for reason in p["reasons"] if reason)


def job_times(passes):
    """Each job's time in the run: the median over its untraced passes of
    its time at the reference speed (see Speedometer in worker.py)."""
    done = untraced(passes)
    if not done:
        return None
    return [statistics.median(p["result"]["jobs"][i]["ref_s"] for p in done) for i in range(len(done[0]["jobs"]))]


def end_to_end(jobs, passes, setups):
    """Every end-to-end metric, plus the figures the run record keeps for
    one workload only (table cold/warm split, query percentiles) and the
    fail ratio."""
    attempted, failed = job_counts(passes)
    extra = {"fail_ratio": failed / attempted}
    times = job_times(passes)
    if times is None or not setups:
        return {}, extra
    cold = [job.get("phase", "cold") == "cold" for job in jobs]
    requests = {}
    for t, job in zip(times, jobs):
        requests[job["request"]] = requests.get(job["request"], 0.0) + t * 1000
    latencies = list(requests.values())
    tail = percentile(latencies, 975)
    values = {
        "wall_s": sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["result"]["peak_rss_mb"] for p in untraced(passes)),
        "pass_ratio": (attempted - failed) / attempted,
        "cold_s": sum(t for t, c in zip(times, cold) if c),
        "sl4_s": sum(t for t, job in zip(times, jobs) if job["group"] == "SL4"),
        "request_p50_ms": statistics.median(latencies),
        "request_p97.5_ms": max(latencies) if tail is None else tail,
    }
    if jobs[0]["kind"] == "table":
        extra["table_cold_s"] = values["cold_s"]
        extra["table_warm_s"] = values["wall_s"] - values["cold_s"]
    if jobs[0]["kind"] == "query":
        extra["query_p50_ms"] = values["request_p50_ms"]
        extra["query_p97.5_ms"] = tail
    return values, extra


def per_layer(plain, traced):
    """Per-layer metrics from a traced pass; verify suite times come from the
    untraced pass of the same run."""
    summary = traced["result"]["trace"]
    values = {}
    for name, entry in summary["functions"].items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.total_s"] = entry["total_s"]
        values[f"{name}.max_depth"] = entry["max_depth"]
        values[f"{name}.memo_hit_ratio"] = entry["hits"] / entry["calls"]
    for prefix, calls in summary["counts"].items():
        values[f"{prefix}.calls"] = calls
    values.update(summary["sizes"])
    raised = summary["raised"].get("oracle.brute_min_length", {})
    values["oracle.brute_min_length.inconclusive"] = raised.get("Inconclusive", 0)
    for job, res in zip(plain["jobs"], plain["result"]["jobs"]):
        if job["kind"] == "verify":
            stem = f"verify.{job['suite']}.{job['group']}"
            values[f"{stem}.wall_s"] = res["ref_s"]
            values[f"{stem}.checked"] = res["output"]["checked"] if res["output"] else 0
    values["trace.overhead_ratio"] = traced["result"]["wall_s"] / plain["result"]["wall_s"]
    return values, summary["absent"]


# ---------------------------------------------------------------- records


def source_digest():
    """SHA-256 over the files of src/, for checkouts that are not git
    repositories."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def save_record(path, workload, record):
    """Merge one run's record into the record file, under its workload and
    trace mode."""
    data = {"runs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"][f"{workload}/trace{record['trace']}"] = record
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def compare(old_path, new_path):
    """Print new/old ratios of every end-to-end figure, per workload."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)["runs"]
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)["runs"]
    for key in sorted(set(old) & set(new)):
        if not key.endswith("/trace0"):
            continue
        a = {**old[key]["metrics"], **old[key]["extra"]}
        b = {**new[key]["metrics"], **new[key]["extra"]}
        print(key.split("/")[0])
        for name in sorted(set(a) & set(b)):
            if a[name] and b[name] is not None:
                print(f"  {name:16s} {a[name]:12.5g} -> {b[name]:12.5g}  x{b[name] / a[name]:.3f}")
    return 0


# ---------------------------------------------------------------- main


def freeze():
    """Write bench/refs.json from the current sources: table digests, verify
    results, and the answer digest and cost of every element queries can
    draw."""
    deadline = time.monotonic() + 1800
    refs = {"source_sha256": source_digest(), "table": {}, "verify": {}, "queries": {}}
    for workload in ("table", "verify-dims", "verify-search"):
        jobs = workload_jobs(workload, refs, DEFAULT_SEED)
        result = run_worker(
            {"groups": workload_groups(workload), "jobs": jobs, "workdir": OUT}, deadline, "freeze"
        )
        for job, res in zip(jobs, result["jobs"]):
            if res["error"]:
                raise SystemExit(f"freeze: {job} failed: {res['error']}")
            if job["kind"] == "table":
                refs["table"][job["group"]] = {"sha256": res["output"]["sha256"], "rows": res["output"]["rows"]}
            else:
                refs["verify"].setdefault(job["group"], {})[job["suite"]] = {
                    "passed": res["output"]["passed"],
                    "checked": res["output"]["checked"],
                }
    spec = {"groups": list(QUERY_RANGES), "query_space": QUERY_RANGES}
    results = [run_worker(spec, deadline, "freeze") for _ in range(FREEZE_COST_PASSES)]
    for jobs in zip(*(result["jobs"] for result in results)):
        if any(res["error"] for res in jobs) or len({res["output"]["digest"] for res in jobs}) != 1:
            raise SystemExit(f"freeze: query failed or changed its answer: {jobs}")
    for i, job in enumerate(results[0]["space"]):
        out = results[0]["jobs"][i]["output"]
        cost_us = round(1e6 * statistics.median(result["jobs"][i]["ref_s"] for result in results))
        lam, word = ",".join(map(str, job["lam"])), ",".join(map(str, job["word"]))
        refs["queries"].setdefault(job["group"], []).append(f"{lam};{word};{out['length']};{cost_us};{out['digest']}")
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=os.path.join(OUT, "record.json"))
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.exists(os.path.join(ROOT, "src", "weylcalc", "__init__.py")):
        print(f"bench: no weylcalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")
    refs = load_refs()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    jobs = workload_jobs(args.workload, refs, args.seed)
    for job in jobs:
        job["timeout_s"] = TIMEOUTS[job["kind"]]
    setups, passes = measure(args.workload, jobs, refs, args.seconds, args.trace, deadline)

    values, extra = end_to_end(jobs, passes, setups)
    absent = []
    wanted = spec["end_to_end"]
    if args.trace:
        wanted = spec["per_layer"]
        values = {}
        if all(p["result"] for p in passes):
            values, absent = per_layer(passes[0], passes[1])
    attempted, failed = job_counts(passes)
    for p in passes:
        for job, reason in zip(p["jobs"], p["reasons"]):
            if reason:
                print(f"bench: FAIL {json.dumps(job, sort_keys=True)}: {reason}", file=sys.stderr)
    if absent:
        print(f"bench: absent at this commit: {', '.join(absent)}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    correct = failed == 0 and bool(values)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "run_s": time.monotonic() - started,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "extra": extra,
        "job_seconds": [[r["seconds"] for r in p["result"]["jobs"]] for p in passes if p["result"]],
        "job_ref_seconds": [[r.get("ref_s") for r in p["result"]["jobs"]] for p in passes if p["result"]],
        "setup_seconds": setups,
        "absent": absent,
    }
    save_record(args.record, args.workload, record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
