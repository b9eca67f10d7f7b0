"""One benchmark pass in a fresh process.

Run by run.py as ``python3 bench/worker.py SPEC.json RESULT.json``.  The
spec names the groups to set up and the jobs to run; the result holds the
set-up time, each job's time and output, the pass's peak RSS and, for a
traced pass, the tracer's summary.  An untraced process also samples the
host's speed throughout (``Speedometer``) and reports every time both as
measured and scaled to a fixed reference speed.  ``weylcalc`` must come
from the checkout's ``src/`` directory, which run.py puts on PYTHONPATH.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAMPLE_LOOPS = 1000  # one speed sample: about 1 ms on a 2-CPU Xeon VM
SAMPLE_EVERY_S = 0.025  # CPU seconds between samples during a pass
REF_SAMPLE_S = 0.001  # the reference speed: one sample takes this long
WINDOW_S = 0.5  # samples this close to a job measure its speed


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def speed_sample():
    """A fixed loop of the operations weylcalc's element arithmetic is made
    of (small tuples built from lists, dict updates), independent of the
    code being measured."""
    q, r = (1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)
    x, seen = tuple(range(8)), {}
    for i in range(SAMPLE_LOOPS):
        x = tuple([x[j] for j in (q if i % 3 else r)])
        seen[x] = seen.get(x, 0) + 1
    return len(seen)


class Speedometer:
    """Samples the host's speed from a CPU-time timer while the pass runs.

    Shared hosts change speed, for every process alike: on a 2-CPU test VM
    by up to 1.7x over seconds to minutes.  So a time measured in one phase
    is not comparable with one measured in another.  A time scaled by
    REF_SAMPLE_S over the mean sample duration around it is: it reads as
    seconds at the reference speed.  Time spent sampling is taken out of
    every job."""

    def __init__(self):
        self.samples = []  # (perf_counter at the start, duration)
        self.spent = 0.0  # seconds spent sampling so far

    def sample(self, *_signal_args):
        gc_enabled = gc.isenabled()
        gc.disable()  # the job's garbage stays the job's
        started = time.perf_counter()
        try:
            speed_sample()
            self.samples.append((started, time.perf_counter() - started))
        finally:
            if gc_enabled:
                gc.enable()
            self.spent += time.perf_counter() - started

    def calibrate(self, n=10):
        for _ in range(n):
            self.sample()

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start, end):
        """Factor from seconds measured between `start` and `end` to
        seconds at the reference speed."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REF_SAMPLE_S / statistics.mean(near)


def setup(groups):
    """Import weylcalc and build each group's datum with its fixed
    structures; returns the modules and the datums by group."""
    import weylcalc
    from weylcalc import affweyl, classes, cli, dims, finiteweyl, rootdata, verify

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(weylcalc.__file__).startswith(src):
        raise SystemExit(f"weylcalc was imported from {weylcalc.__file__}, not from {src}")
    mods = {
        "affweyl": affweyl,
        "classes": classes,
        "cli": cli,
        "dims": dims,
        "finiteweyl": finiteweyl,
        "rootdata": rootdata,
        "verify": verify,
    }
    datums = {}
    for group in groups:
        datum = rootdata.build_root_datum(group)
        affweyl.simple_reflections(datum)
        finiteweyl.enumerate_w0(datum)
        affweyl.omega_elements(datum)
        datums[group] = datum
    return mods, datums


def run_table(mods, job, workdir):
    """`weylcalc table` in CSV format, in process.  The output file is read
    back and only its digest kept."""
    out = os.path.join(workdir, f"{job['group']}-{job['phase']}.csv")
    argv = [
        "table",
        "--group", job["group"],
        "--max-length", str(job["max_length"]),
        "--class-length", str(job["class_length"]),
        "--format", "csv",
        "--out", out,
        "--cache-dir", os.path.join(workdir, f"cache-{job['group']}"),
    ]
    code = mods["cli"].main(argv)
    with open(out, "rb") as fh:
        data = fh.read()
    os.remove(out)
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n") - 1}


def run_verify(mods, job, datums):
    report = mods["verify"].SUITES[job["suite"]](datums[job["group"]], **job.get("kwargs", {}))
    return {"passed": report["passed"], "checked": report["checked"]}


def run_query(mods, job):
    """One single-element query on a fresh datum, as one CLI call makes it:
    minimal conjugate, u x decomposition, straight class, and the flag
    dimension and virtual dimension for that class."""
    datum = mods["rootdata"].build_root_datum(job["group"])
    w = mods["affweyl"].from_parts(datum, job["lam"], [i - 1 for i in job["word"]])
    reduced = mods["classes"].reduce_to_min(w)
    dec = mods["classes"].ux_decompose(reduced.w_min, check_minimal=False)
    cls = mods["classes"].straight_class_of(w)
    dim = mods["dims"].dim_X_flag(w, cls)
    vdim = mods["dims"].virtual_dimension(w, cls)
    answer = {
        "min": reduced.to_json(),
        "ux": dec.to_json(),
        "class": cls.to_json(),
        "dim": dim.to_json(),
        "virtual_dim": vdim,
    }
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "dim": dim.dim,
        "virtual_dim": vdim,
        "class_kappa": list(cls.kappa),
        "w_kappa": list(mods["affweyl"].kappa_w(w)),
        "length": w.length,
    }


def query_space(mods, datums, ranges):
    """Every element t^lam u with each lam_i in [-r, r] and u in W0, as
    query jobs; used to freeze the per-element references."""
    import itertools

    jobs = []
    for group, r in ranges.items():
        datum = datums[group]
        words = [[i + 1 for i in u.word] for u in mods["finiteweyl"].enumerate_w0(datum)]
        for lam in itertools.product(range(-r, r + 1), repeat=datum.rank):
            for word in words:
                jobs.append({"kind": "query", "group": group, "lam": list(lam), "word": word})
    return jobs


def run_job(mods, job, datums, workdir):
    if job["kind"] == "table":
        return run_table(mods, job, workdir)
    if job["kind"] == "verify":
        return run_verify(mods, job, datums)
    if job["kind"] == "query":
        return run_query(mods, job)
    raise ValueError(f"unknown job kind {job['kind']!r}")


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = meter = None
    if spec.get("trace"):
        import weylcalc.cli  # noqa: F401  (load every layer before patching)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        meter = Speedometer()
        meter.calibrate()
        meter.start()

    def sampling():
        return meter.spent if meter else 0.0

    spent, started = sampling(), time.perf_counter()
    mods, datums = setup(spec["groups"])
    setup_at = (started, time.perf_counter())
    setup_s = setup_at[1] - setup_at[0] - (sampling() - spent)
    result = {"setup_s": setup_s, "jobs": []}
    jobs = spec.get("jobs", [])
    if spec.get("query_space"):
        jobs = result["space"] = query_space(mods, datums, spec["query_space"])
    signal.signal(signal.SIGALRM, _on_alarm)
    spans = []
    spent_before, first = sampling(), time.perf_counter()
    for job in jobs:
        spent, started = sampling(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, job.get("timeout_s", 60))
        try:
            output, error = run_job(mods, job, datums, spec.get("workdir")), None
        except JobTimeout:
            output, error = None, "timeout"
        except Exception as exc:  # a failing job is recorded, the pass goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ended = time.perf_counter()
        spans.append((started, ended))
        seconds = ended - started - (sampling() - spent)
        result["jobs"].append({"seconds": seconds, "output": output, "error": error})
    result["wall_s"] = time.perf_counter() - first - (sampling() - spent_before)
    if meter is not None:
        meter.stop()
        meter.calibrate()
        result["setup_ref_s"] = setup_s * meter.scale(*setup_at)
        for res, span in zip(result["jobs"], spans):
            res["ref_s"] = res["seconds"] * meter.scale(*span)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
