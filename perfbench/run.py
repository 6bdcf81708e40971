"""coarsereg benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload {analysis,study-known,study-nw} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. It makes the workload's inputs from
the seed (``workloads.py``), starts fresh worker interpreters
(``worker.py``) that call ``coarsereg.cli.main`` in process, checks every
job's output against references built here (``checks.py``,
``reference.py``) and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced (``tracing.py``) and reports the
per-layer metrics and the tracing overhead. An untraced run times the same
job list in several fresh workers (``PASSES``) and keeps each job's best
time (``combine``). Each run does a fixed amount of work sized so that its
timed loops take about ``--seconds`` on a 2-vCPU Xeon; the same work on
every commit keeps job counts and percentiles comparable. Detailed results,
with the environment, go to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh workers that each time set-up and then run the same timed jobs. On a
# shared VM the host slows each vCPU by 1.4-2x in bursts of 0.1-6 s, with no
# steal time to show for it; a job's best time over several passes is rarely
# inside a burst in all of them. A busy stretch longer than the run still
# shows. Each pass does 1/PASSES of the run's work. The short study-known jobs
# get the most passes; analysis does one 10-job cycle per pass. study-nw gets
# two: its passes in one run read alike, and oracle_rmse, which varies with
# the seed, needs the distinct jobs that more passes would cost.
PASSES = {"analysis": 4, "study-known": 8, "study-nw": 2}
# share of --seconds of work the traced run does (spans are kept in memory)
TRACE_SHARE = 0.25
# no job starts after this multiple of a worker's share of --seconds
DEADLINE_FACTOR = 2.0
# every worker is killed this long after the run started
RUN_TIMEOUT_S = 160.0
STARTED = time.perf_counter()

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "cpu_ms_per_job": "ms", "peak_rss_mb": "MB", "oracle_rmse": "response",
}
PER_LAYER = {
    "setup.import_s": "s",
    **{m: "ms/job" for m in tracing.TIME_METRICS},
    **{m: "calls/job" for m in tracing.CALL_METRICS},
    **tracing.COUNT_METRICS,
    "fourier.t_nodes": "nodes/call", "fourier.cutoff": "1/x",
    "nw.loo.inf_frac": "ratio", "simulation.oracle.hit_ratio": "ratio",
    "simulation.replicate_fail_frac": "ratio",
    "trace.jobs_per_s_ratio": "ratio", "trace.threads_per_job": "threads",
}


class BenchError(Exception):
    pass


# -- environment -------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    quota = _read("/sys/fs/cgroup/cpu.max")  # cgroup v2: "quota period" or "max period"
    if quota is None:
        q = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        quota = f"{q} {_read('/sys/fs/cgroup/cpu/cpu.cfs_period_us')}" if q else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": workloads.nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "cgroup_cpu_max": quota, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": _blas_threads(), "seed": seed,
    }


# -- workers -------------------------------------------------------------------

def run_worker(work, mode, tag):
    """Start a fresh worker; return (set-up seconds, result dict)."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
           os.path.join(work, "plan.json"), mode, tag]
    with open(os.path.join(work, f"worker-{tag}.err"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, cwd=work)
        watchdog = threading.Timer(max(0.0, RUN_TIMEOUT_S - (t0 - STARTED)), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        with open(log.name) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {tag} ({mode}) exited with {rc}: {tail}")
    with open(os.path.join(work, f"result-{tag}.json")) as fh:
        return setup_s, json.load(fh)


# -- metrics -------------------------------------------------------------------

def tail(latencies):
    """The highest whole percentile with at least 10 samples beyond it
    (nearest rank); returns (percentile, value)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return 100, lat[-1]
    p = math.floor(100 * (n - 10) / n)
    return p, lat[math.ceil(p * n / 100) - 1]


def combine(passes):
    """One result from several passes over the same job list: each job's
    latency and CPU time are its least over the passes, its exit status the
    first non-zero one; the wall time is the sum of the best latencies, and
    peak memory the median over the passes. Jobs past the shortest pass's
    deadline are dropped."""
    jobs = []
    for recs in zip(*(r["jobs"] for r in passes)):
        bad = next((r for r in recs if r[2] != 0), recs[0])
        jobs.append([min(r[0] for r in recs), min(r[1] for r in recs), bad[2], bad[3]])
    return {
        "jobs": jobs, "wall_s": sum(r[0] for r in jobs), "cpu_s": sum(r[1] for r in jobs),
        "peak_rss_kb": statistics.median(r["peak_rss_kb"] for r in passes),
    }


def end_to_end(setups, res, residuals):
    lat = [r[0] for r in res["jobs"]]
    p, tail_s = tail(lat)
    jobs = len(lat)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs / res["wall_s"],
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "cpu_ms_per_job": res["cpu_s"] / jobs * 1e3,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "oracle_rmse": math.sqrt(float(np.mean(np.square(residuals)))),
    }
    return values, {"tail_percentile": p, "samples": jobs}


def per_layer(work, res, base, import_s):
    jobs = len(res["jobs"])
    agg = tracing.aggregate(os.path.join(work, "spans.npz"), jobs)
    values = dict(agg["metrics"])
    counts = res["counts"]
    for name in tracing.COUNT_METRICS:
        values[name] = counts.get(name, 0.0) / jobs
    calls = counts.get("fourier.invert.calls", 0.0)
    values["fourier.t_nodes"] = counts.get("fourier.invert.nodes", 0.0) / calls if calls else 0.0
    values["fourier.cutoff"] = counts.get("fourier.invert.cutoff", 0.0) / calls if calls else 0.0
    loo = values["nw.loo.calls"] * jobs
    values["nw.loo.inf_frac"] = counts.get("nw.loo.inf", 0.0) / loo if loo else 0.0
    looked = res["oracle"]["hits"] + res["oracle"]["misses"]
    values["simulation.oracle.hit_ratio"] = res["oracle"]["hits"] / looked if looked else 0.0
    reps = counts.get("simulation.replicates", 0.0)
    values["simulation.replicate_fail_frac"] = (
        counts.get("simulation.replicate_failures", 0.0) / reps if reps else 0.0)
    values["setup.import_s"] = import_s
    values["trace.jobs_per_s_ratio"] = (jobs / res["wall_s"]) / (len(base["jobs"]) / base["wall_s"])
    values["trace.threads_per_job"] = agg["threads_per_job"]
    return values, {"spans": agg["spans"],
                    "by_span": {k: v for k, v in sorted(agg["by_name"].items()) if v[0]}}


# -- one run -----------------------------------------------------------------

def _bytes(*path):
    try:
        with open(os.path.join(*path), "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _outputs(job):
    names = [job["out"]]
    if job["argv"][0] == "simulate":
        names.append(os.path.splitext(job["out"])[0] + "_deciles.csv")
    return names


def verify(workload, plan, work, res, tags):
    """Check every timed job's output in the first worker's directory and
    that every other worker wrote the same bytes for it (the program's
    determinism contract). Returns (failed job indexes with reasons, curve
    residuals, per-kind curve RMSEs)."""
    ctx = checks.analysis_context() if workload == "analysis" else None
    failures, residuals, rmse = {}, [], {}
    for i, (job, rec) in enumerate(zip(plan["jobs"], res["jobs"])):
        if rec[2] != 0:
            failures[i] = f"exit status {rec[2]}: {rec[3]}"
            continue
        for tag in tags[1:]:
            if any(_bytes(work, tags[0], n) != _bytes(work, tag, n) for n in _outputs(job)):
                failures[i] = f"output of {tag} differs from {tags[0]}"
        error, res_i = checks.check(workload, job, os.path.join(work, tags[0], job["out"]), ctx)
        if error:
            failures[i] = error
        residuals.extend(res_i)
        if len(res_i):
            rmse.setdefault(job["kind"], []).append(math.sqrt(float(np.mean(np.square(res_i)))))
    return failures, residuals, rmse


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "coarsereg", "cli.py")):
        raise BenchError(f"no coarsereg sources under {ROOT}/src")
    env = environment(args.seed)
    out_root = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("inputs", "warmup"):
        os.makedirs(os.path.join(work, sub))
    try:
        # work and deadline of each worker
        passes = 1 if args.trace else PASSES[args.workload]
        seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0 / passes)
        plan = workloads.plan(args.workload, args.seed, seconds, os.path.join(work, "inputs"))
        plan["deadline_s"] = DEADLINE_FACTOR * args.seconds / passes
        with open(os.path.join(work, "plan.json"), "w") as fh:
            json.dump(plan, fh)

        setups, results = [], []
        if args.trace:
            _, base = run_worker(work, "pass", "base")
            _, res = run_worker(work, "trace", "trace")
            tags = ["base", "trace"]
        else:
            tags = [f"pass{k}" for k in range(passes)]
            for tag in tags:
                setup_s, res_k = run_worker(work, "pass", tag)
                setups.append(setup_s)
                results.append(res_k)
            res = combine(results)

        failures, residuals, rmse = verify(args.workload, plan, work, res, tags)
        if not len(residuals):
            raise BenchError("no job produced a curve to compare with the reference")
        if args.trace:
            metrics, detail = per_layer(work, res, base,
                                        statistics.median([base["import_s"], res["import_s"]]))
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(setups, res, residuals)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(res["jobs"])
    latency = {}
    for job, rec in zip(plan["jobs"], res["jobs"]):
        latency.setdefault(job["kind"], []).append(rec[0] * 1e3)
    detail.update({"failed_frac": len(failures) / attempted, "failures": failures,
                   "curve_rmse": rmse, "setups_s": setups, "latency_ms": latency,
                   "pass_jobs_per_s": [len(r["jobs"]) / r["wall_s"] for r in results]})
    summary = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "detail": detail, **summary}
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_root, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    return summary, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        summary, record = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in summary["metrics"].items():
        note = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name:34s} {m['value']:<22.10g} {m['unit']}{note}")
    d = record["detail"]
    if not args.trace:
        print(f"{'failed_frac':34s} {d['failed_frac']:<22.10g} ratio")
        print(f"job_tail_ms is p{d['tail_percentile']} of {d['samples']} jobs")
    for i, reason in d["failures"].items():
        print(f"job {i} failed: {reason}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
