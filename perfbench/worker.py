"""Benchmark worker: one fresh interpreter that imports ``coarsereg`` from
the checkout's ``src``, runs one untimed warm-up job, prints ``READY`` and
then runs the timed jobs in a closed loop (one client, next job after the
previous one ends) by calling ``coarsereg.cli.main(argv)`` in process. It
starts no job after the plan's ``deadline_s``, so a much slower program
still ends in bounded time.

Usage: python3 -I perfbench/worker.py PLAN.json {pass|trace} TAG

Outputs go to ``TAG/`` beside the plan and the timings to
``result-TAG.json``; ``trace`` also wraps the layers (``tracing.py``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _call(main, argv):
    """Run one job; return (exit status, error text or None)."""
    try:
        return main(argv), None
    except SystemExit as exc:  # argparse usage errors
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit({exc.code})"
    except Exception:
        return 1, traceback.format_exc(limit=3)


def main() -> int:
    plan_path, mode, tag = sys.argv[1:4]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path[:0] = [src, here]
    with open(plan_path) as fh:
        plan = json.load(fh)
    work = os.path.dirname(os.path.abspath(plan_path))
    out_dir = os.path.join(work, tag)
    os.makedirs(out_dir)

    t0 = time.perf_counter()
    import coarsereg
    import coarsereg.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(coarsereg.__file__).startswith(src + os.sep):
        print(f"coarsereg imported from {coarsereg.__file__}, not {src}", file=sys.stderr)
        return 3
    oracle = coarsereg.simulation.true_regression  # the original, for cache_info()

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.start_job(-1)
    cli_main = sys.modules["coarsereg.cli"].main  # the traced one in trace mode

    os.chdir(os.path.join(work, "warmup"))
    rc, err = _call(cli_main, plan["warmup"]["argv"])
    if rc != 0:
        print(f"warm-up job failed ({rc}): {err}", file=sys.stderr)
        return 4
    print("READY", flush=True)

    os.chdir(out_dir)
    records = []
    cache0 = oracle.cache_info()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, job in enumerate(plan["jobs"]):
        if time.perf_counter() - wall0 > plan["deadline_s"]:
            break
        if tracer is not None:
            tracer.start_job(i)
        t, c = time.perf_counter(), time.process_time()
        rc, err = _call(cli_main, job["argv"])
        records.append([time.perf_counter() - t, time.process_time() - c, rc, err])
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    cache1 = oracle.cache_info()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "import_s": import_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak_kb,
        "jobs": records,
        "oracle": {"hits": cache1.hits - cache0.hits, "misses": cache1.misses - cache0.misses},
    }
    if tracer is not None:
        tracer.save(os.path.join(work, "spans.npz"))
        result["counts"] = tracer.counts()
    with open(os.path.join(work, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
