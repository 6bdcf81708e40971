#!/usr/bin/env python3
"""Benchmark a git revision against this checkout in alternating pairs.

    python scripts/benchpairs.py REV --workload analysis --pairs 10 \
        [--workload study-known --pairs 3 ...] [--out BENCH.json]

Unpacks REV's tree with ``git archive`` into a temporary directory (as
``scripts/diffcheck.py`` does) and, for each workload and each of its
``--pairs`` pairs k, runs ``perfbench/run.py --workload W --seed k
--seconds S``, with S the ``run_seconds`` of ``BENCHMARK.json``, once in
REV's tree and once in this checkout, one after the other; the tree that goes
first alternates from pair to pair, so a slow drift of the host lands on
both sides alike. Each run is a fresh ``python`` process in its own tree.

Writes one JSON object (to ``--out``, or stdout): per workload, every
run's end-to-end metrics by seed, each metric's median and interquartile
range over the pairs on each side, the checkout's median change relative
to REV's, the number of pairs in which the checkout did better, and the
``environment`` block ``run.py`` printed in the first pair. Exits 1 if any
run failed or reported a failed job.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from diffcheck import unpack  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]


def bench(tree, workload, seed):
    """``run.py``'s environment block and summary for one run in ``tree``."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = child.stdout.splitlines()
    if child.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: exit {child.returncode}: "
                           f"{child.stderr.strip().splitlines()[-1:]}")
    environment = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("environment "))
    return environment, json.loads(lines[-1])


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1)}


def summarize(runs):
    """Per metric: both sides' median and IQR, the checkout's relative
    change of the median, and the pairs in which the checkout did better."""
    out = {}
    for name, better in BETTER.items():
        rev = [r["rev"]["metrics"][name]["value"] for r in runs]
        tree = [r["checkout"]["metrics"][name]["value"] for r in runs]
        sign = 1 if better == "lower" else -1
        out[name] = {
            "better": better, "rev": spread(rev), "checkout": spread(tree),
            "change": float(np.median(tree) / np.median(rev) - 1) if np.median(rev) else None,
            "checkout_better_pairs": sum(sign * (t - r) < 0 for r, t in zip(rev, tree)),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare this checkout with")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, action="append", required=True,
                        help="pairs of runs; one per --workload, in the same order")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if len(args.pairs) != len(args.workload):
        parser.error("give one --pairs per --workload")
    pairs = dict(zip(args.workload, args.pairs))
    report = {"command": " ".join(["python", "scripts/benchpairs.py", *sys.argv[1:]]),
              "seconds": SECONDS, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as scratch:
        rev_tree, sha = unpack(args.rev, scratch)
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                    capture_output=True, text=True, check=True).stdout)
        report.update(rev=sha, checkout=head + (" with uncommitted changes" if dirty else ""))
        trees = {"rev": rev_tree, "checkout": ROOT}
        for workload in args.workload:
            runs, environment = [], None
            for k in range(pairs[workload]):
                seed = k + 1
                order = ["rev", "checkout"] if k % 2 == 0 else ["checkout", "rev"]
                run = {"seed": seed, "order": order}
                for side in order:
                    env, run[side] = bench(trees[side], workload, seed)
                    environment = environment or env
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{m}={v['value']:.4g}" for m, v in run[side]["metrics"].items()),
                        file=sys.stderr)
                runs.append(run)
            report["workloads"][workload] = {"environment": environment, "runs": runs,
                                             "summary": summarize(runs)}
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failed = [(w, r["seed"]) for w, rep in report["workloads"].items() for r in rep["runs"]
              if not (r["rev"]["correct"] and r["checkout"]["correct"])]
    for workload, seed in failed:
        print(f"benchpairs: {workload} seed {seed} reported failed jobs", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
