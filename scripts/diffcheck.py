#!/usr/bin/env python3
"""Check that a git revision and this checkout write the same output bytes.

    python scripts/diffcheck.py REV

Unpacks REV's tree with ``git archive`` into a temporary directory, makes
the ``analysis`` benchmark's inputs once (n = 5e4, from
``perfbench/workloads.py``) and runs its 10 commands, ``extrema`` and
``zeros`` under a Gaussian density (whose scans stay dense, while the
Laplace ones decide from certified sums), ``band`` under a uniform density
(whose kernel has zeros, unlike the Laplace one), ``nw --bandwidth cv`` on
the first 2 000 rows of the ``noisy`` inputs (whose leave-one-out pass is
pooled free and serial on one CPU), two known-error ``simulate`` cells with
coverage points (one whose replicates are shared with the pool thread, and
the ``study-known`` benchmark's m1 cell, whose 200 replicates form one
stacked kernel pass that pools itself) and the ``study-nw`` benchmark's two
NW cells (m1 with an RMSE point, sine2 with none) through REV's tree and
through this checkout's. Each command runs in a fresh ``python -I``
interpreter, once free and once pinned to one CPU, so its four runs cover
both trees and both the pooled and the serial block passes. The children
run BLAS with numpy's default thread count, so a free run may use several
BLAS threads and a one-CPU run uses one: the band runs its BLAS work on one
OpenBLAS thread itself, and no other output's bits depend on the BLAS
thread count (``tests/test_blas_threads.py``). A revision older than the
band's own pin writes band bounds that move with the BLAS thread count, so
its free and one-CPU runs may differ.

Every output file is compared with REV's free run. The script prints each
file's sha256 and, where a run's file differs, the first differing line and
the largest distance between the two files' numbers in units in the last
place. It exits 1 on any difference or failed run.
"""

import argparse
import hashlib
import itertools
import os
import re
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave the benchmark's directory as it is

from workloads import (  # noqa: E402
    STUDY_KNOWN_CELLS, STUDY_KNOWN_REPS, STUDY_NW_CELLS, STUDY_NW_REPS, analysis_kinds,
    cell_args, make_analysis_inputs,
)

SEED = 1

# 101 x 2e4 cells per replicate, so its replicates are shared with the pool
# thread, each holding a grid pass and a coverage-point variance pass; the
# stacked cell is the study-known benchmark's m1 cell, whose replicates run
# on the calling thread while their one stacked pass, 200 x 104 x 250 =
# 5.2e6 cells in 100 blocks of two samples, shares its blocks with the pool
# thread; the NW cells are the study-nw benchmark's two, whose replicates
# (2.03e6 cells each) are shared free and serial pinned: m1 with an RMSE
# point, so each replicate's one kernel pass holds its grid and query rows,
# and sine2 without one
STUDIES = [
    ("simulate-known", ["simulate", "--model", "m1", "--deltakind", "gaussian",
                        "--nsdelta", "0.25", "--nseps", "0.1", "--n", "20000",
                        "--coverage-at", "0.25,0.5,0.75", "--rmse-at", "0.5",
                        "--estimator", "known", "--reps", "40"]),
    ("simulate-known-stacked", ["simulate", *cell_args(STUDY_KNOWN_CELLS[0]),
                                "--estimator", "known", "--reps", str(STUDY_KNOWN_REPS)]),
    *((f"simulate-nw-{cell[0]}", ["simulate", *cell_args(cell), "--estimator", "nw",
                                   "--reps", str(STUDY_NW_REPS)]) for cell in STUDY_NW_CELLS),
]


def other_densities(paths):
    """The analysis ``extrema`` and ``zeros`` commands under a Gaussian
    density, whose 512 x n scans run the dense kernel pass, and ``band``
    under a uniform density, whose kernel has zeros: every Laplace kernel
    value is positive, so the analysis band never takes the branch of
    ``known._flat_support`` that finds each point's kernel support."""
    known = ["--train", paths["train"], "--delta", "gaussian:0.1"]
    return [("extrema-gaussian", ["extrema", *known, "--interval", "0.3:0.7"]),
            ("zeros-gaussian", ["zeros", *known, "--interval", "0:1", "--level", "3"]),
            ("band-uniform", ["band", "--train", paths["train"], "--delta", "uniform:0.1",
                              "--grid", "0:1:201"])]


# rows of the leave-one-out CV input: 2 000^2 cells for each of the 32
# bandwidths, in 63 blocks of held-out rows
CV_ROWS = 2_000


def cross_validated(paths, directory):
    """``nw --bandwidth cv`` on the first ``CV_ROWS`` rows of the ``noisy``
    inputs, written under ``directory``, as the n^2 pass of leave-one-out
    CV would take minutes on the whole file."""
    path = os.path.join(directory, "noisy_cv.csv")
    with open(paths["noisy"]) as src, open(path, "w") as dst:
        dst.writelines(itertools.islice(src, 1 + CV_ROWS))  # the header, then the rows
    return [("nw-cv", ["nw", "--train", path, "--grid", "0:1:201", "--bandwidth", "cv"])]


RUNS = [("rev", "free"), ("rev", "one-cpu"), ("tree", "free"), ("tree", "one-cpu")]

CHILD = """
import os, sys
src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
if mode == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, src)
import coarsereg
from coarsereg.cli import main
assert os.path.dirname(coarsereg.__file__) == os.path.join(src, "coarsereg"), coarsereg.__file__
sys.exit(main(argv))
"""

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def unpack(rev, directory):
    """REV's tree, unpacked under ``directory``, and its commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = os.path.join(directory, "rev.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, sha],
                   check=True)
    tree = os.path.join(directory, "rev")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree, sha


def run(src, mode, argv, cwd):
    """The files one child writes in ``cwd``, or its exit status and error."""
    os.makedirs(cwd)
    child = subprocess.run([sys.executable, "-I", "-c", CHILD, src, mode, *argv],
                           cwd=cwd, capture_output=True, text=True)
    if child.returncode:
        return f"exit {child.returncode}: {child.stderr.strip().splitlines()[-1:]}"
    files = {}
    for name in sorted(os.listdir(cwd)):
        with open(os.path.join(cwd, name), "rb") as fh:
            files[name] = fh.read()
    return files


def first_difference(a, b):
    """Where ``a`` and ``b`` first differ, as a line and a column, and up to
    60 bytes of each from a little before it on that line."""
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line_start = a.rfind(b"\n", 0, at) + 1
    start = max(line_start, at - 20)
    return a.count(b"\n", 0, at) + 1, at - line_start + 1, a[start:at + 40], b[start:at + 40]


def ordered(value):
    """A float64's place in the order of all float64s, as an integer, so two
    values' difference is their distance in units in the last place."""
    bits = int(np.float64(value).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def largest_ulps(a, b):
    """The largest ulp distance between the numbers of ``a`` and ``b``, taken
    in order, or None when they hold different counts of numbers."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    return max((abs(ordered(float(x)) - ordered(float(y))) for x, y in zip(xs, ys)), default=0)


def compare(kind, results):
    """Print one line per output file of ``kind``; True if all runs agree."""
    failed = {label: error for label, error in results.items() if isinstance(error, str)}
    for label, error in failed.items():
        print(f"{kind:<22} {'/'.join(label)} failed: {error}")
    if failed:
        return False
    reference = results[RUNS[0]]
    same = True
    for name in sorted(set().union(*results.values())):
        want, notes = reference.get(name), []
        for label in RUNS[1:]:
            got = results[label].get(name)
            if got == want:
                continue
            if want is None or got is None:
                notes.append(f"{'/'.join(label)}: {'no' if got is None else 'an extra'} file")
                continue
            line, column, x, y = first_difference(want, got)
            ulps = largest_ulps(want, got)
            notes.append(f"{'/'.join(label)}: sha256 {hashlib.sha256(got).hexdigest()[:16]}, "
                         f"line {line} column {column}: {x!r} became {y!r}; largest distance "
                         + ("n/a (other numbers)" if ulps is None else f"{ulps} ulp"))
        digest = "-" * 16 if want is None else hashlib.sha256(want).hexdigest()[:16]
        print(f"{kind:<22} {name:<16} {digest}  " + ("DIFFERS" if notes else "same in all 4 runs"))
        for note in notes:
            print(f"    {note}")
        same = same and not notes
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare this checkout with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="diffcheck-") as scratch:
        try:
            rev_tree, sha = unpack(args.rev, scratch)
        except subprocess.CalledProcessError as exc:
            print(f"diffcheck: cannot unpack {args.rev!r}: {exc}", file=sys.stderr)
            return 2
        inputs = os.path.join(scratch, "inputs")
        os.makedirs(inputs)
        paths = make_analysis_inputs(np.random.default_rng(SEED), inputs)
        kinds = analysis_kinds(paths) + other_densities(paths) + cross_validated(paths, inputs)
        sources = {"rev": os.path.join(rev_tree, "src"), "tree": os.path.join(ROOT, "src")}
        print(f"diffcheck: {args.rev} ({sha[:12]}) against the working tree, "
              f"{len(os.sched_getaffinity(0))} CPUs free, 1 pinned")
        same = True
        for i, (kind, command) in enumerate(kinds + STUDIES):
            argv = [*command, "--seed", str(SEED), "--out", "out"]
            results = {(tree, mode): run(sources[tree], mode, argv,
                                         os.path.join(scratch, "runs", str(i), tree, mode))
                       for tree, mode in RUNS}
            same = compare(kind, results) and same
        print("diffcheck: every output is byte-identical" if same
              else "diffcheck: outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
