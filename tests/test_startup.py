"""Every CLI subcommand runs without loading scipy.

scipy's import alone costs several times the work of a small CLI call, so
only :meth:`ErrorDensity.custom`'s validation may load it. The check runs
in a fresh, isolated interpreter, so that modules imported by other tests
do not count.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys
from pathlib import Path

import numpy as np

sys.path.insert(0, sys.argv[1])
from coarsereg.cli import main

tmp = Path(sys.argv[2])
rng = np.random.default_rng(0)
w = rng.uniform(0, 1, 40)
y = np.sin(2 * np.pi * w) + rng.normal(0, 0.2, 40)
(tmp / "train.csv").write_text(
    "w,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(w, y)))
(tmp / "reps.csv").write_text("group,u\n" + "".join(
    f"g{i},{float(v + rng.laplace(0, 0.3))!r}\n" for i, v in enumerate(rng.normal(size=60))
    for _ in range(2)))
(tmp / "pairs.csv").write_text("t,x\n" + "".join(
    f"{float(t)!r},{float(1 + 2 * t + rng.normal(0, 0.1))!r}\n" for t in rng.uniform(0, 1, 30)))

train, reps, known = (["--train", str(tmp / "train.csv")], ["--replicates", str(tmp / "reps.csv")],
                      ["--delta", "gaussian:0.144"])
simulate = ["simulate", "--model", "m1", "--n", "30", "--nsdelta", "0.2", "--nseps", "0.5",
            "--reps", "2", "--grid", "0.2:0.8:5", "--rmse-at", "0.5"]
runs = [
    ["fit-known", *train, *known, "--grid", "0:1:5"],
    ["ci", *train, *known, "--grid", "0:1:5"],
    ["band", *train, *known, "--grid", "0:1:5", "--nsim", "50"],
    ["extrema", *train, *known, "--interval", "0:1", "--kind", "max"],
    ["zeros", *train, *known, "--interval", "0:1"],
    ["fit-fourier", *train, *reps, "--grid", "0:1:5", "--lambdadelta", "2"],
    ["cf", *reps, "--tmax", "2", "--tstep", "0.5"],
    ["nw", *train, "--grid", "0:1:5"],
    ["fit-proxy", "--pairs", str(tmp / "pairs.csv")],
    [*simulate, "--estimator", "known", "--coverage-at", "0.5", "--out", str(tmp / "known.json")],
    [*simulate, "--estimator", "nw", "--out", str(tmp / "nw.json")],
]
codes = [[run[0], main(run)] for run in runs]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}), file=sys.stderr)
"""


def test_no_subcommand_loads_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-I", "-c", SCRIPT, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stderr.strip().splitlines()[-1])
    assert [code for _, code in result["codes"]] == [0] * 11, result["codes"]
    assert result["scipy"] == []
