"""Span tracing from outside the program, for the traced run only.

``install`` rebinds every public function of the traced ``coarsereg``
modules, at every module attribute that binds it, and the public methods
(plus ``__init__``/``__post_init__``) of the classes those modules define.
Each call records a span: name, start, end, parent span, job id and thread
id. Spans live in per-thread ``array`` buffers and are written out once, at
the end (``Tracer.save``). ``aggregate`` turns a span file into per-layer
metrics; self time is a span's duration minus that of its children on the
same thread (a pool thread's first span names the job thread's open span as
its parent but is not subtracted from it, since the two run concurrently).

Counts are taken at the same boundaries. Those marked *computed* come from
argument sizes, not from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "io", "data", "densities", "known", "inference", "fourier", "nw",
           "proxy", "simulation")

# metric group -> span names (module-qualified, as ``install`` names them)
GROUPS = {
    "io.read": ("io.read_training_csv", "io.read_replicates_csv", "io.read_pairs_csv",
                "io.read_curve_csv"),
    "io.write": ("io.write_output", "io.atomic_write_text", "io.curve_csv_text",
                 "io.json_text", "io.format_float"),
    "densities.pdf": ("densities.ErrorDensity.pdf",),
    "densities.cf": ("densities.ErrorDensity.cf",),
    "known.fit_known": ("known.fit_known",),
    "known.regression_at": ("known.regression_at",),
    "known.search": ("known.find_extremum", "known.find_zeros"),
    "inference.covariance": ("inference.covariance_matrix",),
    "inference.band": ("inference.simultaneous_band",),
    "inference.pointwise": ("inference.pointwise_ci",),
    "fourier.select_cutoff": ("fourier.select_cutoff",),
    "fourier.error_cf": ("fourier.error_cf_from_replicates",),
    "fourier.empirical_cf": ("fourier.empirical_cfs",),
    "fourier.invert": ("fourier.invert_cf",),
    "nw.cv": ("nw.cv_bandwidth",),
    "nw.loo": ("nw.loo_score",),
    "nw.fit": ("nw.fit_nw",),
    "simulation.generate": ("simulation.generate",),
    "simulation.ise": ("simulation.integrated_squared_error",),
    "simulation.oracle": ("simulation.true_regression",),
    "simulation.run": ("simulation.run_replications",),
}

# (metric, unit) of the per-layer metrics this module produces; every one is
# reported for every workload, 0 where the layer does not run
TIME_METRICS = [f"{m}.self_ms" for m in MODULES] + [f"{g}.self_ms" for g in GROUPS]
CALL_METRICS = ["densities.pdf.calls", "known.fit_known.calls", "known.regression_at.calls",
                "inference.pointwise.calls", "nw.loo.calls", "simulation.oracle.calls"]
COUNT_METRICS = {
    "io.read.rows": "rows/job",
    "io.write.bytes": "B/job",
    "densities.pdf.evals": "evals/job",
    "known.kernel_cells": "cells/job",
    "known.dense_bytes": "B/job",
    "known.undefined_points": "points/job",
    "inference.covariance.gflop": "GFLOP/job",
    "inference.band.draws": "draws/job",
    "fourier.error_cf.exps": "exps/job",
    "fourier.empirical_cf.exps": "exps/job",
    "fourier.invert.cells": "cells/job",
    "nw.loo.cells": "cells/job",
}
# counts worked out from argument sizes rather than observed in the program
COMPUTED = {"densities.pdf.evals", "known.kernel_cells", "known.dense_bytes",
            "inference.covariance.gflop", "inference.band.draws", "fourier.error_cf.exps",
            "fourier.empirical_cf.exps", "fourier.invert.cells", "nw.loo.cells"}


def _size(v):
    return int(np.size(v))


# -- counters, called after the wrapped function returns (or raises) ----------
# each gets (counts, args, kwargs, result, exc) and adds into ``counts``

def _rows(c, a, k, r, e):
    if e is None:
        if hasattr(r, "n"):
            c["io.read.rows"] += r.n
        elif hasattr(r, "groups"):
            c["io.read.rows"] += sum(len(g) for g in r.groups)
        else:  # read_pairs_csv: a pair of arrays
            c["io.read.rows"] += len(r[0])


def _write_bytes(c, a, k, r, e):
    text = a[1] if len(a) > 1 else k["text"]
    c["io.write.bytes"] += len(text)


def _pdf(c, a, k, r, e):
    c["densities.pdf.evals"] += _size(a[1] if len(a) > 1 else k["u"])


def _dense(c, rows, n):
    c["known.kernel_cells"] += rows * n
    c["known.dense_bytes"] += 8 * rows * n


def _fit_known(c, a, k, r, e):
    _dense(c, len(a[2]), a[0].n)
    if e is None:
        c["known.undefined_points"] += r.meta.get("undefined", 0)


def _density_rows(c, a, k, r, e):
    _dense(c, _size(a[2]), a[0].n)


def _regression_at(c, a, k, r, e):
    if e is not None and type(e).__name__ == "DegenerateDenominatorError":
        c["known.undefined_points"] += 1


def _derivative(c, a, k, r, e):
    _dense(c, 1, a[0].n)


def _search(c, a, k, r, e):
    from coarsereg.known import SCAN_POINTS
    _dense(c, k.get("scan_points", a[5] if len(a) > 5 else SCAN_POINTS), a[0].n)


def _covariance(c, a, k, r, e):
    g, n = len(a[2]), a[0].n
    c["inference.covariance.gflop"] += 3 * 2.0 * g * g * n / 1e9


def _band(c, a, k, r, e):
    c["inference.band.draws"] += k.get("n_sim", a[4] if len(a) > 4 else 10_000)


def _error_cf(c, a, k, r, e):
    c["fourier.error_cf.exps"] += _size(a[1]) * a[0].n_pairs


def _empirical(c, a, k, r, e):
    c["fourier.empirical_cf.exps"] += 2 * _size(a[1]) * a[0].n


def _loo(c, a, k, r, e):
    c["nw.loo.cells"] += a[0].n ** 2
    if e is None and r == float("inf"):
        c["nw.loo.inf"] += 1


def _invert(c, a, k, r, e):
    cfg, grid = a[2], a[3]
    # FourierConfig.resolved is itself traced; call the original
    cfg = type(cfg).resolved.__wrapped__(cfg, grid)
    nodes = 2 * int(round(cfg.cutoff / cfg.t_step)) + 1 if cfg.cutoff > 0 else 0
    c["fourier.invert.cells"] += nodes * len(grid)
    c["fourier.invert.calls"] += 1
    c["fourier.invert.nodes"] += nodes
    c["fourier.invert.cutoff"] += cfg.cutoff


def _run(c, a, k, r, e):
    if e is None:
        c["simulation.replicates"] += r.replications
        c["simulation.replicate_failures"] += r.failures


COUNTERS = {
    "io.read_training_csv": _rows, "io.read_replicates_csv": _rows,
    "io.read_pairs_csv": _rows,
    "io.write_output": _write_bytes,
    "densities.ErrorDensity.pdf": _pdf,
    "known.fit_known": _fit_known,
    "known.predictor_density": _density_rows,
    "known.response_weighted_density": _density_rows,
    "known.regression_at": _regression_at,
    "known.regression_derivative_at": _derivative,
    "known.find_extremum": _search, "known.find_zeros": _search,
    "inference.covariance_matrix": _covariance,
    "inference.simultaneous_band": _band,
    "fourier.error_cf_from_replicates": _error_cf,
    "fourier.empirical_cfs": _empirical,
    "fourier.invert_cf": _invert,
    "nw.loo_score": _loo,
    "simulation.run_replications": _run,
}


class _Buffer:
    """Spans opened on one thread."""

    def __init__(self, index):
        self.index = index
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent_buf = array("i")
        self.parent_idx = array("q")
        self.job = array("i")
        self.stack = []
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []
        self.job = -1
        self.job_buffer = None

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def start_job(self, job_id):
        self.job = job_id
        self.job_buffer = self._buffer()

    def counts(self):
        total = defaultdict(float)
        for buf in self.buffers:
            for k, v in buf.counts.items():
                total[k] += v
        return dict(total)

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                pbuf, pidx = buf.index, stack[-1]
            elif tracer.job_buffer is not None and tracer.job_buffer is not buf \
                    and tracer.job_buffer.stack:
                pbuf, pidx = tracer.job_buffer.index, tracer.job_buffer.stack[-1]
            else:
                pbuf, pidx = -1, -1
            i = len(buf.name)
            buf.name.append(nid)
            buf.parent_buf.append(pbuf)
            buf.parent_idx.append(pidx)
            buf.job.append(tracer.job)
            buf.end.append(0.0)
            stack.append(i)
            exc = None
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc, result = e, None
                raise
            finally:
                buf.end[i] = clock()
                stack.pop()
                if counter is not None and tracer.job >= 0:
                    counter(buf.counts, args, kwargs, result, exc)

        return traced

    def install(self):
        """Wrap the public surface of the traced modules in place."""
        mods = {m: importlib.import_module(f"coarsereg.{m}") for m in MODULES}
        package = [mod for key, mod in sys.modules.items()
                   if key == "coarsereg" or key.startswith("coarsereg.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(short, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{short}.{attr}"
                    traced = self.wrap(name, obj)
                    for other in package:
                        for a, o in list(vars(other).items()):
                            if o is obj:
                                setattr(other, a, traced)

    def _wrap_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def save(self, path):
        """Write every span, flattened over threads, as one ``.npz`` file."""
        offsets = np.cumsum([0] + [len(b.name) for b in self.buffers])
        cols = {k: [] for k in ("name", "start", "end", "parent", "job", "thread")}
        for buf in self.buffers:
            pb = np.frombuffer(buf.parent_buf, dtype=np.int32)
            pi = np.frombuffer(buf.parent_idx, dtype=np.int64)
            cols["parent"].append(np.where(pb >= 0, offsets[np.maximum(pb, 0)] + pi, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            cols["job"].append(np.frombuffer(buf.job, dtype=np.int32))
            cols["thread"].append(np.full(len(buf.name), buf.index, dtype=np.int32))
        np.savez(path, names=np.array(self.names),
                 **{k: np.concatenate(v) for k, v in cols.items()})


def aggregate(path, jobs: int) -> dict:
    """Per-layer metrics, per timed job, from a span file.

    Only spans of timed jobs (job id >= 0) count. Returns ``{"metrics":
    {name: value}, "threads_per_job": float, "by_name": {span: [calls, self ms]}}``.
    """
    data = np.load(path)
    names = list(data["names"])
    job, thread = data["job"], data["thread"]
    start, end, parent = data["start"], data["end"], data["parent"]
    dur = end - start
    same = (parent >= 0)
    same[same] = thread[parent[same]] == thread[same]
    child = np.zeros(len(dur))
    np.add.at(child, parent[same], dur[same])
    self_ms = (dur - child) * 1e3
    timed = job >= 0
    calls = np.bincount(data["name"][timed], minlength=len(names))
    selfs = np.bincount(data["name"][timed], weights=self_ms[timed], minlength=len(names))
    by_name = {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(names)}

    out = {m: 0.0 for m in TIME_METRICS + CALL_METRICS}
    for n, (c, s) in by_name.items():
        out[f"{n.split('.')[0]}.self_ms"] += s / jobs
    for group, members in GROUPS.items():
        out[f"{group}.self_ms"] = sum(by_name.get(m, (0, 0.0))[1] for m in members) / jobs
        if f"{group}.calls" in out:
            out[f"{group}.calls"] = sum(by_name.get(m, (0, 0.0))[0] for m in members) / jobs
    threads = [len(np.unique(thread[job == j])) for j in np.unique(job[timed])]
    return {"metrics": out, "threads_per_job": float(np.mean(threads)) if threads else 0.0,
            "by_name": by_name, "spans": int(timed.sum())}
