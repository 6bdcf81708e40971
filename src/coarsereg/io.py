"""CSV and JSON file formats.

Input schemas (exact headers):

* training data:  ``w,y``
* replicate data: ``group,u``  (group ids are arbitrary strings; rows with
  equal ids form one group)
* proxy calibration pairs: ``t,x``
* proxy analysis pairs:    ``t,y``

All numeric fields must be finite; NaN and infinities are rejected with an
error naming file, line and column. Curve values are written with 17
significant digits so a written curve re-reads bit-exactly; undefined
points serialize as ``nan`` in outputs only.

Writes go through a temp file plus rename, so a crashed run never leaves a
half-written artifact.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from typing import Optional

import numpy as np

from .data import RegressionCurve, ReplicatedSample, TrainingSample
from .errors import DataFormatError


def format_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


def _parse_float(text: str, *, path, line, column) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataFormatError(
            f"invalid number {text!r}", file=str(path), line=line, column=column
        ) from None
    if not math.isfinite(v):
        raise DataFormatError(
            f"non-finite value {text!r}", file=str(path), line=line, column=column
        )
    return v


def _read_rows(path, expected_header):
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataFormatError(str(exc), file=str(path)) from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file", file=str(path), line=1) from None
        header = [h.strip() for h in header]
        if header != list(expected_header):
            raise DataFormatError(
                f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
                file=str(path),
                line=1,
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise DataFormatError(
                    f"expected {len(expected_header)} fields, got {len(row)}",
                    file=str(path),
                    line=lineno,
                )
            rows.append((lineno, [cell.strip() for cell in row]))
        if not rows:
            raise DataFormatError("no data rows", file=str(path), line=2)
    return rows


def read_training_csv(path) -> TrainingSample:
    rows = _read_rows(path, ("w", "y"))
    w, y = [], []
    for lineno, (wtxt, ytxt) in rows:
        w.append(_parse_float(wtxt, path=path, line=lineno, column="w"))
        y.append(_parse_float(ytxt, path=path, line=lineno, column="y"))
    return TrainingSample(w, y)


def read_replicates_csv(path) -> ReplicatedSample:
    rows = _read_rows(path, ("group", "u"))
    groups: dict = {}
    for lineno, (gid, utxt) in rows:
        groups.setdefault(gid, []).append(
            _parse_float(utxt, path=path, line=lineno, column="u")
        )
    for gid, vals in groups.items():
        if len(vals) < 2:
            raise DataFormatError(
                f"group {gid!r} has a single measurement; every group needs >= 2",
                file=str(path),
            )
    return ReplicatedSample(list(groups.values()))


def read_pairs_csv(path, columns=("t", "x")) -> tuple:
    rows = _read_rows(path, columns)
    a, b = [], []
    for lineno, (atxt, btxt) in rows:
        a.append(_parse_float(atxt, path=path, line=lineno, column=columns[0]))
        b.append(_parse_float(btxt, path=path, line=lineno, column=columns[1]))
    return np.array(a), np.array(b)


def atomic_write_text(path, text: str):
    """Write text to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def curve_csv_text(curve: RegressionCurve, kind: str = "fit") -> str:
    """Render a curve as CSV.

    ``kind`` is ``"fit"`` (columns x,m_hat) or ``"ci"`` (columns
    x,m_hat,v_hat,lower,upper).
    """
    lines = []
    if kind == "fit":
        lines.append("x,m_hat")
        for x, v in zip(curve.grid.points, curve.values):
            lines.append(f"{format_float(x)},{format_float(v)}")
    elif kind == "ci":
        if curve.variance is None or curve.band_lower is None:
            raise ValueError("curve has no variance/interval columns")
        lines.append("x,m_hat,v_hat,lower,upper")
        for x, v, s, lo, hi in zip(
            curve.grid.points,
            curve.values,
            curve.variance,
            curve.band_lower,
            curve.band_upper,
        ):
            lines.append(
                ",".join(format_float(t) for t in (x, v, s, lo, hi))
            )
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    return "\n".join(lines) + "\n"


def read_curve_csv(path) -> dict:
    """Read a curve CSV back into column arrays (round-trip helper)."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataFormatError(str(exc), file=str(path)) from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader)
        cols: dict = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                cols[name].append(float(cell))
    return {name: np.array(vals) for name, vals in cols.items()}


def _jsonable(obj):
    """``obj`` with numpy scalars and arrays as Python values and every
    non-finite float as None, ready for ``json.dumps``."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def json_text(payload: dict) -> str:
    """Canonical JSON with NaN rendered as null."""
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")) + "\n"


def write_output(path: Optional[str], text: str):
    """Write to a file atomically, or to stdout when no path is given."""
    if path is None:
        print(text, end="")
    else:
        atomic_write_text(path, text)
