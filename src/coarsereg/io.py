"""CSV and JSON file formats.

Input schemas (exact headers):

* training data:  ``w,y``
* replicate data: ``group,u``  (group ids are arbitrary strings; rows with
  equal ids form one group)
* proxy calibration pairs: ``t,x``
* proxy analysis pairs:    ``t,y``

All numeric fields must be finite; NaN and infinities are rejected with an
error naming file, line and column. A well-formed file is parsed in one
vectorised pass; any other file is re-read row by row, and only that scan
raises, so every error record names the same place either way.
:func:`csv_text` is the one CSV writer: values carry 17 significant digits
so a written table re-reads bit-exactly, and undefined points serialize as
``nan`` in outputs only. A curve's columns (:func:`curve_columns`) are
``x,m_hat``, plus ``v_hat,lower,upper`` when it carries intervals; JSON
outputs use the same names.

Writes go through a temp file plus rename, so a crashed run never leaves a
half-written artifact.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from io import StringIO
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


def _read_rows(path, columns, *, named=False):
    """Non-blank data rows of a CSV as ``(line number, stripped cells)``.

    The header must be exactly ``columns``. With ``named`` it need only
    contain them, matched case-insensitively; each row's cells then come
    back in ``columns`` order and other columns are dropped unparsed.
    """
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
        picks = None
        if named:
            lookup = {name.lower(): i for i, name in enumerate(header)}
            missing = [c.lower() for c in columns if c.lower() not in lookup]
            if missing:
                raise DataFormatError(
                    f"missing columns {missing} (have {sorted(lookup)})",
                    file=str(path),
                    line=1,
                )
            picks = [lookup[c.lower()] for c in columns]
        elif header != list(columns):
            raise DataFormatError(
                f"expected header {','.join(columns)!r}, got {','.join(header)!r}",
                file=str(path),
                line=1,
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} fields, got {len(row)}",
                    file=str(path),
                    line=lineno,
                )
            cells = [cell.strip() for cell in row]
            rows.append((lineno, cells if picks is None else [cells[i] for i in picks]))
        if not rows:
            raise DataFormatError("no data rows", file=str(path), line=2)
    return rows


def _parse_columns(path, rows, names) -> list:
    """One float array per name from :func:`_read_rows` cells; the first bad
    cell in file order raises."""
    values = [[] for _ in names]
    for lineno, cells in rows:
        for col, name, text in zip(values, names, cells):
            col.append(_parse_float(text, path=path, line=lineno, column=name))
    return [np.array(v) for v in values]


def _read_fast(path, header, *, labelled=False):
    """Parse a well-formed file in one vectorised pass, or return None.

    Only plain CSV gets through: the exact header, no quotes, NULs or bare
    carriage returns, the header's field count on every non-empty row, at
    least one row and only finite values. numpy's C parser accepts a subset
    of what ``float`` accepts and rounds the same way, so every value equals
    the row-wise one bit for bit. For anything else the caller falls back
    to the row-wise path, which then locates the fault.

    Returns one array per column; with ``labelled`` the first column is
    instead a list of stripped label strings.
    """
    try:
        with open(path, newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeError):
        return None
    if '"' in text or "\x00" in text or ("\r" in text and "\r" in text.replace("\r\n", "")):
        return None
    first, _, body = text.partition("\n")
    if [h.strip() for h in first.split(",")] != list(header) or not body.strip():
        return None
    numeric = range(1 if labelled else 0, len(header))
    try:
        # usecols would let rows with extra fields through, so only the
        # labelled form passes it, and checks field counts itself
        table = np.loadtxt(
            StringIO(body), delimiter=",", comments=None, ndmin=2, dtype=float,
            usecols=numeric if labelled else None,
        )
    except ValueError:
        return None
    if table.shape[1] != len(numeric) or not np.isfinite(table).all():
        return None
    columns = [table[:, j].copy() for j in range(table.shape[1])]
    if not labelled:
        return columns
    rows = [line.split(",") for line in body.split("\n") if line not in ("", "\r")]
    if len(rows) != len(table) or any(len(row) != len(header) for row in rows):
        return None
    return [[row[0].strip() for row in rows], *columns]


def _read_numeric(path, columns) -> list:
    columns = tuple(columns)
    fast = _read_fast(path, columns)
    if fast is not None:
        return fast
    return _parse_columns(path, _read_rows(path, columns), columns)


def _group(labels, values) -> dict:
    """Values grouped by label, groups in order of first appearance."""
    groups: dict = {}
    for gid, v in zip(labels, values):
        groups.setdefault(gid, []).append(v)
    return groups


def read_training_csv(path) -> TrainingSample:
    return TrainingSample(*_read_numeric(path, ("w", "y")))


def read_replicates_csv(path) -> ReplicatedSample:
    header = ("group", "u")
    fast = _read_fast(path, header, labelled=True)
    if fast is not None:
        labels, values = fast
        groups = _group(labels, values.tolist())
        if all(len(vals) >= 2 for vals in groups.values()):
            return ReplicatedSample(list(groups.values()))
    rows = _read_rows(path, header)
    labels = [gid for _, (gid, _u) in rows]
    values = [_parse_float(utxt, path=path, line=lineno, column="u")
              for lineno, (_gid, utxt) in rows]
    groups = _group(labels, values)
    for gid, vals in groups.items():
        if len(vals) < 2:
            raise DataFormatError(
                f"group {gid!r} has a single measurement; every group needs >= 2",
                file=str(path),
            )
    return ReplicatedSample(list(groups.values()))


def read_pairs_csv(path, columns=("t", "x")) -> tuple:
    return tuple(_read_numeric(path, columns))


def read_columns(path, names) -> dict:
    """Named numeric columns of a CSV whose header contains them.

    Header names match case-insensitively; other columns, numeric or not,
    are ignored. Returns ``{name: array}`` keyed by ``names`` as given.
    """
    names = tuple(names)
    return dict(zip(names, _parse_columns(path, _read_rows(path, names, named=True), names)))


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


def csv_text(header, columns) -> str:
    """``header`` (column names) and one :func:`format_float` row per
    aligned entry of ``columns`` as CSV text."""
    rows = (",".join(format_float(v) for v in row) for row in zip(*columns))
    return "\n".join([",".join(header), *rows]) + "\n"


def curve_columns(curve: RegressionCurve) -> dict:
    """A curve's columns by name: ``x`` and ``m_hat``, plus ``v_hat``,
    ``lower`` and ``upper`` when the curve carries intervals."""
    columns = {"x": curve.grid.points, "m_hat": curve.values}
    if curve.variance is not None:
        columns.update(v_hat=curve.variance, lower=curve.band_lower, upper=curve.band_upper)
    return columns


def curve_csv_text(curve: RegressionCurve) -> str:
    """Render a curve's :func:`curve_columns` as CSV."""
    columns = curve_columns(curve)
    return csv_text(columns, columns.values())


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
