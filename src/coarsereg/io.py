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
raises a parse error, so every error record names the same place either
way. The vectorised pass checks the file's bytes, then parses every cell
with one ``np.fromstring`` call into long double, which runs the C
library's correctly rounded ``strtold``, and rounds the result to binary64.
That second rounding is exact except on a binary64 midpoint, so the cells
whose long double lies on one (about 1 in 2048) are re-read with
``float()``; where long double is binary64 itself there is one rounding and
no re-read, and where it is not an IEEE format (IBM double-double) the
cells are parsed to binary64 directly. Either path gives each cell the
double ``float()`` gives, bit for bit. Replicate labels are numbered in
order of first appearance on either path, and one grouping step then
checks that no group has a single member or overflowing differences.
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
from typing import Optional

import numpy as np

from .data import RegressionCurve, ReplicatedSample, TrainingSample
from .errors import DataFormatError


def format_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


def _parse_float(text: str, *, path, line, column, finite=True) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataFormatError(
            f"invalid number {text!r}", file=str(path), line=line, column=column
        ) from None
    if finite and not math.isfinite(v):
        raise DataFormatError(
            f"non-finite value {text!r}", file=str(path), line=line, column=column
        )
    return v


def _csv_rows(handle, path):
    """``csv.reader`` rows of ``handle``; a field past the module's size
    limit is a located error."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(str(exc), file=str(path), line=reader.line_num) from None


def _read_rows(path, columns, *, named=False):
    """Cell names and non-blank rows ``(line number, stripped cells)`` of a CSV.

    The header must be exactly ``columns``. With ``named`` it need only
    contain them, matched case-insensitively; each row's cells then come
    back in ``columns`` order and other columns are dropped unparsed. With
    ``columns`` None any header is taken, even with no rows under it.
    """
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataFormatError(str(exc), file=str(path)) from None
    with handle:
        reader = _csv_rows(handle, path)
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
        elif columns is not None and header != list(columns):
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
        if not rows and columns is not None:
            raise DataFormatError("no data rows", file=str(path), line=2)
    return (header if columns is None else list(columns)), rows


def _parse_columns(path, rows, names, finite=True) -> list:
    """One float array per name from :func:`_read_rows` cells, finite unless
    ``finite`` is false; the first bad cell in file order raises."""
    values = [[] for _ in names]
    for lineno, cells in rows:
        for col, name, text in zip(values, names, cells):
            col.append(_parse_float(text, path=path, line=lineno, column=name, finite=finite))
    return [np.array(v) for v in values]


# bytes a numeric cell may hold: no letters but the exponent's, so no hex,
# inf or nan ever reaches the parser
_CELL_BYTES = b"0123456789+-.eE \t"
# bytes a replicate label may hold: printable ASCII but the quote and the
# separator, and tab; str.strip() removes only spaces and tabs among them
_LABEL_BYTES = bytes(sorted(set(range(0x20, 0x7F)) - {ord('"'), ord(",")})) + b"\t"
_BLANK = np.zeros(256, bool)
_BLANK[[ord(" "), ord("\t")]] = True
# longer labels, blanks around them included, go to the row-wise path
_MAX_LABEL = 64
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
# an IEEE long double (binary64 itself, x87 extended or binary128) holds
# every binary64 midpoint; with IBM double-double the cells are parsed to
# binary64 directly, one correct rounding and no re-read
_PARSE_DTYPE = np.longdouble if np.finfo(np.longdouble).nmant in (52, 63, 112) else np.float64
# values per block of the rounding check, bytes per block of the comma scan
_CHECK_BLOCK = 1 << 12
_SCAN_BLOCK = 1 << 16


def _lines(body: bytes, allowed: bytes, fields: int):
    """``body`` as LF-terminated lines with no blank one, and their count.

    Raises ValueError unless there is a line and every line holds
    ``fields`` comma-separated cells of ``allowed`` bytes. Copies only to
    turn CRLF into LF, end the last line or drop blank lines.
    """
    if b"\r" in body:
        if body.count(b"\r") != body.count(b"\r\n"):
            raise ValueError("bare carriage return")
        body = body.replace(b"\r\n", b"\n")
    if not body.endswith(b"\n"):
        body += b"\n"
    row = b"," * (fields - 1) + b"\n"
    seps = body.translate(None, allowed)
    if seps != row * (len(seps) // len(row)):  # perhaps blank lines
        while b"\n\n" in body:
            body = body.replace(b"\n\n", b"\n")
        body = body.lstrip(b"\n")
        seps = body.translate(None, allowed)
    rows = len(seps) // len(row)
    if not rows or seps != row * rows:
        raise ValueError("not plain CSV")
    return body, rows


def _check_blank_cells(body: bytes):
    """Raise ValueError if a cell of ``body`` holds only spaces and tabs,
    which numpy's parse would read as 0; an empty cell fails the parse."""
    if b" " in body or b"\t" in body:
        packed = body.translate(None, b" \t")
        if packed.startswith((b",", b"\n")) or any(
            pair in packed for pair in (b",,", b",\n", b"\n,", b"\n\n")
        ):
            raise ValueError("blank cell")


def _split_labels(body: bytes):
    """Labels, label indices and value lines of ``group,u`` lines from
    :func:`_lines`, each value of :data:`_CELL_BYTES` only.

    The labels, stripped of spaces and tabs, are numbered in order of first
    appearance by one ``np.unique`` over their bytes, padded with NULs to the
    longest label's width; the distinct labels come back as a str array.
    A label field longer than :data:`_MAX_LABEL` bytes, blanks included,
    raises ValueError, so stripping takes at most that many steps.
    """
    view = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(view == ord("\n"))
    lo = np.concatenate(([0], ends[:-1] + 1))
    hi = np.flatnonzero(view == ord(","))
    # every line's label and separator, then its value and newline
    spans = np.column_stack([hi + 1 - lo, ends - hi]).ravel()
    del ends
    values = view[np.repeat(np.tile([False, True], len(lo)), spans)].tobytes()
    del spans
    if values.translate(None, _CELL_BYTES) != b"\n" * len(lo):
        raise ValueError("not a number")
    if int((hi - lo).max()) > _MAX_LABEL:
        raise ValueError("long label")
    while (step := _BLANK[view[lo]]).any():  # the separator stops it
        lo += step
    while (step := _BLANK[view[hi - 1]] & (hi > lo)).any():
        hi -= step
    width = int((hi - lo).max())
    chars = np.zeros((len(lo), max(width, 1)), np.uint8)
    for k in range(width):
        take = hi - lo > k
        chars[take, k] = view[lo[take] + k]
    del lo, hi
    distinct, first, inverse = np.unique(chars.view(f"S{chars.shape[1]}")[:, 0],
                                         return_index=True, return_inverse=True)
    del chars
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order].astype(str), rank[inverse], values


def _comma_offsets(text: bytes, cells):
    """Offsets in ``text`` of the commas that end ``cells`` (sorted cell
    indices), found block by block."""
    view = np.frombuffer(text, np.uint8)
    offsets, before = [], 0
    for start in range(0, len(view), _SCAN_BLOCK):
        if before > cells[-1]:
            break
        commas = start + np.flatnonzero(view[start:start + _SCAN_BLOCK] == ord(","))
        mine = cells[(cells >= before) & (cells < before + len(commas))]
        offsets.extend(commas[mine - before])
        before += len(commas)
    return offsets


def _doubles(text: bytes):
    """The double ``float()`` gives for each comma-terminated cell of ``text``.

    ``np.fromstring`` parses every cell with the C library's ``strtold``,
    correctly rounded to long double. Rounding that again to binary64 gives
    the correctly rounded double unless the long double lies exactly on a
    binary64 midpoint (Figueroa, "When is double rounding innocuous?",
    1995): a decimal strictly between two midpoints rounds to a long double
    between them too. Those cells, about 1 in 2048, and any that overflow
    are re-read with ``float()``. Where long double is binary64, or the
    cells are parsed to binary64 directly (:data:`_PARSE_DTYPE`), the first
    rounding is the only one and only overflowing cells are re-read.
    """
    extended = np.fromstring(text, dtype=_PARSE_DTYPE, sep=",")
    suspects = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is re-read
        values = extended.astype(np.float64)
        for start in range(0, len(values), _CHECK_BLOCK):
            x, d = extended[start:start + _CHECK_BLOCK], values[start:start + _CHECK_BLOCK]
            r = x - d  # exact
            off = r != 0
            # on a midpoint r is half a spacing, a power of two that stays
            # exact in binary64 or, below 2**-1074, rounds to 0; then d + 2r
            # lands on d's neighbour, or on d, without rounding. Elsewhere
            # the test can hold too, which costs only a re-read
            r = r.astype(np.float64)
            midpoint = (d + 2 * r) - d == 2 * r
            suspects.append(start + np.flatnonzero(off & (midpoint | ~np.isfinite(d))))
    del extended
    suspects = np.concatenate(suspects)
    if suspects.size:
        for cell, end in zip(suspects, _comma_offsets(text, suspects)):
            values[cell] = float(text[text.rfind(b",", 0, end) + 1:end])
    return values


def _read_fast(path, header, *, labelled=False):
    """Parse a well-formed file in one vectorised pass, or return None.

    Only plain CSV gets through: the exact header, no bare carriage returns,
    the header's field count on every non-empty line, no blank cell, at
    least one row and only finite values. A numeric cell may hold only
    digits, ``+-.eE``, spaces and tabs, and ``np.fromstring`` parses the
    cells of every row at once (:func:`_doubles`), each to the double
    ``float()`` gives, bit for bit. For anything else the caller falls back
    to the row-wise path, which then locates the fault.

    The bytes are read once and checked in place; the parse reads a copy
    with each newline turned into a comma, made after the checks and in
    place of the bytes, so a read's traced peak is about 2.3 times the
    file's size (the copy, the long doubles and the doubles), and about 4
    times with labels.

    Returns one array per column. With ``labelled`` the first column holds
    labels, read as indices in order of first appearance, and the result is
    ``[distinct labels, indices, *values]``.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.readline()
            body = handle.read()
        if not (head.endswith(b"\n") and head.count(b"\r") == head.count(b"\r\n")
                and [h.strip() for h in head.split(b",")] == [h.encode() for h in header]):
            return None
        fields = len(header)
        body, rows = _lines(body, _LABEL_BYTES if labelled else _CELL_BYTES, fields)
        if labelled:
            labels, indices, body = _split_labels(body)
            fields = 1
        _check_blank_cells(body)
        text = body.translate(_NEWLINE_TO_COMMA)
        del body
        values = _doubles(text)
    except (OSError, ValueError, DeprecationWarning):
        # on unmatched data numpy 2 raises ValueError, while numpy 1 warns
        # (an error under -W error) or returns the cells read before it
        return None
    del text
    if values.size != rows * fields or not np.isfinite(values).all():
        return None
    if labelled:
        return [labels, indices, values]
    return [values[j::fields].copy() for j in range(fields)]


def _read_numeric(path, columns) -> list:
    columns = tuple(columns)
    fast = _read_fast(path, columns)
    if fast is not None:
        return fast
    return _parse_columns(path, _read_rows(path, columns)[1], columns)


def read_training_csv(path) -> TrainingSample:
    return TrainingSample(*_read_numeric(path, ("w", "y")))


def read_replicates_csv(path) -> ReplicatedSample:
    header = ("group", "u")
    parsed = _read_fast(path, header, labelled=True)
    if parsed is None:  # the row-wise path numbers labels the same way
        _, rows = _read_rows(path, header)
        index: dict = {}
        indices = np.array([index.setdefault(cells[0], len(index)) for _, cells in rows])
        (values,) = _parse_columns(path, [(n, cells[1:]) for n, cells in rows], ("u",))
        parsed = list(index), indices, values
    labels, indices, values = parsed
    counts = np.bincount(indices)
    single = np.flatnonzero(counts < 2)
    if single.size:
        raise DataFormatError(
            f"group {str(labels[single[0]])!r} has a single measurement; every group needs >= 2",
            file=str(path),
        )
    # a stable sort keeps each group's values in file order
    values = values[np.argsort(indices, kind="stable")]
    # a group's max - min is its largest |difference|; rounding is monotone,
    # so it is finite exactly when every difference is
    starts = np.cumsum(counts) - counts
    lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(hi - lo))
    if wide.size:
        i = wide[0]
        raise DataFormatError(f"group {str(labels[i])!r}: pair differences overflow (values "
                              f"from {float(lo[i])!r} to {float(hi[i])!r})", file=str(path))
    return ReplicatedSample._from_flat(values, counts)


def read_pairs_csv(path, columns=("t", "x")) -> tuple:
    return tuple(_read_numeric(path, columns))


def read_columns(path, names) -> dict:
    """Named numeric columns of a CSV whose header contains them.

    Header names match case-insensitively; other columns, numeric or not,
    are ignored. Returns ``{name: array}`` keyed by ``names`` as given.
    """
    names = tuple(names)
    return dict(zip(names, _parse_columns(path, _read_rows(path, names, named=True)[1], names)))


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
    """Read a written table, as a curve's, back into column arrays by header
    name (round-trip helper); ``nan`` marks an undefined point."""
    names, rows = _read_rows(path, None)
    return dict(zip(names, _parse_columns(path, rows, names, finite=False)))


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
