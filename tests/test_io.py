"""Input readers: the one-pass vectorised parse against the row-wise scanner.

Every public reader first tries ``io._read_fast`` and falls back to the
row-wise path. The properties below pin that the two paths agree bit for
bit on well-formed files and that malformed files raise the row-wise
path's error record unchanged, and that the vectorised pass reads each
cell as the double ``float()`` gives, midpoint decimals included.
"""

import csv
import decimal
import json
import math
import runpy
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coarsereg import DataFormatError, ReplicatedSample
from coarsereg import io as cio
from coarsereg.heart import heart_disease_calibration
from coarsereg.io import (
    read_columns, read_curve_csv, read_pairs_csv, read_replicates_csv, read_training_csv,
)


def examples(count):
    """``count`` examples under the default profile, scaled by the loaded one
    as unfixed tests are (``--hypothesis-profile=thorough`` gives 20x)."""
    return count * settings.default.max_examples // 100


SETTINGS = settings(
    max_examples=examples(40), deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

FORMATS = (repr, lambda v: f"{v:.17g}", lambda v: f"{v:.6e}")

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def numeric_cell(draw):
    if draw(st.booleans()):
        return str(draw(st.integers(-(10**20), 10**20)))
    return draw(st.sampled_from(FORMATS))(draw(finite))


def read_pairs_ty(path):
    return read_pairs_csv(path, columns=("t", "y"))


READERS = {
    "training": (read_training_csv, "w,y"),
    "pairs": (read_pairs_ty, "t,y"),
    "replicates": (read_replicates_csv, "group,u"),
}


def arrays(result):
    if hasattr(result, "groups"):
        return list(result.groups)
    if hasattr(result, "w"):
        return [result.w, result.y]
    return list(result)


def outcome(read, path):
    """("ok", arrays) or ("error", record) of one read."""
    try:
        return "ok", arrays(read(path))
    except DataFormatError as exc:
        return "error", exc.record()


def row_wise(read, path):
    with mock.patch.object(cio, "_read_fast", return_value=None):
        return outcome(read, path)


def assert_same(got, want):
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit for bit, -0.0 included
        assert (a.flags.c_contiguous, a.flags.writeable, a.flags.owndata) == (
            b.flags.c_contiguous, b.flags.writeable, b.flags.owndata
        )


def body_lines(kind, cells):
    """Data lines for a reader; replicate rows pair off into groups of 2."""
    if kind == "replicates":
        return [f"g{i // 2},{c}" for i, c in enumerate(cells)]
    return [f"{a},{b}" for a, b in zip(cells[0::2], cells[1::2])]


@st.composite
def table(draw, kind):
    rows = draw(st.integers(1, 12))
    cells = draw(st.lists(numeric_cell(), min_size=2 * rows, max_size=2 * rows))
    return body_lines(kind, cells)


# ---------------------------------------------------------------- (a)


@pytest.mark.parametrize("kind", sorted(READERS))
@SETTINGS
@given(data=st.data())
def test_well_formed_tables_match_row_wise(kind, data, tmp_path):
    read, header = READERS[kind]
    lines = data.draw(table(kind))
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header, *lines]) + "\n")
    assert cio._read_fast(path, tuple(header.split(",")), labelled=kind == "replicates")
    got = outcome(read, path)
    assert got[0] == "ok"
    assert_same(got, row_wise(read, path))


# ---------------------------------------------------------------- (b)


def _replace_cell(line, value, col):
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


MUTATIONS = {
    "nan": lambda ls, i, c: ls[:i] + [_replace_cell(ls[i], "nan", c)] + ls[i + 1:],
    "inf": lambda ls, i, c: ls[:i] + [_replace_cell(ls[i], "-inf", c)] + ls[i + 1:],
    "overflow": lambda ls, i, c: ls[:i] + [_replace_cell(ls[i], "1e400", c)] + ls[i + 1:],
    "underscore": lambda ls, i, c: ls[:i] + [_replace_cell(ls[i], "1_0", c)] + ls[i + 1:],
    "quoted": lambda ls, i, c: ls[:i] + [_replace_cell(ls[i], '"2.5"', c)] + ls[i + 1:],
    "blank row": lambda ls, i, c: ls[:i] + [""] + ls[i:],
    "whitespace row": lambda ls, i, c: ls[:i] + ["  \t"] + ls[i:],
    "blank cells row": lambda ls, i, c: ls[:i] + [" , "] + ls[i:],
    "extra field": lambda ls, i, c: ls[:i] + [ls[i] + ",1.0"] + ls[i + 1:],
    "missing field": lambda ls, i, c: ls[:i] + [ls[i].split(",")[0]] + ls[i + 1:],
    "comment row": lambda ls, i, c: ls[:i] + ["#" + ls[i]] + ls[i + 1:],
    # characters str.splitlines() breaks on but csv does not
    "line separator": lambda ls, i, c: ls[:i] + ["\u2028".join(ls[i:i + 2])] + ls[i + 2:],
    "form feed row": lambda ls, i, c: ls[:i] + ["\x0c"] + ls[i:],
    "single row": lambda ls, i, c: ls[:1],
    "header only": lambda ls, i, c: [],
}


def render(header, lines, mutation):
    text = "\n".join([header, *lines]) + "\n"
    if mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "no trailing newline":
        text = text.rstrip("\n")
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "bare cr":
        text = text.replace("\n", "\r", 2)
    return text


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize(
    "mutation", [*MUTATIONS, "crlf", "no trailing newline", "bom", "bare cr"]
)
@settings(max_examples=examples(8), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_files_match_row_wise(kind, mutation, data, tmp_path):
    read, header = READERS[kind]
    lines = data.draw(table(kind))
    if mutation in MUTATIONS:
        i = data.draw(st.integers(0, len(lines) - 1))
        col = 1 if kind == "replicates" else data.draw(st.integers(0, 1))
        lines = MUTATIONS[mutation](lines, i, col)
    path = tmp_path / "t.csv"
    path.write_bytes(render(header, lines, mutation).encode())
    assert_same(outcome(read, path), row_wise(read, path))


@pytest.mark.parametrize(
    "text, fast",
    [
        ("w,y\r\n1,2\r\n3,4\r\n", True),
        ("w,y\n1,2", True),
        ("w,y\n1,2\n\n3,4\n", True),
        (" w , y \n 1 , 2 \n", True),
        ("w,y\n1,2\n   \n", False),
        ("w,y\n1_0,2\n", False),
        ('w,y\n"1",2\n', False),
        ('"w","y"\n1,2\n', False),
        ("w,y\n1,nan\n", False),
        ("w,y\n1,1e400\n", False),
        ("w,y\n1,2,3\n", False),
        ("w,y\r1,2\r", False),
        ("w,y\n", False),
        ("", False),
    ],
)
def test_fast_path_takes_only_plain_files(tmp_path, text, fast):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    assert (cio._read_fast(path, ("w", "y")) is not None) == fast
    assert_same(outcome(read_training_csv, path), row_wise(read_training_csv, path))


def test_errors_keep_their_location(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("w,y\n0.5,1.0\n\n0.25,1_0\n")
    assert read_training_csv(path).y[1] == 10.0  # float() reads digit separators
    path.write_text("w,y\n0.5,1.0\n\n0.25,x\n0.75,inf\n")
    with pytest.raises(DataFormatError) as err:
        read_training_csv(path)
    assert err.value.record() == {
        "error": "invalid number 'x'", "file": str(path), "line": 4, "column": "y"
    }


@pytest.mark.parametrize(
    "text, record",
    [
        ("", {"error": "empty file", "line": 1, "column": None}),
        ("x,m_hat\n0.5,nan\n1,x\n", {"error": "invalid number 'x'", "line": 3,
                                        "column": "m_hat"}),
        ("x,m_hat\n0.5,1\n1\n", {"error": "expected 2 fields, got 1", "line": 3,
                                    "column": None}),
    ],
)
def test_curve_reader_locates_faults(tmp_path, text, record):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        read_curve_csv(path)
    assert err.value.record() == {**record, "file": str(path)}


@pytest.mark.parametrize("read, text", [
    (read_training_csv, "w,y\n1,2\n{field},1\n"),
    (read_replicates_csv, "group,u\na,1\na,2\n {field}b,3\nb,4\n"),
    (read_curve_csv, "x,m_hat\n{field}1,2\n"),
], ids=["number", "padded label", "curve"])
def test_fields_past_the_csv_limit_are_located(tmp_path, read, text):
    path = tmp_path / "t.csv"
    # one byte past the limit, of digits or of blanks around a label
    field = ("1" if read is read_training_csv else " ") * (csv.field_size_limit() + 1)
    path.write_text(text.format(field=field))
    with pytest.raises(DataFormatError) as err:
        read(path)
    record = err.value.record()
    assert record["error"].startswith("field larger than field limit")
    line = text.count("\n", 0, text.index("{")) + 1
    assert (record["file"], record["line"]) == (str(path), line)


def test_curve_reader_takes_any_header_nan_and_no_rows(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x, d1\n0.5,nan\n\n1,-inf\n")
    got = read_curve_csv(path)
    assert list(got) == ["x", "d1"]
    np.testing.assert_array_equal(got["x"], [0.5, 1.0])
    np.testing.assert_array_equal(got["d1"], [np.nan, -np.inf])
    path.write_text("location\n")  # a zeros table with no crossing
    assert {k: v.tolist() for k, v in read_curve_csv(path).items()} == {"location": []}


def test_missing_file_record(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(DataFormatError) as err:
        read_training_csv(path)
    assert err.value.record()["file"] == str(path)


def test_fast_read_peak_is_about_twice_the_file(tmp_path):
    # the checks run on the bytes in place, and the parse reads a copy with
    # each newline turned into a comma, made in place of the bytes, so the
    # peak is that comma copy, its long doubles and the doubles; copies of
    # the body, its strip() and a StringIO of it took the peak to 6.4 times
    # the file
    rng = np.random.default_rng(37)
    path = tmp_path / "t.csv"
    np.savetxt(path, rng.normal(size=(50_000, 2)), fmt="%.17g", delimiter=",",
               header="w,y", comments="")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        sample = read_training_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.n == 50_000
    assert peak < 2.5 * size, f"peak {peak} B for a {size} B file"


# ---------------------------------------------------------------- (c)


@SETTINGS
@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_replicate_groups_keep_first_appearance_order(sizes, seed, tmp_path):
    rng = np.random.default_rng(seed)
    labels = np.repeat([f"id{rng.integers(10**6)}-{i}" for i in range(len(sizes))], sizes)
    rng.shuffle(labels)
    values = rng.normal(size=len(labels))
    path = tmp_path / "r.csv"
    path.write_text(
        "group,u\n" + "".join(f" {g} ,{float(v)!r}\n" for g, v in zip(labels, values))
    )
    expected: dict = {}
    for g, v in zip(labels, values):
        expected.setdefault(g, []).append(v)
    got = outcome(read_replicates_csv, path)
    assert_same(got, ("ok", list(ReplicatedSample(list(expected.values())).groups)))
    assert_same(got, row_wise(read_replicates_csv, path))


def test_single_member_group_is_named_without_a_row_wise_read(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("group,u\na,0.5\nb,1.5\na,2.5\nc,3.5\nc,4.5\n")
    with mock.patch.object(cio, "_read_rows", side_effect=AssertionError("row-wise read")), \
            mock.patch.object(np, "fromstring", wraps=np.fromstring) as parse:
        got = outcome(read_replicates_csv, path)
    assert parse.call_count == 1
    assert got == ("error", {
        "error": "group 'b' has a single measurement; every group needs >= 2",
        "file": str(path),
        "line": None,
        "column": None,
    })
    assert_same(got, row_wise(read_replicates_csv, path))


def test_padded_labels_past_the_bound_take_the_row_wise_path(tmp_path):
    # blanks around a label count toward its bound, so stripping them takes
    # at most that many vectorised steps however long the padding
    path = tmp_path / "r.csv"
    for pad, fast in ((cio._MAX_LABEL // 2 - 1, True), (10**4, False)):
        path.write_text(f"group,u\n{' ' * pad}a{chr(9) * pad},0.5\nb,1.5\na,2.5\nb,3.5\n")
        assert (cio._read_fast(path, ("group", "u"), labelled=True) is not None) == fast
        got = outcome(read_replicates_csv, path)
        assert_same(got, ("ok", list(ReplicatedSample([[0.5, 2.5], [1.5, 3.5]]).groups)))
        assert_same(got, row_wise(read_replicates_csv, path))


def _pairs_file(tmp_path):
    """A 5e4-row replicate file of 25 000 groups of two."""
    rng = np.random.default_rng(41)
    path = tmp_path / "r.csv"
    path.write_text("group,u\n" + "".join(
        f"g{i // 2},{float(v)!r}\n" for i, v in enumerate(rng.normal(size=50_000))
    ))
    return path


def _traced_peak(call):
    """``call()`` and the traced peak of its allocations."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_labelled_fast_read_peak_is_a_few_times_the_file(tmp_path):
    # labels become indices in one np.unique over their bytes, and the
    # values' comma copy is parsed to long doubles, then doubles, so the
    # peak is that copy, the long doubles and the doubles beside the label
    # indices; split rows and per-group lists took the peak to 11.8 times
    # the file
    path = _pairs_file(tmp_path)
    size = path.stat().st_size
    parsed, peak = _traced_peak(lambda: cio._read_fast(path, ("group", "u"), labelled=True))
    assert peak <= 5 * size, f"peak {peak} B for a {size} B file"
    labels, indices, values = parsed
    assert len(labels) == 25_000 and len(indices) == len(values) == 50_000


def test_replicate_read_peak_is_the_parse_peak(tmp_path):
    # the grouped values go into one flat array; 25 000 split views and
    # their copies took the whole read to 7.3 times the file
    path = _pairs_file(tmp_path)
    size = path.stat().st_size
    rep, peak = _traced_peak(lambda: read_replicates_csv(path))
    assert peak <= 5 * size, f"peak {peak} B for a {size} B file"
    assert rep.n_groups == 25_000 and rep.values.shape == (50_000,)
    assert np.array_equal(rep.sizes, np.full(25_000, 2))


# ---------------------------------------------------------------- (d)

DBL_MAX = sys.float_info.max
CELL_FORMATS = (repr, lambda v: f"{v:.15g}", lambda v: f"{v:.17g}", lambda v: f"{v:.25g}",
                lambda v: f"{v:.6e}")
EDGE_DOUBLES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                2.225073858507201e-308, DBL_MAX, -DBL_MAX,
                                float.fromhex("0x1.fffffffffffffp+1022")])


@st.composite
def midpoint_cell(draw):
    """A decimal on, or within a relative 1e-40 of, the midpoint of two
    adjacent doubles (subnormal ones and the overflow threshold included):
    where a long double parse rounds a second time, these are the cells it
    can get wrong."""
    d = draw(st.one_of(finite, EDGE_DOUBLES))
    with decimal.localcontext(prec=2000):
        # past DBL_MAX the next step is 2**1024, where float() overflows
        up = 2 ** 1024 if d == DBL_MAX else decimal.Decimal(math.nextafter(d, math.inf))
        mid = (decimal.Decimal(d) + up) / 2
        sign = draw(st.sampled_from([0, 1, -1]))
        return str(mid + sign * abs(mid) * decimal.Decimal(10) ** -draw(st.integers(40, 60)))


@st.composite
def float_cell(draw):
    kind = draw(st.sampled_from(["format", "integer", "midpoint"]))
    if kind == "integer":
        return str(draw(st.integers(-(10**20), 10**20)))
    if kind == "midpoint":
        return draw(midpoint_cell())
    return draw(st.sampled_from(CELL_FORMATS))(draw(st.one_of(finite, EDGE_DOUBLES)))


def fast_cells(path, cells, labelled):
    """``cells`` written under ``w,y`` (or ``group,u`` with labels) and read
    back by the vectorised pass alone: its values in file order, or None."""
    if labelled:
        lines = [f"g{i // 2},{c}" for i, c in enumerate(cells)]
    else:
        lines = [f"{a},{b}" for a, b in zip(cells[0::2], cells[1::2])]
    path.write_text("\n".join(["group,u" if labelled else "w,y", *lines]) + "\n")
    got = cio._read_fast(path, ("group", "u") if labelled else ("w", "y"), labelled=labelled)
    if got is None:
        return None
    return got[2] if labelled else np.column_stack(got).ravel()


# the cells' first rounding: to long double, or straight to binary64, as
# where long double is IBM double-double
PARSES = pytest.mark.parametrize("parse", [np.longdouble, np.float64],
                                 ids=["longdouble", "binary64"])


@PARSES
@pytest.mark.parametrize("labelled", [False, True], ids=["pairs", "labelled"])
@settings(max_examples=examples(100), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(float_cell(), float_cell()), min_size=1, max_size=10))
def test_fast_read_is_float_per_cell(labelled, parse, rows, tmp_path):
    cells = [cell for row in rows for cell in row]
    want = np.array([float(c) for c in cells])
    with mock.patch.object(cio, "_PARSE_DTYPE", parse):
        got = fast_cells(tmp_path / "t.csv", cells, labelled)
    if not np.isfinite(want).all():  # a cell past DBL_MAX
        assert got is None
        return
    assert got is not None and got.tobytes() == want.tobytes()


# a decimal 1e-40 above the midpoint of two adjacent doubles: float()
# rounds it up, while its long double is the midpoint itself, which rounds
# to the even double, below
MIDPOINT = "0.628473750715436596525620416286983527243237359619140625"


def late_midpoints():
    """``0.5`` cells with :data:`MIDPOINT` on both sides of the first
    boundary of the rounding check's blocks (cells) and of the comma scan's
    blocks (bytes of the comma-separated text), and at the very end."""
    cells = ["0.5"] * (cio._CHECK_BLOCK - 1) + [MIDPOINT] * 2
    # fill so that the next cell's comma is the last byte of the first scan
    # block; every cell takes its length plus one byte
    gap = cio._SCAN_BLOCK - 1 - len(MIDPOINT) - sum(len(c) + 1 for c in cells)
    fill, extra = divmod(gap, 4)
    cells += ["0.5"] * (fill - 1) + ["0.5" + "0" * extra] + [MIDPOINT] * 2
    assert sum(len(c) + 1 for c in cells[:-1]) == cio._SCAN_BLOCK
    return cells + ["0.5"] * (1000 + (len(cells) + 1) % 2) + [MIDPOINT]


@PARSES
@pytest.mark.parametrize("labelled", [False, True], ids=["pairs", "labelled"])
@pytest.mark.parametrize("cells", [[MIDPOINT] * 2, late_midpoints()], ids=["two", "late"])
def test_midpoint_cell_is_read_as_float(cells, labelled, parse, tmp_path):
    with mock.patch.object(cio, "_PARSE_DTYPE", parse):
        got = fast_cells(tmp_path / "t.csv", cells, labelled)
    assert got is not None
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()
    if np.finfo(np.longdouble).nmant > 52:  # the parse rounds twice here
        twice = np.fromstring(MIDPOINT, dtype=np.longdouble, sep=",").astype(float)
        assert twice[0] == math.nextafter(float(MIDPOINT), 0.0)


# ---------------------------------------------------------- heart reader


def saheart_csv(path, *, n=120, seed=0, chol="chol", ldl="ldl", edit=None):
    """A CSV shaped like the SAheart file: a row id, string and numeric
    columns, and log(chol) linear in log(ldl)."""
    rng = np.random.default_rng(seed)
    log_ldl = rng.normal(1.5, 0.35, n)
    log_chol = 4.889 + 0.3663 * log_ldl + rng.normal(0, 0.05, n)
    rows = [f"row.names,sbp,{ldl},famhist,{chol},chd"]
    for i in range(n):
        famhist = "Present" if i % 3 else "Absent"
        rows.append(
            f"{i + 1},{130 + i % 40},{math.exp(log_ldl[i])!r},{famhist},"
            f"{math.exp(log_chol[i])!r},{i % 2}"
        )
    if edit is not None:
        line, col, text = edit
        cells = rows[line - 1].split(",")
        cells[col] = text
        rows[line - 1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    return path


class TestHeartReader:
    def test_calibration_run(self, tmp_path):
        result = heart_disease_calibration(saheart_csv(tmp_path / "h.csv"))
        fit = result["fit"]
        assert abs(fit.slope - 0.3663) < 0.05 and abs(fit.intercept - 4.889) < 0.1
        assert result["deleted"] == result["value_deletions"] + 8
        assert result["n_used"] == 120 - result["deleted"]

    def test_mixed_case_headers(self, tmp_path):
        plain = heart_disease_calibration(saheart_csv(tmp_path / "a.csv"))
        mixed = heart_disease_calibration(
            saheart_csv(tmp_path / "b.csv", chol="Chol", ldl="LDL")
        )
        assert mixed["fit"] == plain["fit"]
        cols = read_columns(tmp_path / "b.csv", ("CHOL", "ldl"))
        assert list(cols) == ["CHOL", "ldl"] and len(cols["CHOL"]) == 120

    def test_missing_column(self, tmp_path):
        path = saheart_csv(tmp_path / "h.csv", chol="tc")
        with pytest.raises(DataFormatError) as err:
            heart_disease_calibration(path)
        record = err.value.record()
        assert record["line"] == 1 and "missing columns ['chol']" in record["error"]

    def test_invalid_number_located(self, tmp_path):
        path = saheart_csv(tmp_path / "h.csv", edit=(7, 4, "4.x"))
        with pytest.raises(DataFormatError) as err:
            heart_disease_calibration(path)
        assert err.value.record() == {
            "error": "invalid number '4.x'", "file": str(path), "line": 7, "column": "chol"
        }

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_located(self, tmp_path, text):
        path = saheart_csv(tmp_path / "h.csv", edit=(12, 2, text))
        with pytest.raises(DataFormatError) as err:
            heart_disease_calibration(path)
        record = err.value.record()
        assert record["error"] == f"non-finite value {text!r}"
        assert (record["line"], record["column"]) == (12, "ldl")

    def test_script_reads_through_io(self, tmp_path):
        out = tmp_path / "curve.csv"
        data = saheart_csv(tmp_path / "h.csv")
        assert heart_script()([str(data), "--grid", "4.9:5.7:5", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "x,m_hat"

    def test_script_fits_its_default_grid_reading_the_file_once(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        data = saheart_csv(tmp_path / "h.csv")
        main = heart_script()
        with mock.patch.object(cio, "_read_rows", wraps=cio._read_rows) as reads:
            assert main([str(data), "--out", str(out)]) == 0
        assert reads.call_count == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "x,m_hat" and len(lines) == 1 + 101
        result = heart_disease_calibration(data)
        report = json.loads(capsys.readouterr().err)
        assert (report["n_used"], report["slope"]) == (result["n_used"], result["fit"].slope)

    @pytest.mark.parametrize("grid, message", [
        ("0:1", "--grid expects numeric lo:hi:count, got '0:1'"),
        ("a:b:c", "--grid expects numeric lo:hi:count, got 'a:b:c'"),
        ("2:1:5", "need lo < hi, got [2.0, 1.0]"),
    ])
    def test_script_reports_a_malformed_grid(self, grid, message, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        data = saheart_csv(tmp_path / "h.csv")
        assert heart_script()([str(data), "--grid", grid, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err) == {"error": message}
        assert not out.exists()


def heart_script():
    """The ``main`` of ``scripts/heart_disease.py``, loaded afresh."""
    script = Path(__file__).parents[1] / "scripts" / "heart_disease.py"
    return runpy.run_path(str(script), run_name="heart_script")["main"]
