"""The records CSV codec against the per-row writer and reader it replaced.

``oracles.oracle_records_csv`` and ``oracles.oracle_records_from_csv`` write
and read one row at a time.  The codec must write their bytes exactly, and
read what they read with the same arrays or the same first error, except
where the records grammar leaves out what they took (whitespace,
underscores, non-ASCII digits, line breaks other than ``\\n`` and ``\\r\\n``);
those cases are pinned one by one below.
"""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktomo import (
    InvalidRecordsError,
    NoiseModel,
    Observable,
    PointerConfig,
    RecordStream,
    fourier_basis,
    random_density_matrix,
    reference_basis,
    sample_records,
)
from weaktomo import pointer

from oracles import RECORDS_HEADER, oracle_records_csv, oracle_records_from_csv
from test_readers_fuzz import BAD_TEXT, HUGE_INT, RECORDS, _mutate_records

COLUMNS = ("trial", "outcome", "pointer", "quadrature", "readout")
# Readouts whose shortest repr takes each of its forms.
SPECIAL_READOUTS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 1e22, 1.7976931348623157e308,
                    0.1, -2.5, np.inf, -np.inf, np.nan]


def _columns(records):
    return [getattr(records, name) for name in COLUMNS]


def _assert_reads_as_oracle(text):
    try:
        expected = oracle_records_from_csv(text)
    except InvalidRecordsError as exc:
        expected = exc
    try:
        got = RecordStream.from_csv(text)
    except InvalidRecordsError as exc:
        assert isinstance(expected, InvalidRecordsError), (text, exc)
        assert str(exc) == str(expected)
        return
    assert not isinstance(expected, Exception), (text, expected)
    for name, col in expected.items():
        mine = getattr(got, name)
        assert mine.dtype == col.dtype and mine.tobytes() == col.tobytes(), name


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), one_pointer=st.booleans(),
       shots=st.integers(1, 300), sigma_scale=st.floats(0.0, 3.0),
       offset=st.floats(-1.0, 1.0),
       specials=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIAL_READOUTS)),
                         max_size=8),
       chunk=st.sampled_from([1, 7, 1 << 14]))
@example(seed=0, d=2, one_pointer=True, shots=1, sigma_scale=0.0, offset=0.0,
         specials=[(0, -0.0)], chunk=1 << 14)
def test_writer_matches_the_per_row_oracle(seed, d, one_pointer, shots, sigma_scale, offset,
                                           specials, chunk):
    if one_pointer:
        measured = Observable.from_eigensystem(np.arange(d, dtype=float), reference_basis(d))
    else:
        measured = reference_basis(d)
    records = sample_records(random_density_matrix(d, d, seed), measured, fourier_basis(d),
                             PointerConfig(1 if one_pointer else d, g=0.2), shots=shots,
                             seed=seed, noise=NoiseModel(sigma_scale, offset))
    readout = records.readout.copy()
    for row, value in specials:
        readout[row % readout.size] = value
    cols = _columns(records)[:4] + [readout]
    with mock.patch.object(pointer, "_WRITE_ROWS", chunk):
        text = RecordStream(*cols).to_csv()
    assert text == oracle_records_csv(*cols)


int64s = st.integers(-(1 << 63), (1 << 63) - 1)


@settings(max_examples=100)
@given(rows=st.lists(st.tuples(int64s, st.integers(-3, 3), int64s, st.integers(0, 1),
                               st.floats(allow_nan=True, allow_infinity=True)),
                     max_size=40),
       chunk=st.sampled_from([1, 3, 1 << 14]), block=st.sampled_from([8, 64, 1 << 18]))
def test_any_columns_write_and_read_as_the_oracle_does(rows, chunk, block):
    # negative and 64-bit indices, columns wider than their row count
    cols = [np.array(col, dtype=dtype) for col, dtype in zip(
        zip(*rows) if rows else [[]] * 5,
        (np.int64, np.int64, np.int64, np.uint8, np.float64))]
    with mock.patch.object(pointer, "_WRITE_ROWS", chunk):
        text = RecordStream(*cols).to_csv()
    assert text == oracle_records_csv(*cols)
    with mock.patch.object(pointer, "_READ_CHARS", block):
        _assert_reads_as_oracle(text)


# Quadrature fields a fixed-width string column would misread.
QUAD_TEXT = ["qq", " q", "q ", "Q", "pq", "qp"]
mutation = st.tuples(st.sampled_from(["swap", "number", "drop", "truncate"]),
                     st.integers(0, 10**6), st.integers(0, 10**6),
                     st.sampled_from(BAD_TEXT + QUAD_TEXT))


@settings(max_examples=200)
@given(steps=st.lists(mutation, max_size=3), block=st.sampled_from([16, 64, 1 << 18]))
@example(steps=[("number", 2, 3, "qq")], block=1 << 18)
@example(steps=[("number", 2, 3, " q")], block=1 << 18)
# an index beyond 64 bits in row 1 and an unparsable readout in row 5: the
# unparsable row is named, from whichever block it is read
@example(steps=[("number", 1, 0, HUGE_INT), ("number", 5, 4, "x")], block=16)
@example(steps=[("number", 1, 0, HUGE_INT), ("number", 5, 4, "x")], block=1 << 18)
@example(steps=[("number", 3, 1, "99999999999999999999"),
                ("number", 9, 2, "-99999999999999999999")], block=16)
def test_mutated_records_read_as_the_oracle_reads_them(steps, block):
    text = _mutate_records(RECORDS, steps)
    header = text.split("\n", 1)[0]
    if header != header.strip():
        # The per-row reader stripped the header line; the grammar does not.
        with pytest.raises(InvalidRecordsError, match=re.escape(f"header: {header!r}") + "$"):
            RecordStream.from_csv(text)
        return
    with mock.patch.object(pointer, "_READ_CHARS", block):
        _assert_reads_as_oracle(text)


def test_crlf_line_ends_read_as_lf():
    crlf = RECORDS.replace("\n", "\r\n")
    for block in (16, 1 << 18):
        with mock.patch.object(pointer, "_READ_CHARS", block):
            _assert_reads_as_oracle(crlf)
            back = RecordStream.from_csv(crlf)
        assert back.to_csv() == RECORDS


def test_header_alone_and_no_final_line_end():
    for text in (RECORDS_HEADER, RECORDS_HEADER + "\n", RECORDS_HEADER + "\r\n",
                 RECORDS.rstrip("\n"), RECORDS + "\n\n"):
        _assert_reads_as_oracle(text)


ROW = "0,0,0,q,0.5"
# Rows the per-row reader took and the records grammar leaves out, each
# placed as data row 2, and what the error says of it.
OUTSIDE_GRAMMAR = {
    "underscores": ("1_0,0,0,q,1_0.5", "trial '1_0' holds whitespace"),
    "underscore in readout": ("1,1,0,p,1_0.5", "readout '1_0.5' holds whitespace"),
    "Arabic-Indic digit": ("\u0661,1,0,p,0.5", "trial '\u0661' holds"),
    "fullwidth digit": ("1,1,0,p,\uff10.5", "readout '\uff10.5' holds"),
    "leading space": (" 1,1,0,p,0.5", "trial ' 1' holds"),
    "trailing space": ("1,1,0,p,0.5 ", "readout '0.5 ' holds"),
    "tab": ("1,\t1,0,p,0.5", "outcome '\\\\t1' holds"),
    "file separator": (f"1,1,0,p,0.5\x1c{ROW}", "expected 5 fields, got 9"),
    "group separator": (f"1,1,0,p,0.5\x1d{ROW}", "expected 5 fields, got 9"),
    "line separator": (f"1,1,0,p,0.5\u2028{ROW}", "expected 5 fields, got 9"),
    "next line": (f"1,1,0,p,0.5\x85{ROW}", "expected 5 fields, got 9"),
    "vertical tab": (f"1,1,0,p,0.5\x0b{ROW}", "expected 5 fields, got 9"),
    "lone carriage return": (f"1,1,0,p,0.5\r{ROW}", "expected 5 fields, got 9"),
    "carriage return at the end": ("1,1,0,p,0.5\r", "readout '0.5\\\\r' holds"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_GRAMMAR))
@pytest.mark.parametrize("block", [8, 1 << 18])
def test_rows_outside_the_grammar_are_rejected(case, block):
    row, message = OUTSIDE_GRAMMAR[case]
    end = "" if case == "carriage return at the end" else "\n"
    text = f"{RECORDS_HEADER}\n{ROW}\n{row}{end}"
    oracle_records_from_csv(text)          # the per-row reader took it
    with mock.patch.object(pointer, "_READ_CHARS", block):
        with pytest.raises(InvalidRecordsError, match=f"^records row 2: {message}"):
            RecordStream.from_csv(text)


@pytest.mark.parametrize("header", [f" {RECORDS_HEADER}", f"{RECORDS_HEADER} ",
                                    f"{RECORDS_HEADER}\x1c", f"{RECORDS_HEADER}\r\r"])
def test_header_outside_the_grammar_is_rejected(header):
    text = f"{header}\n{ROW}\n"
    oracle_records_from_csv(text)
    with pytest.raises(InvalidRecordsError, match="unexpected record CSV header"):
        RecordStream.from_csv(text)


# Integer fields that a float parser reads, and the longest and shortest
# 64-bit indices.
FLOAT_LIKE_INTS = ["1.0", "2.5", "2.7", "1e3", "nan", "inf", "-0.0", "0x1", "1.", ".5",
                   "9223372036854775807", "-9223372036854775808", "+000000000000000000001"]


@pytest.mark.parametrize("field", FLOAT_LIKE_INTS)
@pytest.mark.parametrize("column", [0, 1, 2])
def test_integer_fields_read_as_int_reads_them_without_a_warning_filter(field, column):
    # numpy's loadtxt has cast an integer field read as a float, with only a
    # DeprecationWarning to show for it; the codec must not depend on that
    # warning being an error, as it is in this suite.
    fields = ROW.split(",")
    fields[column] = field
    text = f"{RECORDS_HEADER}\n{ROW}\n{','.join(fields)}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        _assert_reads_as_oracle(text)
    if not (re.fullmatch(r"[+-]?[0-9]+", field) and len(field) <= pointer._INT_CHARS):
        assert pointer._block_columns(f"{ROW}\n{','.join(fields)}\n") is None


def test_stream_longer_than_a_chunk_and_a_block():
    d = 4
    records = sample_records(random_density_matrix(d, d, 1), reference_basis(d),
                             fourier_basis(d), PointerConfig(d, g=0.2), shots=10_000, seed=2)
    assert len(records) > 2 * pointer._WRITE_ROWS
    text = records.to_csv()
    assert text == oracle_records_csv(*_columns(records))
    back = RecordStream.from_csv(text)
    for name, col in zip(COLUMNS, _columns(records)):
        assert getattr(back, name).dtype == col.dtype
        assert getattr(back, name).tobytes() == col.tobytes()
    # The rows of the first block: every line up to the first line end at or
    # past _READ_CHARS characters after the header.
    header_end = text.index("\n") + 1
    first_block_rows = text.count("\n", header_end,
                                  text.index("\n", header_end + pointer._READ_CHARS) + 1)
    assert 0 < first_block_rows < len(records) // 2
    lines = text.split("\n")
    bad = first_block_rows + 100               # data row bad, in the second block
    lines[bad] = lines[bad].replace(",q,", ",x,").replace(",p,", ",x,")
    lines[bad + 5000] = "1,2"
    broken = "\n".join(lines)
    with pytest.raises(InvalidRecordsError,
                       match=f"^records row {bad}: quadrature 'x' is neither"):
        RecordStream.from_csv(broken)
    _assert_reads_as_oracle(broken)
    # An index beyond 64 bits in the first block gives way to the parse error.
    lines[10] = HUGE_INT + lines[10][lines[10].index(","):]
    _assert_reads_as_oracle("\n".join(lines))
    lines[bad] = lines[bad].replace(",x,", ",q,")
    lines[bad + 5000] = lines[bad + 4999]
    with pytest.raises(InvalidRecordsError, match="^records row 10: trial 1000"):
        RecordStream.from_csv("\n".join(lines))


def test_writer_rejects_a_quadrature_outside_0_and_1():
    stream = RecordStream(trial=[0, 0, 1], outcome=[0, 0, 1], pointer=[0, 1, 0],
                          quadrature=[0, 0, 2], readout=[0.1, 0.2, 0.3])
    with pytest.raises(InvalidRecordsError, match=r"^records row 3: quadrature 2 outside"):
        stream.to_csv()
