import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import (CountTable, DetectionConfig, DetectionMode, Detector, ModelParams, SessionSpec,
                     accumulate_clicks, simulate_clicks)
from dlczsim.correlator import count_patterns, table_from_counts
from dlczsim.event_sim import session_chunks
from dlczsim import event_sim, records_io
from dlczsim.records_io import BINARY, CSV, RecordFormatError, RecordReader, write_chunks

import csv_reference
from conftest import joined


def make_columns(n_records, rng, mode=DetectionMode.SINGLE):
    """Random columns (trial_index, detector_id, offset_ns) of a session of 10**6 trials."""
    dets = ([int(Detector.D1), int(Detector.D2)] if mode is DetectionMode.SINGLE
            else [int(Detector.D1), int(Detector.D2A), int(Detector.D2B)])
    trials = np.sort(rng.integers(0, 10 ** 6, n_records).astype(np.uint64))
    return (trials, rng.choice(dets, n_records).astype(np.uint8),
            rng.integers(0, 2000, n_records).astype(np.uint32))


def write(columns, fmt, mode=DetectionMode.SINGLE, n_trials=10 ** 6, seed=0) -> bytes:
    """The record file of one block of columns."""
    sink = io.BytesIO()
    write_chunks([columns], sink, fmt, n_trials, mode, seed)
    return sink.getvalue()


def read(data, n_trials=None):
    """A whole record file: its columns, n_trials and mode, as `csv_reference.read_csv`."""
    reader = RecordReader(io.BytesIO(data), n_trials)
    columns = joined(reader)
    return columns, reader.n_trials, reader.mode


def assert_columns_equal(got, expected):
    for name, a, b in zip(("trial_index", "detector_id", "offset_ns"), got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_empty_binary_is_header_only():
    buf = io.BytesIO()
    assert write_chunks([], buf, BINARY, 0, DetectionMode.SINGLE) == (0, 49)
    assert buf.getvalue() == (b"PDR2" + (2).to_bytes(4, "little") + bytes(16) + b"\0"
                              + bytes(16) + bytes(8))


def test_csv_line_format():
    columns = (np.array([5], np.uint64), np.array([int(Detector.D2A)], np.uint8),
               np.array([300], np.uint32))
    assert write(columns, CSV, DetectionMode.SPLIT, n_trials=10).decode().splitlines() == [
        "# dlczsim records v2 n_trials=10 mode=split seed=0", "trial_index,detector,offset_ns",
        "5,D2a,300"]


@pytest.mark.parametrize("fmt", [BINARY, CSV])
def test_round_trip(fmt, rng):
    columns = make_columns(100_000, rng, DetectionMode.SPLIT)
    back, _, mode = read(write(columns, fmt, DetectionMode.SPLIT), n_trials=10 ** 6)
    assert_columns_equal(back, columns)
    assert mode is DetectionMode.SPLIT


def test_binary_record_is_13_bytes(rng):
    buf = io.BytesIO()
    assert write_chunks([make_columns(7, rng)], buf, BINARY, 10 ** 6, DetectionMode.SINGLE) == (
        7, 49 + 7 * 13)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        write_chunks([], io.BytesIO(), "xml", 0, DetectionMode.SINGLE)


def test_truncated_binary_reports_offset(rng):
    data = write(make_columns(10, rng), BINARY)[:-5]
    with pytest.raises(RecordFormatError) as exc:
        read(data)
    assert exc.value.offset == len(data)


def test_bad_magic_falls_back_to_csv_and_fails():
    with pytest.raises(RecordFormatError) as exc:
        read(b"XXXX garbage bytes")
    assert exc.value.offset == 0


def test_bad_csv_record():
    text = "trial_index,detector,offset_ns\n5,D9,300\n"
    with pytest.raises(RecordFormatError):
        read(text.encode())


def test_mode_detected_from_ids(rng):
    assert read(write(make_columns(50, rng), BINARY))[2] is DetectionMode.SINGLE


def _binary(records, v2=None, count=None):
    """PDR1 bytes for (trial_index, detector_id, offset_ns) tuples; PDR2 bytes for v2 =
    (n_trials, mode byte).  The header declares `count` records, by default all of them."""
    payload = np.array(records, dtype=[("t", "<u8"), ("d", "u1"), ("o", "<u4")])
    count = len(records) if count is None else count
    header = b"PDR1" + (1).to_bytes(4, "little") + count.to_bytes(8, "little")
    if v2:
        header = (b"PDR2" + (2).to_bytes(4, "little") + v2[0].to_bytes(16, "little")
                  + bytes([v2[1]]) + bytes(16) + count.to_bytes(8, "little"))
    return header + payload.tobytes()


HEADER = b"trial_index,detector,offset_ns\n"
V2_SPLIT = b"# dlczsim records v2 n_trials=5 mode=split seed=0\n"


MALFORMED = [
    (HEADER + b"0,D1,0\n-1,D2,300\n", len(HEADER) + 7),
    (HEADER + b"0,D1,0\n" + str(10 ** 23).encode() + b",D2,300\n", len(HEADER) + 7),
    (HEADER + b"0,D1,0\n0,D2," + str(2 ** 32).encode() + b"\n", len(HEADER) + 7),
    (HEADER + b"0,D1,0\n\xff,D2,300\n", len(HEADER) + 7),
    (HEADER + b"0,D1,0\n0,D2,300\n1,D2b,300\n", len(HEADER) + 16),
    (HEADER + b"0,D1,0\n0,D3,300\n", len(HEADER) + 7),
    (_binary([(0, 0, 0), (0, 1, 300), (1, 3, 300)]), 16 + 2 * 13),
    (_binary([(0, 0, 0), (1, 9, 300)]), 16 + 13),
    (V2_SPLIT + HEADER + b"1,D1,0\n2,D2,300\n", len(V2_SPLIT + HEADER) + 7),
    (V2_SPLIT + HEADER + b"1,D1,0\n5,D2a,300\n", len(V2_SPLIT + HEADER) + 7),
    (_binary([(0, 0, 0), (1, 2, 300)], v2=(5, 0)), 49 + 13),
    (_binary([(0, 0, 0), (5, 0, 300)], v2=(5, 0)), 49 + 13),
    (_binary([(0, 0, 0), (5, 0, 300)], v2=(5, 0), count=2 ** 64 - 1), 49 + 26),
    (b"# dlczsim records v2 incomplete".ljust(len(V2_SPLIT) - 1) + b"\n" + HEADER + b"1,D1,0\n", 0),
]


@pytest.mark.parametrize("data, offset", MALFORMED, ids=[
    "csv-negative-trial", "csv-huge-trial", "csv-huge-offset", "csv-not-utf8", "csv-mixed-modes",
    "csv-unknown-label", "bin-mixed-modes", "bin-unknown-detector", "csv-v2-other-mode",
    "csv-v2-trial-beyond-header", "bin-v2-other-mode", "bin-v2-trial-beyond-header",
    "bin-v2-unfinished", "csv-v2-unfinished"])
def test_malformed_input_raises_format_error(data, offset):
    with pytest.raises(RecordFormatError) as exc:
        read(data)
    assert exc.value.offset == offset


CRLF_HEADER = HEADER.replace(b"\n", b"\r\n")
NBSP_RECORD = "0,D1\u00a0,0\n".encode()   # a valid record: the label is stripped


@pytest.mark.parametrize("data, offset", [
    (CRLF_HEADER + b"1,D1,0\r\n2,D1,0\r\nx,D1,0\r\n", 48),
    (CRLF_HEADER + b"0,D1,0\r\n0,D2,300\r\n1,D2b,300\r\n", len(CRLF_HEADER) + 8 + 10),
    (HEADER + NBSP_RECORD + b"x,D2,300\n", len(HEADER) + len(NBSP_RECORD)),
    (HEADER + NBSP_RECORD + b"0,D2,300\n1,D2a,300\n", len(HEADER) + len(NBSP_RECORD) + 9),
], ids=["crlf-bad-record", "crlf-mixed-modes", "non-ascii-bad-record", "non-ascii-mixed-modes"])
def test_csv_error_offset_counts_bytes(data, offset):
    with pytest.raises(RecordFormatError) as exc:
        read(data)
    assert exc.value.offset == offset


@pytest.mark.parametrize("data, offset", [
    (HEADER + b"0,D1,0\n5,D2,300\n", len(HEADER) + 7),
    (_binary([(0, 0, 0), (5, 1, 300)]), 16 + 13),
], ids=["csv", "bin"])
def test_trial_beyond_declared_count_rejected(data, offset):
    assert read(data, n_trials=6)[1] == 6
    with pytest.raises(RecordFormatError) as exc:
        read(data, n_trials=5)
    assert exc.value.offset == offset


def _framed(body):
    """A valid PDR1 header in front of the whole 13-byte records of `body`."""
    n = len(body) // 13
    return b"PDR1" + (1).to_bytes(4, "little") + n.to_bytes(8, "little") + body[:13 * n]


@settings(max_examples=400, deadline=None)
@given(body=st.binary(max_size=200),
       frame=st.sampled_from([bytes, lambda b: b"PDR1" + b, _framed, lambda b: HEADER + b]))
def test_any_bytes_give_stream_or_format_error(body, frame):
    try:
        columns, n_trials, mode = read(frame(body))
    except RecordFormatError:
        return
    assert [c.dtype for c in columns] == [np.uint64, np.uint8, np.uint32]
    assert len({len(c) for c in columns}) == 1
    assert (len(columns[0]) == 0 or n_trials > int(columns[0].max())) and mode in DetectionMode


def test_empty_csv_is_header_only():
    buf = io.BytesIO()
    first = b"# dlczsim records v2 n_trials=0 mode=single seed=0\n"
    assert write_chunks([], buf, CSV, 0, DetectionMode.SINGLE) == (0, len(first + HEADER))
    assert buf.getvalue() == first + HEADER
    assert len(read(buf.getvalue())[0][0]) == 0


@pytest.mark.parametrize("fmt", [BINARY, CSV])
def test_edge_values_round_trip(fmt):
    columns = (np.array([0, 0, 9, 10, 2 ** 64 - 1], np.uint64), np.array([0, 2, 3, 0, 2], np.uint8),
               np.array([2 ** 32 - 1, 0, 10, 99, 2 ** 32 - 1], np.uint32))
    data = write(columns, fmt, DetectionMode.SPLIT, n_trials=2 ** 64)
    if fmt == CSV:
        assert data.decode().splitlines()[2:] == [
            f"{t},{Detector(d).label},{o}" for t, d, o in zip(*(c.tolist() for c in columns))]
    back, n_trials, _ = read(data)
    assert n_trials == 2 ** 64
    assert_columns_equal(back, columns)


def _outcome(read, data):
    try:
        columns, n_trials, mode = read(data)
    except RecordFormatError as exc:
        return "error", str(exc), exc.offset
    return "stream", [(c.dtype, c.tolist()) for c in columns], n_trials, mode


# the alphabet of the differential test: digits, separators, labels, signs, whitespace,
# line breaks and the values at the edges of the columns' ranges
CSV_TOKENS = (list("0123456789,Dabx+-_ \t\u00a0\r\n\x0c") + ["D1", "D2", "D2a", "D2b", "\r\n"]
              + [str(v) for v in (2 ** 64 - 1, 2 ** 64, 2 ** 32 - 1, 2 ** 32)])


@settings(max_examples=1500, deadline=None)
@given(head=st.sampled_from([HEADER.decode(), CRLF_HEADER.decode(), "\n",
                             " trial_index,detector,offset_ns \x0c", HEADER.decode()[:-1] + "\r"]),
       rows=st.lists(st.tuples(
           st.one_of(st.integers(0, 2 ** 64 - 1).map(str),
                     st.sampled_from(["0" * 21 + "7", str(2 ** 64), "9" * 20])),
           st.sampled_from(["D1", "D2", "D2a", "D2b"]),
           st.integers(0, 2 ** 32 - 1).map(str),
           st.sampled_from(["\n", "\r\n"])), max_size=6),
       noise=st.lists(st.tuples(st.integers(0, 200),
                                st.lists(st.sampled_from(CSV_TOKENS), max_size=4)), max_size=3))
def test_csv_reader_matches_line_by_line_reference(head, rows, noise):
    # well-formed rows with tokens of the alphabet spliced in after the header
    text = "".join(f"{t},{d},{o}{end}" for t, d, o, end in rows)
    for at, tokens in noise:
        at %= len(text) + 1
        text = text[:at] + "".join(tokens) + text[at:]
    text = head + text
    data = text.encode()
    assert _outcome(read, data) == _outcome(csv_reference.read_csv, data)


# blocks of 1 byte (a line or a record each) and of 7 bytes (reads that cut rows) for the
# short inputs; blocks that cut rows and records, several hundred of them, for the long one
@pytest.mark.parametrize("block", [1, 7, 4099])
def test_block_size_changes_nothing(monkeypatch, block, rng):
    monkeypatch.setattr(records_io, "_BLOCK", block)
    if block > 13:
        for fmt in (BINARY, CSV):
            test_round_trip(fmt, rng)
        return
    for data, offset in MALFORMED:
        test_malformed_input_raises_format_error(data, offset)
    test_any_bytes_give_stream_or_format_error()
    if block == 7:
        test_csv_reader_matches_line_by_line_reference()


def _outcome_at(block, data):
    saved, records_io._BLOCK = records_io._BLOCK, block
    try:
        return _outcome(read, data)
    finally:
        records_io._BLOCK = saved


# rows around the whole-block path, taken by a block with twice as many commas as rows and
# kept when every row decodes: these rows must read as line by line
WHOLE_BLOCK_ROWS = {
    "clean": b"".join(f"{t},{d},{t * 7}\n".encode() for t, d in zip(range(20), ["D1", "D2"] * 10)),
    "3-and-1-commas": b"0,D1,0\n1,D1,0,\n2D1,0\n3,D2,5\n",   # the comma count of 4 rows
    "1-and-3-commas": b"0,D1,0\n1D1,0\n2,D1,0,\n3,D2,5\n",
    "blank-line": b"0,D1,0\n\n1,D2,5\n",
    "crlf": b"0,D1,0\r\n1,D2,5\r\n",
    "no-final-lf": b"0,D1,0\n1,D2,5",
    "stripped-labels": b"0,D1,0\n1, D2,5\n2,\tD1,0\n",
    # unknown labels whose last byte is that of a label
    **{f"label-{label}": f"0,D1,0\n1,{label},5\n".encode()
       for label in ("xD1", "D12", "Dxa", "Dab")},
}


def test_writer_rows_decode_as_arrays(monkeypatch, rng):
    # the writer's rows, of every width, never reach the line-by-line parser
    monkeypatch.setattr(records_io, "_parse_lines", None)
    trials = np.sort(np.concatenate([rng.integers(0, 10 ** 6, 3000, np.uint64),
                                     np.array([0, 9, 10, 2 ** 64 - 1], np.uint64)]))
    columns = (trials, rng.choice([0, 2, 3], len(trials)).astype(np.uint8),
               rng.choice([0, 9, 10, 999, 1000, 2 ** 32 - 1], len(trials)).astype(np.uint32))
    assert_columns_equal(read(write(columns, CSV, DetectionMode.SPLIT, n_trials=2 ** 64))[0],
                         columns)


@pytest.mark.parametrize("rows", WHOLE_BLOCK_ROWS.values(), ids=WHOLE_BLOCK_ROWS.keys())
def test_whole_block_path_falls_back_exactly(rows):
    # every block size: the first read holds the header and more; later blocks start at
    # each row and end at each LF
    data = HEADER + rows
    expected = _outcome(csv_reference.read_csv, data)
    for block in range(1, len(data) + 2):
        assert _outcome_at(block, data) == expected, block


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.builds(lambda head, tokens: head + HEADER + "".join(tokens).encode(),
              st.sampled_from([V2_SPLIT, b"# dlczsim records v2 n_trials=90 mode=single seed=1\n"]),
              st.lists(st.sampled_from(CSV_TOKENS + ["#", ",7,", "\u00e9"]), max_size=30)),
    st.builds(lambda records, n_trials, mode, cut: _binary(records, v2=(n_trials, mode))[:cut],
              st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5), st.integers(0, 9)),
                       max_size=8),
              st.sampled_from([0, 10, 41]), st.integers(0, 2), st.integers(40, 200))))
def test_version_2_outcome_does_not_depend_on_block_size(data):
    assert _outcome_at(1, data) == _outcome_at(6, data) == _outcome_at(1 << 18, data)


def _read_seconds(data):
    """Wall seconds to read a record file through to its format error."""
    start = time.perf_counter()
    with pytest.raises(RecordFormatError):
        read(data)
    return time.perf_counter() - start


@pytest.mark.parametrize("head", [V2_SPLIT, V2_SPLIT + HEADER], ids=["column-header", "row"])
def test_long_line_reads_in_linear_time(monkeypatch, head):
    # a line without an LF, read 1 KiB at a time: 4 times as long takes about 4 times as
    # long to read, where a buffer rescanned or recopied at each read takes 16 times
    monkeypatch.setattr(records_io, "_BLOCK", 1 << 10)
    short, long = (head + b"x" * (size << 20) for size in (1, 4))
    times = [(_read_seconds(short), _read_seconds(long)) for _ in range(5)]
    short_s, long_s = (min(column) for column in zip(*times))
    assert long_s < 8 * short_s, times


def test_parse_error_in_later_block_beats_earlier_mixed_record(monkeypatch):
    data = HEADER + b"0,D1,0\n0,D2,300\n1,D2b,300\n" + b"2,D1,0\n" * 50 + b"x,D1,0\n"
    errors = []
    for block in (8, 1 << 18):
        monkeypatch.setattr(records_io, "_BLOCK", block)
        with pytest.raises(RecordFormatError) as exc:
            read(data)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == f"bad CSV record 'x,D1,0' (byte offset {len(data) - 7})"


# The first record of the other mode, by its index: a version 1 file takes the mode of its
# first field-2 record, a version 2 file its header's.  Blocks of 52 bytes hold 4 binary
# records, so the pair of case "both-in-a-later-block" shares the 8th block.
OTHER_MODE = [   # detector ids; the index reported in v1, v2 single-mode and v2 split-mode files
    ([1, 0, 2, 0], 2, 2, 0),
    ([0, 0, 1, 2, 1], 3, 3, 2),
    ([0, 0, 2, 1, 2], 3, 2, 3),
    ([0] * 28 + [1, 2], 29, 29, 28),
    ([0] * 28 + [3, 1], 29, 28, 29),
    ([1] * 20 + [0] * 10 + [3], 30, 30, 0),
    ([2] * 20 + [1], 20, 0, 20),
]


@pytest.mark.parametrize("block", [1 << 18, 52])
@pytest.mark.parametrize("fmt", [BINARY, CSV])
@pytest.mark.parametrize("ids, v1, single, split", OTHER_MODE, ids=[
    "in-first-block", "both-first-d2", "both-first-d2a", "both-in-a-later-block-d2",
    "both-in-a-later-block-d2b", "after-a-block-boundary", "after-a-block-boundary-split"])
def test_first_record_of_the_other_mode(monkeypatch, block, fmt, ids, v1, single, split):
    monkeypatch.setattr(records_io, "_BLOCK", block)
    columns = (np.arange(len(ids), dtype=np.uint64), np.array(ids, np.uint8),
               np.zeros(len(ids), np.uint32))
    for mode, at in ((None, v1), (DetectionMode.SINGLE, single), (DetectionMode.SPLIT, split)):
        data = write(columns, fmt, mode or DetectionMode.SINGLE, n_trials=len(ids))
        if mode is None and fmt == BINARY:   # the same records under a PDR1 header
            data = _binary(list(zip(*(c.tolist() for c in columns))))
        elif mode is None:
            data = data[data.index(b"\n") + 1:]
        if fmt == BINARY:
            offset = len(data) - 13 * (len(ids) - at)
        else:
            offset = sum(map(len, data.splitlines(keepends=True)[:(2 if mode else 1) + at]))
        message = (f"record of the other mode in a {mode.value}-mode file" if mode
                   else "stream mixes D2 with D2a/D2b records")
        with pytest.raises(RecordFormatError) as exc:
            read(data)
        assert str(exc.value) == f"{message} (byte offset {offset})", mode


@pytest.mark.parametrize("n_records", [0, 100])
@pytest.mark.parametrize("fmt", [BINARY, CSV])
@pytest.mark.parametrize("mode", list(DetectionMode))
def test_header_round_trip(fmt, mode, n_records, rng):
    # a session without clicks keeps its mode and trial count too
    seed = 2 ** 100 + 3
    data = write(make_columns(n_records, rng, mode), fmt, mode, seed=seed)
    reader = RecordReader(io.BytesIO(data))
    assert (reader.version, reader.n_trials, reader.mode, reader.seed) == (2, 10 ** 6, mode, seed)
    back = RecordReader(io.BytesIO(data), n_trials=10 ** 6)
    n_read = len(joined(back)[0])
    assert (back.n_trials, back.mode, back.seed, n_read) == (10 ** 6, mode, seed, n_records)
    with pytest.raises(ValueError, match="header says 1000000"):
        read(data, n_trials=10 ** 6 + 1)


@pytest.mark.parametrize("fmt", [BINARY, CSV])
def test_writer_that_dies_leaves_a_rejected_file(fmt, rng):
    columns = make_columns(1000, rng)

    def chunks():
        yield columns
        raise RuntimeError("killed")

    buf = io.BytesIO()
    with pytest.raises(RuntimeError):
        write_chunks(chunks(), buf, fmt, 10 ** 6, DetectionMode.SINGLE, seed=4)
    with pytest.raises(RecordFormatError):
        read(buf.getvalue())
    halves = [tuple(column[part] for column in columns)
              for part in (slice(0, 400), slice(400, None))]
    buf = io.BytesIO()
    assert write_chunks(halves, buf, fmt, 10 ** 6, DetectionMode.SINGLE, seed=4) == (
        1000, len(buf.getvalue()))
    assert buf.getvalue() == write(columns, fmt, seed=4)


@pytest.mark.parametrize("fmt", [BINARY, CSV])
def test_sampler_chunks_and_reader_blocks_count_alike(fmt, monkeypatch):
    # a dense split session: several sampler chunks and many read blocks
    monkeypatch.setattr(records_io, "_BLOCK", 1 << 14)
    monkeypatch.setattr(event_sim, "_UNIT", 1 << 12)   # chunks of 2**14 trials
    p = ModelParams(chi=0.3, bg1_coherent=2e-3, bg2_coherent=1.3e-2, bg1_incoherent=1e-5,
                    bg2_incoherent=1e-5)
    spec = SessionSpec(params=p, config=DetectionConfig(DetectionMode.SPLIT), n_trials=200_000,
                       seed=12)
    buf = io.BytesIO()
    write_chunks(session_chunks(spec), buf, fmt, spec.n_trials, DetectionMode.SPLIT, spec.seed)
    from_chunks = count_patterns(session_chunks(spec))
    blocks = list(RecordReader(io.BytesIO(buf.getvalue())))
    from_file = count_patterns(blocks)
    assert len(blocks) > 10
    assert np.array_equal(from_chunks, from_file)
    table = CountTable(DetectionMode.SPLIT)
    for _, codes in simulate_clicks(spec):
        table = accumulate_clicks(table, codes)
    assert table_from_counts(DetectionMode.SPLIT, from_file, spec.n_trials) == table
