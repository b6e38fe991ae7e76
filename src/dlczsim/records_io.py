"""Detection-record serialization: PDR1 binary and CSV, both little-endian/exact round-trip."""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .event_sim import RecordStream
from .params import DetectionMode, Detector, TrialSchedule

MAGIC = b"PDR1"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")           # magic, version, record count
_RECORD_DTYPE = np.dtype([("trial_index", "<u8"), ("detector_id", "u1"), ("offset_ns", "<u4")])
assert _RECORD_DTYPE.itemsize == 13

BINARY = "bin"
CSV = "csv"
_CSV_HEADER = "trial_index,detector,offset_ns"
# ",label," right-aligned and NUL-padded in 5 bytes, by detector id
_LABEL_FIELDS = np.array([list(f",{d.label},".encode().rjust(5, b"\0")) for d in Detector], "u1")
# the 3 bytes before a label's second comma as a big-endian number: sorted, so in id order
_LABEL_KEYS = np.array([int.from_bytes(f",{d.label}".encode()[-3:], "big") for d in Detector])


class RecordFormatError(ValueError):
    """Malformed record file; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def write_records(stream: RecordStream, sink, fmt: str = BINARY) -> int:
    """Serialize a record stream; returns the number of bytes written."""
    if fmt == BINARY:
        payload = np.empty(len(stream), dtype=_RECORD_DTYPE)
        payload["trial_index"] = stream.trial_index
        payload["detector_id"] = stream.detector_id
        payload["offset_ns"] = stream.offset_ns
        data = _HEADER.pack(MAGIC, VERSION, len(stream)) + payload.tobytes()
    elif fmt == CSV:
        # one NUL-padded row per record: digits, ",label," and digits; the NULs drop out
        rows = np.hstack([_decimal(stream.trial_index), _LABEL_FIELDS.take(stream.detector_id, 0),
                          _decimal(stream.offset_ns),
                          np.full((len(stream), 1), ord("\n"), np.uint8)]).ravel()
        data = _CSV_HEADER.encode() + b"\n" + rows[rows != 0].tobytes()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    sink.write(data)
    return len(data)


def _decimal(values: np.ndarray) -> np.ndarray:
    """ASCII decimal digits of non-negative integers, right-aligned and NUL-padded, a row each."""
    v = np.array(values, np.uint64)
    out = np.zeros((len(str(int(v.max(initial=0)))), len(v)), np.uint8)   # a row per place
    for j in range(len(out) - 1, -1, -1):   # the units digit, then zeros only inside
        digit = (v % 10).astype(np.uint8) + np.uint8(ord("0"))
        out[j] = digit * ((v > 0) | (j == len(out) - 1))
        v //= 10
    return out.T


def read_records(source, schedule: TrialSchedule | None = None,
                 n_trials: int | None = None) -> RecordStream:
    """Read either format (binary detected by magic).  Raises RecordFormatError on corruption."""
    data = source.read()
    if isinstance(data, str):
        data = data.encode()
    if data[:4] == MAGIC:
        return _read_binary(data, schedule, n_trials)
    return _read_csv(data, schedule, n_trials)


def _read_binary(data: bytes, schedule, n_trials) -> RecordStream:
    if len(data) < _HEADER.size:
        raise RecordFormatError("truncated header", len(data))
    magic, version, count = _HEADER.unpack_from(data)
    if version != VERSION:
        raise RecordFormatError(f"unsupported version {version}", 4)
    expected = _HEADER.size + count * _RECORD_DTYPE.itemsize
    if len(data) != expected:
        raise RecordFormatError(
            f"record section has {len(data) - _HEADER.size} bytes, expected {count} records",
            min(len(data), expected))
    payload = np.frombuffer(data, dtype=_RECORD_DTYPE, count=count, offset=_HEADER.size)
    return _build_stream(payload["trial_index"].astype(np.uint64),
                         payload["detector_id"].astype(np.uint8),
                         payload["offset_ns"].astype(np.uint32), schedule, n_trials,
                         lambda i: _HEADER.size + i * _RECORD_DTYPE.itemsize)


def _read_csv(data: bytes, schedule, n_trials) -> RecordStream:
    """Rows (bytes between line feeds) that are digits, a label and digits, separated by two
    commas and ended by at most a CR, decode as arrays; the rest go through `_parse_lines`."""
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        raise RecordFormatError("CSV is not UTF-8 text", exc.start) from None
    buf = np.frombuffer(data, np.uint8)
    lf = np.flatnonzero(buf == ord("\n"))
    head = (data[:lf[0] if len(lf) else len(data)].decode().splitlines(keepends=True) or [""])[0]
    if head.strip() != _CSV_HEADER:
        raise RecordFormatError("missing or malformed CSV header", 0)
    starts = np.concatenate(([len(head.encode())], lf + 1))   # row 0 is the header's rest
    ends = np.append(lf, len(buf))
    commas = np.flatnonzero(buf == ord(","))
    first = np.searchsorted(commas, starts)
    rows = np.flatnonzero(np.diff(first, append=len(commas)) == 2)
    c1, c2 = commas[first[rows]], commas[first[rows] + 1]
    trial, ok = _decode_digits(buf, starts[rows], c1, b"18446744073709551616")
    off, ok_off = _decode_digits(buf, c2 + 1, ends[rows] - (buf[ends[rows] - 1] == ord("\r")),
                                 b"4294967296")
    label = sliding_window_view(buf, 4)[c2 - 4].view(">u4").ravel() & 0xFFFFFF
    det = np.minimum(np.searchsorted(_LABEL_KEYS, label), len(_LABEL_KEYS) - 1)
    ok &= ok_off & (_LABEL_KEYS[det] == label) & (c2 - c1 <= 4)
    good = np.zeros(len(starts), bool)
    good[rows[ok]] = True

    # runs of the other rows, line by line; then every record in file order
    slow = ([], [], [], [])                        # byte offset and the three columns
    for a, b in np.flatnonzero(np.diff(~good, prepend=False, append=False)).reshape(-1, 2).tolist():
        _parse_lines(data[starts[a]:ends[b - 1]].decode(), int(starts[a]), slow)
    at, trial, det, off = (np.concatenate((fast, np.array(more, fast.dtype))) for fast, more in zip(
        (starts[rows[ok]], trial[ok], det[ok].astype(np.uint8), off[ok].astype(np.uint32)), slow))
    order = np.argsort(at)
    return _build_stream(trial[order], det[order], off[order], schedule, n_trials,
                         lambda i: int(at[order[i]]))


def _decode_digits(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, limit: bytes):
    """uint64 values of the fields buf[lo:hi], and whether each is 1 to len(limit) digits below
    `limit` (compared as text)."""
    width = hi - lo
    ok = (width > 0) & (width <= len(limit))
    value = np.zeros(len(lo), np.uint64)
    for k in range(int(width.max(initial=0, where=ok))):   # k-th digit from the right
        digit = np.where(k < width, buf[hi - 1 - k] - np.uint8(ord("0")), np.uint8(0))
        ok &= digit <= 9
        value += digit * np.uint64(10 ** k)
    full = np.flatnonzero(ok & (width == len(limit)))
    ok[full] = buf[lo[full, None] + np.arange(len(limit))].view(f"S{len(limit)}").ravel() < limit
    return value, ok


def _parse_lines(text: str, offset: int, out) -> None:
    """Append (byte offset, trial index, detector id, offset_ns) of each non-blank line of text,
    at byte `offset` of the file, to the lists of `out`: by `int`, the stripped label, ranges."""
    for line, kept in zip(text.splitlines(), text.splitlines(keepends=True)):
        if line.strip():
            try:
                trial, label, off = line.split(",")
                record = (offset, int(trial), int(Detector.from_label(label.strip())), int(off))
            except ValueError:
                raise RecordFormatError(f"bad CSV record {line!r}", offset) from None
            if not (0 <= record[1] < 2 ** 64 and 0 <= record[3] < 2 ** 32):
                raise RecordFormatError(f"CSV record {line!r} out of range", offset)
            for column, value in zip(out, record):
                column.append(value)
        offset += len(kept.encode())


def _build_stream(trial_index, detector_id, offset_ns, schedule, n_trials,
                  record_offset) -> RecordStream:
    """Validate decoded columns; `record_offset(i)` is the byte position of record i."""
    split = (detector_id == Detector.D2A) | (detector_id == Detector.D2B)
    single = detector_id == Detector.D2
    # a record is mixed once both single- and split-mode records have appeared
    mixed = (split & np.logical_or.accumulate(single)) | (single & np.logical_or.accumulate(split))
    if n_trials is None:
        n_trials = int(trial_index.max()) + 1 if len(trial_index) else 0
    for bad, message in ((detector_id > max(Detector), "unknown detector id"),
                         (mixed, "stream mixes D2 with D2a/D2b records"),
                         (trial_index >= n_trials, f"trial index >= n_trials = {n_trials}")):
        if bad.any():
            raise RecordFormatError(message, record_offset(int(np.argmax(bad))))
    mode = DetectionMode.SPLIT if split.any() else DetectionMode.SINGLE
    return RecordStream(mode=mode, schedule=schedule or TrialSchedule(), n_trials=n_trials,
                        trial_index=trial_index, detector_id=detector_id,
                        offset_ns=offset_ns)
