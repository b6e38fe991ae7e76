"""Detection-record serialization: PDR1 binary and CSV, both little-endian/exact round-trip."""

from __future__ import annotations

import io
import itertools
import struct

import numpy as np

from .event_sim import RecordStream
from .params import DetectionMode, Detector, TrialSchedule

MAGIC = b"PDR1"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")           # magic, version, record count
_RECORD_DTYPE = np.dtype([("trial_index", "<u8"), ("detector_id", "u1"), ("offset_ns", "<u4")])
assert _RECORD_DTYPE.itemsize == 13

BINARY = "bin"
CSV = "csv"


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
        sink.write(data)
        return len(data)
    if fmt == CSV:
        buf = io.StringIO()
        buf.write("trial_index,detector,offset_ns\n")
        labels = [d.label for d in Detector]   # indexed by detector id
        for trial, det, off in stream:
            buf.write(f"{trial},{labels[det]},{off}\n")
        data = buf.getvalue().encode()
        sink.write(data)
        return len(data)
    raise ValueError(f"unknown format {fmt!r}")


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
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise RecordFormatError("CSV is not UTF-8 text", exc.start) from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != "trial_index,detector,offset_ns":
        raise RecordFormatError("missing or malformed CSV header", 0)
    trials, dets, offs = [], [], []
    for lineno, line in _csv_records(lines):
        parts = line.split(",")
        if len(parts) != 3:
            raise RecordFormatError(f"bad CSV record {line!r}", _line_offset(text, lineno))
        try:
            trials.append(int(parts[0]))
            dets.append(int(Detector.from_label(parts[1].strip())))
            offs.append(int(parts[2]))
        except ValueError:
            raise RecordFormatError(f"bad CSV record {line!r}",
                                    _line_offset(text, lineno)) from None
        if not (0 <= trials[-1] < 2 ** 64 and 0 <= offs[-1] < 2 ** 32):
            raise RecordFormatError(f"CSV record {line!r} out of range",
                                    _line_offset(text, lineno))
    return _build_stream(np.array(trials, np.uint64), np.array(dets, np.uint8),
                         np.array(offs, np.uint32), schedule, n_trials,
                         lambda i: _line_offset(
                             text, next(itertools.islice(_csv_records(lines), i, None))[0]))


def _csv_records(lines):
    """(line number, text) of each non-blank record line after the header."""
    for lineno, line in enumerate(lines[1:], 1):
        if line.strip():
            yield lineno, line


def _line_offset(text: str, lineno: int) -> int:
    """Byte position in the UTF-8 file of line `lineno` (0-based) of text.splitlines()."""
    return sum(len(line.encode()) for line in text.splitlines(keepends=True)[:lineno])


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
    if schedule is None:
        schedule = TrialSchedule()
    mode = DetectionMode.SPLIT if split.any() else DetectionMode.SINGLE
    return RecordStream(mode=mode, schedule=schedule, n_trials=n_trials,
                        trial_index=trial_index, detector_id=detector_id,
                        offset_ns=offset_ns)
