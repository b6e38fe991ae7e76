"""Detection-record files, written chunk by chunk and read block by block: PDR2 binary and CSV
v2, whose headers carry n_trials, mode and seed, and the version-1 forms (PDR1, CSV without
the first line), read with the trial count given or inferred.  Layouts are in README."""

from __future__ import annotations

import re
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import DETECTORS, DetectionMode, Detector

MAGIC = b"PDR2"
VERSION = 2
_HEADER = struct.Struct("<4sI16sB16sQ")    # magic, version, n_trials, mode, seed, record count
_HEADER_V1 = struct.Struct("<4sIQ")         # PDR1: magic, version, record count
_MODES = (DetectionMode.SINGLE, DetectionMode.SPLIT)   # by PDR2 mode byte
_RECORD_DTYPE = np.dtype([("trial_index", "<u8"), ("detector_id", "u1"), ("offset_ns", "<u4")])
assert _RECORD_DTYPE.itemsize == 13
_BLOCK = 1 << 18            # bytes per read block
# by mode and detector id (a byte): whether it is a field-2 detector of that mode
_FIELD2 = np.array([np.isin(np.arange(256), DETECTORS[m][1:]) for m in _MODES])

BINARY = "bin"
CSV = "csv"
_CSV_HEADER = "trial_index,detector,offset_ns"
_CSV_V2 = "# dlczsim records v2 n_trials={} mode={} seed={}"
_CSV_V2_LINE = re.compile(r"# dlczsim records v2 n_trials=([0-9]+) mode=(single|split) seed=([0-9]+)")
# ",label," right-aligned and NUL-padded in 5 bytes, by detector id
_LABEL_FIELDS = np.array([list(f",{d.label},".encode().rjust(5, b"\0")) for d in Detector], "u1")
# the 3 bytes before a label's second comma as a big-endian number, by detector id
_LABEL_KEYS = np.array([int.from_bytes(f",{d.label}".encode()[-3:], "big") for d in Detector])
# by the last of those bytes, the id of the only label that ends in it (0 for no label)
_LABEL_OF = np.zeros(256, np.uint8)
_LABEL_OF[_LABEL_KEYS & 0xFF] = list(Detector)
assert len(set(_LABEL_KEYS & 0xFF)) == len(Detector)


class RecordFormatError(ValueError, OSError):
    """Malformed record file, an OSError like a failed read; `offset` is its byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _header(fmt: str, n_trials: int, mode: DetectionMode, seed: int, count: int | None) -> bytes:
    """A file's header; without a record count, one that the reader rejects: PDR2 declares
    2**64 - 1 records, and the CSV first line says `incomplete`."""
    if fmt == BINARY:
        return _HEADER.pack(MAGIC, VERSION, int(n_trials).to_bytes(16, "little"), _MODES.index(mode),
                            int(seed).to_bytes(16, "little"), 2 ** 64 - 1 if count is None else count)
    if fmt != CSV:
        raise ValueError(f"unknown format {fmt!r}")
    line = _CSV_V2.format(n_trials, mode.value, seed)
    line = line if count is not None else "# dlczsim records v2 incomplete".ljust(len(line))
    return f"{line}\n{_CSV_HEADER}\n".encode()


def write_chunks(chunks, sink, fmt: str, n_trials: int, mode: DetectionMode,
                 seed: int = 0) -> tuple[int, int]:
    """Write column blocks (trial_index, detector_id, offset_ns) as one file into a seekable
    sink, the final header last, so that a writer that dies leaves a file that does not read;
    returns (records, bytes)."""
    start, records = sink.tell(), 0
    size = sink.write(_header(fmt, n_trials, mode, seed, None))
    for trial, det, off in chunks:
        if fmt == BINARY:
            data = np.empty(len(trial), dtype=_RECORD_DTYPE)
            for name, column in zip(_RECORD_DTYPE.names, (trial, det, off)):
                data[name] = column
        else:   # one NUL-padded row per record: digits, ",label," and digits; the NULs drop out
            wt, wo = _width(trial), _width(off)
            data = np.empty((len(trial), wt + 5 + wo + 1), np.uint8)
            _decimal(trial, data[:, :wt])
            _LABEL_FIELDS.take(det, 0, out=data[:, wt:wt + 5])
            _decimal(off, data[:, wt + 5:-1])
            data[:, -1] = ord("\n")
            data = data.ravel()
            data = data[data != 0]
        size, records = size + sink.write(data.tobytes()), records + len(trial)
    sink.seek(start)
    sink.write(_header(fmt, n_trials, mode, seed, records))
    sink.seek(start + size)
    return records, size


def _width(values: np.ndarray) -> int:
    """The number of decimal digits of the largest of non-negative integers (1 for none)."""
    return len(str(int(np.max(values, initial=0))))


def _decimal(values: np.ndarray, out: np.ndarray) -> None:
    """Write the ASCII decimal digits of non-negative integers into the rows of `out`,
    right-aligned and NUL-padded, in as many places as `out` has columns (the digits of
    the largest value), in 32-bit arithmetic where that holds them."""
    v = np.asarray(values, np.uint32 if out.shape[1] < 10 else np.uint64)
    last = out.shape[1] - 1
    for j in range(last, -1, -1):   # the units digit, then zeros only inside
        q = v // 10
        digit = (v - q * 10).astype(np.uint8) + np.uint8(ord("0"))
        if j < last:
            digit *= v > 0
        out[:, j] = digit
        v = q


class RecordReader:
    """A record file read block by block (binary detected by magic).

    Opening reads the header: `n_trials`, `mode`, `seed`, None in a `version` 1 file.  The
    trial indices are checked against `n_trials`: the header's, the argument, which must
    agree with it, or a value set before iterating.  Iterating yields the checked columns
    (trial_index, detector_id, offset_ns) of blocks of about `_BLOCK` bytes up to the first
    error, and then raises the first error of the highest priority, whatever the block
    size: invalid UTF-8, bad structure (header, size, CSV row), unknown detector id, record
    of the other mode, trial index >= n_trials.  Else `n_trials` and `mode` are now known.
    """

    def __init__(self, source, n_trials: int | None = None):
        self._source, self._errors, self._end, self.records = source, {}, 0, 0
        self.version, self.n_trials, self.mode, self.seed = 1, None, None, None
        data = source.read(max(_BLOCK, _HEADER.size))
        self._blocks = (self._binary if data[:4] in (MAGIC, b"PDR1") else self._csv)(data)
        self._single, self._split = (self.mode is m for m in _MODES)   # records of each mode seen
        if n_trials is not None and self.n_trials not in (None, n_trials):
            raise ValueError(f"n_trials = {n_trials} given, but the file header says {self.n_trials}")
        self.n_trials = self.n_trials if n_trials is None else n_trials

    def __iter__(self):
        for trial, det, off, offset_of in self._blocks:
            self._check(trial, det, offset_of)
            if not self._errors:
                self.records += len(trial)
                yield trial, det, off
        if self._errors:   # by priority, the first error of each kind
            raise self._errors[min(self._errors)]
        self.n_trials = self._end if self.n_trials is None else self.n_trials   # the largest + 1
        self.mode = self.mode or (DetectionMode.SPLIT if self._split else DetectionMode.SINGLE)

    def _binary(self, data: bytes):
        """Parse the header and check the file's size, which needs a seekable source."""
        header, start = _HEADER if data[:4] == MAGIC else _HEADER_V1, self._source.tell() - len(data)
        data += self._source.read(max(header.size - len(data), 0))
        if len(data) < header.size:
            raise RecordFormatError("truncated header", len(data))
        _, version, *fields, count = header.unpack_from(data)
        if version != (VERSION if fields else 1):
            raise RecordFormatError(f"unsupported version {version}", 4)
        if fields:
            if fields[1] >= len(_MODES):
                raise RecordFormatError(f"unknown mode {fields[1]}", 24)
            self.version, self.mode = 2, _MODES[fields[1]]
            self.n_trials, self.seed = (int.from_bytes(f, "little") for f in fields[::2])
        size, found = _RECORD_DTYPE.itemsize, self._source.seek(0, 2) - start - header.size
        if found != count * size:
            raise RecordFormatError(f"record section has {found} bytes, expected {count} records",
                                    header.size + min(found, count * size))
        self._source.seek(start + header.size)
        return self._binary_blocks(header.size, count)

    def _binary_blocks(self, at: int, count: int):
        size, per_block = _RECORD_DTYPE.itemsize, max(_BLOCK // _RECORD_DTYPE.itemsize, 1)
        for first in range(0, count, per_block):
            records = np.frombuffer(self._source.read(min(count - first, per_block) * size),
                                    _RECORD_DTYPE)
            yield (records["trial_index"].astype(np.uint64), records["detector_id"].copy(),
                   records["offset_ns"].astype(np.uint32),
                   lambda i, at=at + first * size: at + i * size)

    def _csv(self, data: bytes):
        """Parse the header lines, which the first block holds: it ends at an LF after two."""
        data = _read_lines(self._source, data, 2 - data.count(b"\n"))
        cut = data.rfind(b"\n") + 1 if data.count(b"\n") >= 2 else len(data)
        text = _utf8(data[:cut], 0)
        head = column = _line(text, 0)
        if v2 := _CSV_V2_LINE.fullmatch(head.strip()):
            self.version, self.mode, self.n_trials, self.seed = 2, DetectionMode(v2[2]), int(v2[1]), int(v2[3])
            column = _line(text, len(head))
        at = len(head.encode()) if v2 else 0   # the column header's byte offset
        if column.strip() != _CSV_HEADER:
            self._errors[2] = RecordFormatError("missing or malformed CSV header", at)
        return self._csv_blocks(data[:cut], at + len(column.encode()), data[cut:])

    def _csv_blocks(self, block: bytes, rows_at: int, pending: bytes):
        """Blocks that end just after an LF, or at the end of the file; one without an LF
        grows until one appears.  Rows decode up to the first bad one, UTF-8 to the end."""
        at = 0   # the file offset of block
        while block:
            if 2 not in self._errors:
                try:
                    yield _csv_rows(block, at, rows_at if at == 0 else 0)
                except RecordFormatError as exc:
                    self._errors[2] = exc
            at += len(block)
            pending = _read_lines(self._source, pending, 1)
            cut = pending.rfind(b"\n") + 1 or len(pending)
            block, pending = pending[:cut], pending[cut:]
            _utf8(block, at)

    def _check(self, trial, det, offset_of) -> None:
        """Note a block's first unknown id, record of the other mode and trial >= n_trials."""
        single, split = (_first(mask) for mask in _FIELD2.take(det, 1))
        # a mode that an earlier block had is first at -1; once both modes have a record, the later
        # first one is the first record of the other mode (a block that had both has noted it)
        other = max(-1 if self._single else single, -1 if self._split else split)
        self._single, self._split = self._single or single < len(det), self._split or split < len(det)
        mixed = (f"record of the other mode in a {self.mode.value}-mode file" if self.version == 2
                 else "stream mixes D2 with D2a/D2b records")
        ends = np.inf if self.n_trials is None else self.n_trials
        for kind, at, message in ((3, _first(det > max(Detector)), "unknown detector id"), (4, other, mixed),
                                  (5, _first(trial >= ends), f"trial index >= n_trials = {ends}")):
            if kind not in self._errors and at < len(det):
                self._errors[kind] = RecordFormatError(message, offset_of(at))
        self._end = max(self._end, int(trial.max()) + 1 if len(trial) else 0)


def _first(mask: np.ndarray) -> int:
    """The index of the first True of a boolean array, or its length if it has none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _read_lines(source, data: bytes, lines: int) -> bytes:
    """`data` and the next reads of `source` up to the one that brings it `lines` more LFs, or
    to the end, joined once: a line of any length reads in linear time."""
    parts = [data]
    while lines > 0 and (more := source.read(_BLOCK)):
        parts.append(more)
        lines -= more.count(b"\n") if lines > 1 else b"\n" in more   # the last: a search
    return b"".join(parts)


def _utf8(data: bytes, at: int) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise RecordFormatError("CSV is not UTF-8 text", at + exc.start) from None


def _line(text: str, start: int) -> str:
    """The line of text at `start`, with its end, as `str.splitlines` splits."""
    return (text[start:text.find("\n", start) + 1 or len(text)].splitlines(keepends=True) or [""])[0]


def _csv_rows(data: bytes, base: int, start: int):
    """Decode the CSV rows of a block at byte `base` of the file, from byte `start` of the
    block: rows (bytes between line feeds) that are digits, a label and digits, separated
    by two commas and ended by at most a CR, decode as arrays; the rest go through
    `_parse_lines`.  Returns the columns in file order and the byte offset of record i."""
    n = len(data)
    buf = np.frombuffer(data + bytes(4), np.uint8)   # a label window that wraps reads NULs
    lf = np.flatnonzero(buf[start:n] == ord("\n")) + start
    starts = np.concatenate(([start], lf + 1))
    ends = np.append(lf, n)
    if starts[-1] == n:   # the block ends with an LF: no row after it
        starts, ends = starts[:-1], ends[:-1]
    commas = np.flatnonzero(buf[start:n] == ord(",")) + start
    # with twice as many commas as rows, pair them off in order: a row whose pair is not its
    # two commas (a row with more or fewer shifts the pairs after it) fails to decode, as
    # it has a comma in a digit field or a field that ends before it starts
    whole = len(commas) == 2 * len(starts)
    if whole:
        rows, lo, hi, c1, c2 = np.arange(len(starts)), starts, ends, commas[0::2], commas[1::2]
    else:
        first = np.searchsorted(commas, starts)
        rows = np.flatnonzero(np.diff(first, append=len(commas)) == 2)
        lo, hi, c1, c2 = starts[rows], ends[rows], commas[first[rows]], commas[first[rows] + 1]
    trial, ok = _decode_digits(buf, lo, c1, b"18446744073709551616")
    off, ok_off = _decode_digits(buf, c2 + 1, hi - (buf[hi - 1] == ord("\r")), b"4294967296")
    label = sliding_window_view(buf, 4)[c2 - 4].view(">u4").ravel() & 0xFFFFFF
    det = _LABEL_OF.take(label & 0xFF)
    ok &= ok_off & (_LABEL_KEYS.take(det) == label) & (c2 - c1 <= 4)
    if whole and ok.all():   # every row decodes: the columns are in file order
        return trial, det, off.astype(np.uint32), lambda i: base + int(starts[i])
    good = np.zeros(len(starts), bool)
    good[rows[ok]] = True

    # runs of the other rows, line by line; then every record in file order
    slow = ([], [], [], [])                        # byte offset and the three columns
    for a, b in np.flatnonzero(np.diff(~good, prepend=False, append=False)).reshape(-1, 2).tolist():
        _parse_lines(data[starts[a]:ends[b - 1]].decode(), base + int(starts[a]), slow)
    at, trial, det, off = (np.concatenate((fast, np.array(more, fast.dtype))) for fast, more in zip(
        (starts[rows[ok]] + base, trial[ok], det[ok], off[ok].astype(np.uint32)), slow))
    order = np.argsort(at)
    return trial[order], det[order], off[order], lambda i: int(at[order[i]])


def _decode_digits(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, limit: bytes):
    """uint64 values of the fields buf[lo:hi], and whether each is 1 to len(limit) digits below
    `limit` (compared as text)."""
    width = hi - lo
    ok = (width > 0) & (width <= len(limit))
    value = np.zeros(len(lo), np.uint64)
    always, at = int(width.min(initial=len(limit))), hi - 1   # digits all fields have; k's bytes
    for k in range(int(width.max(initial=0, where=ok))):   # k-th digit from the right
        digit = buf.take(at) - np.uint8(ord("0"))   # before a field: read, then zeroed
        if k >= always:
            digit *= k < width
        ok &= digit <= 9
        value += digit * np.uint64(10 ** k)
        at -= 1
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
