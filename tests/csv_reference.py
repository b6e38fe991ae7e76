"""Line-by-line reference for the CSV record reader.

This is the per-record Python reader that the array reader of
`dlczsim.records_io` replaced: whole-text `splitlines`, then `split(",")`,
`int` and the stripped label on each non-blank line, with the byte offset of
a bad line recounted from the start of the file, then the record checks (mixed
modes, trial count) record by record.  The differential test in
`test_records_io.py` compares the two readers on generated CSV-like text.
"""

import numpy as np

from dlczsim.params import DetectionMode, Detector
from dlczsim.records_io import RecordFormatError


def read_csv(data: bytes, n_trials=None):
    """The columns (trial_index, detector_id, offset_ns), n_trials and mode of a CSV v1 file."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise RecordFormatError("CSV is not UTF-8 text", exc.start) from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != "trial_index,detector,offset_ns":
        raise RecordFormatError("missing or malformed CSV header", 0)
    trials, dets, offs, linenos = [], [], [], []
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
        linenos.append(lineno)
    modes = set()
    for det, lineno in zip(dets, linenos):
        if det in (Detector.D2, Detector.D2A, Detector.D2B):
            modes.add(det == Detector.D2)
            if len(modes) == 2:
                raise RecordFormatError("stream mixes D2 with D2a/D2b records",
                                        _line_offset(text, lineno))
    if n_trials is None:
        n_trials = max(trials, default=-1) + 1
    for trial, lineno in zip(trials, linenos):
        if trial >= n_trials:
            raise RecordFormatError(f"trial index >= n_trials = {n_trials}",
                                    _line_offset(text, lineno))
    columns = (np.array(trials, np.uint64), np.array(dets, np.uint8), np.array(offs, np.uint32))
    return columns, n_trials, DetectionMode.SPLIT if False in modes else DetectionMode.SINGLE


def _csv_records(lines):
    """(line number, text) of each non-blank record line after the header."""
    for lineno, line in enumerate(lines[1:], 1):
        if line.strip():
            yield lineno, line


def _line_offset(text: str, lineno: int) -> int:
    """Byte position in the UTF-8 file of line `lineno` (0-based) of text.splitlines()."""
    return sum(len(line.encode()) for line in text.splitlines(keepends=True)[:lineno])
