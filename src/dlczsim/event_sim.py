"""Seeded Monte Carlo event generator for per-trial detector clicks.

Each trial owns a fixed-size block of the Philox counter space derived from
(seed, trial_index), so the generated stream is a pure function of the session
spec: work-unit sizes and worker counts cannot change it.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import islice

import numpy as np

from .params import DETECTORS, DetectionMode, Detector, SessionSpec

# raw 64-bit Philox words drawn per trial; a Philox counter unit is a block of 4 words
_DRAWS_PER_TRIAL = 8
_UNIT = 1 << 14   # trials per work unit: 1 MiB of words (numpy asks huge pages for 4 MiB)
_CHUNK_UNITS = 4  # work units per yielded chunk: 2**16 trials
_local = threading.local()   # each thread's one Philox generator


def _word_limit(t: float) -> int:
    """The L for which a word w, read as the uniform (w >> 11) * 2**-53, has u < t exactly
    when w < L: ceil(t * 2**53) << 11 in [0, 2**64] (all words are below 2**64)."""
    return min(max(math.ceil(t * 2.0 ** 53), 0), 1 << 53) << 11


def _limits(spec: SessionSpec) -> tuple[list[int], int]:
    """Word limits of each channel's background test, and of the pair cut u0 >= 1 - chi (1 + 1e-6):
    n = floor(log1p(-u0) / log(chi)) is 0 where 1 - u0 > chi, and the margin is far beyond the
    rounding of log1p and the division, so n == 0 exactly below the cut (at chi = 0, always)."""
    return ([_word_limit(1.0 - np.exp(-ch.bg_mean)) for ch in spec.config.channels(spec.params)],
            _word_limit(1.0 - spec.params.chi * (1.0 + 1e-6)))


def _words(seed: int, start: int, count: int) -> np.ndarray:
    """The raw words of trials [start, start + count), a row each: those of
    `Philox(key=seed, counter=start * _DRAWS_PER_TRIAL // 4)`, drawn by the thread's one
    generator with its key and counter set (a new Philox draws OS entropy that it ignores)."""
    if not hasattr(_local, "philox"):
        _local.philox = np.random.Philox(0)
    key, counter = (np.array([v >> 64 * i & (1 << 64) - 1 for i in range(size)], np.uint64)
                    for v, size in ((seed, 2), (start * _DRAWS_PER_TRIAL // 4, 4)))
    _local.philox.state = {"bit_generator": "Philox", "state": {"key": key, "counter": counter},
                           "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0,
                           "uinteger": 0}
    return _local.philox.random_raw(count * _DRAWS_PER_TRIAL).reshape(count, _DRAWS_PER_TRIAL)


def _sample_clicks(spec: SessionSpec, limits, start: int, count: int) -> np.ndarray:
    """Click-pattern codes (uint8; bit i is detector channel i) of trials [start, start + count).

    Inverse-CDF on each trial's raw Philox words, read as the uniforms (w >> 11) * 2**-53
    of numpy's `random`: pair number n is geometric in chi; given n, each detector's
    pair-photon arrival (jointly for the two split arms) and its Poisson background use
    one word each, so the click-pattern distribution is exactly the analytic one.
    Backgrounds and the pair cut compare words with `limits` (`_limits(spec)`); words 0,
    1 and 3 of the trials above the cut, about a fraction chi, become doubles.
    """
    words = _words(spec.seed, start, count)
    p, (bg_limits, cut) = spec.params, limits
    single = spec.config.mode is DetectionMode.SINGLE
    codes = np.zeros(count, np.uint8)
    for i, (w, limit) in enumerate(zip((2, 4) if single else (2, 4, 5), bg_limits)):
        codes |= (words[:, w] < limit).view(np.uint8) << i
    rows = np.flatnonzero(words[:, 0] >= cut)
    if len(rows) == 0:
        return codes
    u0, u1, u3 = np.right_shift(words.take(rows, 0)[:, (0, 1, 3)], 11).T * 2.0 ** -53
    del words   # a work unit's 1 MiB, freed before the pair arithmetic
    n = np.floor(np.log1p(-u0) / np.log(p.chi)).astype(np.int64)

    # the click thresholds are functions of n alone: taken over 0..max(n) and looked up by n
    # while that table is short against the rows (the same powers of the same operands, so
    # the same bits), else over n itself, as near chi = 1, where n reaches ~1e7
    top = int(n.max())
    table = 4 * top < len(n)
    k = np.arange(top + 1) if table else n

    def by_trial(threshold):
        return threshold.take(n) if table else threshold

    chans = spec.config.channels(p)
    pairs = (u1 < by_trial(1.0 - (1.0 - chans[0].pair_eff) ** k)).view(np.uint8)
    if single:
        pairs |= (u3 < by_trial(1.0 - (1.0 - chans[1].pair_eff) ** k)).view(np.uint8) << 1
    else:
        ca, cb = chans[1], chans[2]
        # joint pair-arrival indicator for the two arms: routing is exclusive per photon
        p00 = (1.0 - ca.pair_eff - cb.pair_eff) ** k
        pa0 = (1.0 - ca.pair_eff) ** k   # no photon at arm a
        pb0 = (1.0 - cb.pair_eff) ** k
        # cell layout on [0,1): neither | a only | b only | both
        edge_a = pb0                      # p00 + P(a only) = p00 + (pb0 - p00)
        edge_b = pb0 + (pa0 - p00)        # + P(b only)
        p00, edge_a, edge_b = by_trial(p00), by_trial(edge_a), by_trial(edge_b)
        pairs |= (((u3 >= p00) & (u3 < edge_a)) | (u3 >= edge_b)).view(np.uint8) << 1
        pairs |= (u3 >= edge_a).view(np.uint8) << 2
    codes[rows] |= pairs
    return codes


def sample_trial(spec: SessionSpec, trial_index: int) -> set[Detector]:
    """Click set of one trial; distribution matches click_statistics exactly."""
    code = int(_sample_clicks(spec, _limits(spec), trial_index, 1)[0])
    return {det for i, det in enumerate(DETECTORS[spec.config.mode]) if code >> i & 1}


def session_chunks(spec: SessionSpec):
    """Yield the session's records a chunk of trials at a time, as column blocks
    (trial_index, detector_id, offset_ns), the blocks that `RecordReader` yields."""
    det_ids = np.array(DETECTORS[spec.config.mode], dtype=np.uint8)
    k = len(det_ids)
    bits = np.arange(256)[:, None] >> np.arange(k) & 1 == 1   # by code: whether channel i clicked
    read_off = spec.schedule.write_offset_ns + spec.schedule.read_delay_ns
    offset_of = np.full(len(Detector), read_off, dtype=np.uint32)
    offset_of[Detector.D1] = spec.schedule.write_offset_ns

    for start, codes in simulate_clicks(spec):
        # one record per set bit of each trial with a click, row-major: trial, then detector
        clicked = np.flatnonzero(codes)
        rows, cols = np.divmod(np.flatnonzero(bits.take(codes[clicked], 0)), k)
        detector_id = det_ids.take(cols)
        trial = clicked.take(rows).astype(np.uint64) + np.uint64(start)
        yield trial, detector_id, offset_of.take(detector_id)


def sampler_workers(n_trials: int) -> int:
    """Sampling threads for a session: one per CPU this process may run on
    (`os.sched_getaffinity`, else `os.cpu_count`), at most one per work unit, at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, -(-n_trials // _UNIT)))


def _unit_codes(spec: SessionSpec):
    """Yield the codes of the session's work units of _UNIT trials in trial order: inline for one
    worker, else from `sampler_workers` threads with at most workers + 1 units in flight."""
    n, limits, workers = spec.n_trials, _limits(spec), sampler_workers(spec.n_trials)
    units = ((spec, limits, a, min(_UNIT, n - a)) for a in range(0, n, _UNIT))
    if workers == 1:
        yield from (_sample_clicks(*unit) for unit in units)
        return
    from concurrent.futures import ThreadPoolExecutor   # imported only where a pool runs
    with ThreadPoolExecutor(workers) as pool:
        window = []
        for unit in units:
            window.append(pool.submit(_sample_clicks, *unit))
            if len(window) > workers:
                yield window.pop(0).result()
        yield from (future.result() for future in window)


def simulate_clicks(spec: SessionSpec):
    """Yield (start, click-pattern codes) per chunk without materializing records.

    Fast path for statistics-only consumers (the correlator counts the codes
    instead of round-tripping through a record file).  A chunk joins _CHUNK_UNITS
    work units (`_unit_codes`) into a new array; the last one may be shorter.
    """
    units = _unit_codes(spec)
    for start in range(0, spec.n_trials, _CHUNK_UNITS * _UNIT):
        yield start, np.concatenate(list(islice(units, _CHUNK_UNITS)))
