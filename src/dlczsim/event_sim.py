"""Seeded Monte Carlo event generator for per-trial detector clicks.

Each trial owns a fixed-size block of the Philox counter space derived from
(seed, trial_index), so the generated stream is a pure function of the session
spec: chunk sizes and worker counts cannot change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import DETECTORS, DetectionMode, Detector, SessionSpec

# uniforms consumed per trial; Philox counter units are 4x64-bit blocks
_DRAWS_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = _DRAWS_PER_TRIAL // 4


@dataclass
class RecordStream:
    """Column-oriented detection records plus the metadata needed to interpret them."""

    mode: DetectionMode
    n_trials: int
    trial_index: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    detector_id: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    offset_ns: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    seed: int = 0   # the sampler's; 0 where a record file did not store it

    def __len__(self) -> int:
        return len(self.trial_index)

    def __iter__(self):
        return zip(self.trial_index.tolist(), self.detector_id.tolist(), self.offset_ns.tolist())

    @classmethod
    def join(cls, mode: DetectionMode, n_trials: int, blocks, seed: int = 0) -> "RecordStream":
        """The stream of column blocks (trial_index, detector_id, offset_ns), in order."""
        columns = list(zip(*blocks)) or [(), (), ()]
        return cls(mode, n_trials, *(np.concatenate([np.empty(0, dtype), *parts]) for dtype, parts
                                     in zip((np.uint64, np.uint8, np.uint32), columns)), seed=seed)


def _trial_uniforms(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Fill out, shape (count, _DRAWS_PER_TRIAL), with the uniforms of trials [start, start+count).

    Each uniform is (next_uint64 >> 11) * 2**-53, which is exactly numpy's double.
    """
    bg = np.random.Philox(key=seed, counter=[start * _BLOCKS_PER_TRIAL, 0, 0, 0])
    return np.random.Generator(bg).random(out=out)


def _pairs_possible(u0: np.ndarray, chi: float) -> np.ndarray:
    """Indices of a superset of the trials whose pair number n is positive.

    n = floor(log1p(-u0) / log(chi)) is 0 when 1 - u0 > chi.  The cut keeps a
    relative margin of 1e-6 on 1 - u0, far beyond the rounding of log1p and the
    division, so every trial outside the returned set has n == 0 exactly (at
    chi = 0 the set is empty, as every u0 < 1).
    """
    return np.flatnonzero(u0 >= 1.0 - chi * (1.0 + 1e-6))


def _sample_clicks(spec: SessionSpec, u: np.ndarray) -> np.ndarray:
    """Click-pattern codes (uint8; bit i is detector channel i) for the trials of uniform block u.

    Sampling is by inverse-CDF on the per-trial uniform block: pair number n is
    geometric in chi; conditioned on n, each detector's pair-photon arrival
    indicator (jointly, for the two split arms) and its Poisson background
    indicator use one uniform each.  The induced click-pattern distribution is
    exactly the analytic one.  A trial with n = 0 has every pair-arrival
    threshold at exactly 0, so pair arithmetic runs only on the trials that can
    hold a pair; backgrounds are one comparison per trial.
    """
    p = spec.params
    chans = spec.config.channels(p)
    background_uniforms = (2, 4) if spec.config.mode is DetectionMode.SINGLE else (2, 4, 5)
    codes = np.zeros(len(u), np.uint8)
    for i, (k, ch) in enumerate(zip(background_uniforms, chans)):
        codes |= (u[:, k] < 1.0 - np.exp(-ch.bg_mean)).view(np.uint8) << i

    rows = _pairs_possible(u[:, 0], p.chi)
    if len(rows) == 0:
        return codes
    u = u[rows]
    n = np.floor(np.log1p(-u[:, 0]) / np.log(p.chi)).astype(np.int64)

    pairs = (u[:, 1] < 1.0 - (1.0 - chans[0].pair_eff) ** n).view(np.uint8)
    if spec.config.mode is DetectionMode.SINGLE:
        pairs |= (u[:, 3] < 1.0 - (1.0 - chans[1].pair_eff) ** n).view(np.uint8) << 1
    else:
        ca, cb = chans[1], chans[2]
        # joint pair-arrival indicator for the two arms: routing is exclusive per photon
        p00 = (1.0 - ca.pair_eff - cb.pair_eff) ** n
        pa0 = (1.0 - ca.pair_eff) ** n   # no photon at arm a
        pb0 = (1.0 - cb.pair_eff) ** n
        # cell layout on [0,1): neither | a only | b only | both
        u3 = u[:, 3]
        edge_a = pb0                      # p00 + P(a only) = p00 + (pb0 - p00)
        edge_b = pb0 + (pa0 - p00)        # + P(b only)
        pairs |= (((u3 >= p00) & (u3 < edge_a)) | (u3 >= edge_b)).view(np.uint8) << 1
        pairs |= (u3 >= edge_a).view(np.uint8) << 2
    codes[rows] |= pairs
    return codes


def sample_trial(spec: SessionSpec, trial_index: int) -> set[Detector]:
    """Click set of one trial; distribution matches click_statistics exactly."""
    u = _trial_uniforms(spec.seed, trial_index, np.empty((1, _DRAWS_PER_TRIAL)))
    code = int(_sample_clicks(spec, u)[0])
    return {det for i, det in enumerate(DETECTORS[spec.config.mode]) if code >> i & 1}


def run_session(spec: SessionSpec, chunk_size: int = 1 << 16) -> RecordStream:
    """Generate the full record stream: deterministic in spec, ordered by trial then detector."""
    return RecordStream.join(spec.config.mode, spec.n_trials, session_chunks(spec, chunk_size),
                             spec.seed)


def session_chunks(spec: SessionSpec, chunk_size: int = 1 << 16):
    """Yield the session's records a chunk of trials at a time, as column blocks
    (trial_index, detector_id, offset_ns), the blocks that `RecordReader` yields."""
    det_ids = np.array(DETECTORS[spec.config.mode], dtype=np.uint8)
    read_off = spec.schedule.write_offset_ns + spec.schedule.read_delay_ns
    offset_of = np.full(len(Detector), read_off, dtype=np.uint32)
    offset_of[Detector.D1] = spec.schedule.write_offset_ns

    for start, codes in simulate_clicks(spec, chunk_size):
        # one record per set bit of each trial with a click, row-major: trial, then detector
        clicked = np.flatnonzero(codes)
        bits = np.unpackbits(codes[clicked, None], axis=1, count=len(det_ids), bitorder="little")
        rows, cols = np.nonzero(bits)
        detector_id = det_ids[cols]
        yield clicked[rows].astype(np.uint64) + np.uint64(start), detector_id, offset_of[detector_id]


def simulate_clicks(spec: SessionSpec, chunk_size: int = 1 << 16):
    """Yield (start, click-pattern codes) per chunk without materializing records.

    Fast path for statistics-only consumers (the correlator counts the codes
    instead of round-tripping through a record file).  The uniforms of all
    chunks share one buffer; the yielded code arrays are new per chunk.
    """
    buf = np.empty((min(chunk_size, spec.n_trials), _DRAWS_PER_TRIAL))
    for start in range(0, spec.n_trials, chunk_size):
        count = min(chunk_size, spec.n_trials - start)
        yield start, _sample_clicks(spec, _trial_uniforms(spec.seed, start, buf[:count]))
