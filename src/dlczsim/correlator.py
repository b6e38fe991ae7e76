"""Streaming coincidence counting and metric estimation with uncertainties.

A coincidence is co-occurrence within one trial.  Multiple clicks of the same
detector in a trial count once.  Count tables from disjoint trial ranges merge
by componentwise addition, so accumulation shards freely.

A trial's click pattern is a bitmask whose bit i is detector i of the mode's
channel order (D1 is bit 0).  A count table's `values[S]` counts the trials in
which every detector of the subset bitmask S clicked (S = 0: every trial), and
each metric is a ratio of products of such counts.
"""

from __future__ import annotations

import math

import numpy as np

from .params import DETECTORS, DetectionMode, Detector
from .photon_model import (METRIC_NAMES, METRICS, SUBSETS, Metrics, SubsetValues, metric_record,
                           metric_values, mobius, zeta)

LOW_COUNT = 10  # below this, error bars are unreliable and get flagged

# by detector id: its bit in its mode's channel order
_CHANNEL_BIT = np.array([next(1 << ds.index(d) for ds in DETECTORS.values() if d in ds)
                         for d in Detector], np.uint8)

# pattern codes in the category order of the seeded bootstrap's multinomial draw
_DRAW_ORDER = {DetectionMode.SINGLE: [0b00, 0b01, 0b10, 0b11],
               DetectionMode.SPLIT: [0b000, 0b010, 0b100, 0b110,
                                     0b001, 0b011, 0b101, 0b111]}


class CountTable(SubsetValues):
    """Python-int subset-click counts n_trials (every trial), n1, n12, n1_2a_2b, ... of one
    mode.  Every subset is counted, the unheralded n2a_2b included, so that whole-trial
    bootstrap resampling has the full click-pattern joint distribution available."""

    prefix = "n"
    whole = "n_trials"
    default = (0, 0)


def count_patterns(blocks) -> np.ndarray | None:
    """Trials by click pattern p > 0 (`counts[p]`; counts[0] is 0), from record blocks
    (trial_index, detector_id, ...) of one mode, sorted by trial across blocks.  None if a
    trial index decreases."""
    counts = np.zeros(8, np.int64)
    last, carry = -1, 0   # the last trial so far and its pattern, not yet counted
    for trial, det, *_ in blocks:
        if len(trial) == 0:
            continue
        if trial[0] < last or np.any(trial[1:] < trial[:-1]):
            return None
        if det.max() >= len(_CHANNEL_BIT) or det.min() < 0:
            raise ValueError(f"unknown detector id {det[(det < 0) | (det >= len(_CHANNEL_BIT))][0]}")
        starts = np.concatenate(([0], np.flatnonzero(np.diff(trial)) + 1))
        codes = np.bitwise_or.reduceat(_CHANNEL_BIT[det], starts)
        if trial[0] == last:
            codes[0] |= carry
        elif last >= 0:
            counts[carry] += 1
        counts += np.bincount(codes[:-1], minlength=8)
        last, carry = int(trial[-1]), codes[-1]
    if last >= 0:
        counts[carry] += 1
    return counts


def table_from_counts(mode: DetectionMode, counts: np.ndarray, n_trials: int) -> CountTable:
    """Count table of n_trials trials from `counts[p]`, the trials of click-pattern code p > 0
    (`count_patterns`); counts[0] is ignored, as the trials without a click are the rest."""
    k = len(DETECTORS[mode])
    if np.any(counts[1 << k:]):
        raise ValueError(f"codes >= {1 << k} fed to a {mode.value}-mode count table")
    patterns = [n_trials - int(counts[1:].sum()), *counts[1:1 << k].tolist()]   # Python ints
    return CountTable(mode, tuple((np.array(patterns, object) @ zeta(k)).tolist()))


def accumulate_clicks(table: CountTable, codes: np.ndarray) -> CountTable:
    """Fast path: accumulate per-trial click-pattern codes (from event_sim.simulate_clicks)."""
    counts = np.bincount(codes, minlength=len(table.values))
    return merge(table, table_from_counts(table.mode, counts, len(codes)))


def merge(a: CountTable, b: CountTable) -> CountTable:
    """Combine tables built from disjoint trial ranges."""
    if a.mode is not b.mode:
        raise ValueError("cannot merge count tables of different detection modes")
    return CountTable(a.mode, tuple(x + y for x, y in zip(a.values, b.values)))


def _delta_errors(counts: np.ndarray, mode: DetectionMode, eta2: float,
                  vals: dict[str, float]) -> dict[str, float]:
    """Delta-method standard errors of the defined metrics, through the covariance
    Cov(Z_S, Z_T) = q[S | T] - q_S q_T of the indicators Z_S that all of S clicked."""
    n = counts[0]
    q = (counts / n).astype(float)
    masks = np.arange(len(q))
    cov = q[masks[:, None] | masks] - np.outer(q, q)
    ses = {}
    for name, (num, den) in METRICS[mode].items():
        if math.isnan(vals[name]):
            continue
        grad = np.zeros(len(q))
        for s, e in [(s, 1) for s in num] + [(s, -1) for s in den]:
            if q[s] > 0:   # Z_S of a subset that never clicked has no (co)variance
                grad[s] += e * vals[name] / q[s]
        ses[name] = math.sqrt(max(float(grad @ cov @ grad) / n, 0.0))
    if "pc" in ses:
        ses["qc"] = ses["pc"] / eta2
    return ses


def _bootstrap_errors(counts: np.ndarray, mode: DetectionMode, eta2: float,
                      n_boot: int, seed: int) -> dict[str, float]:
    """Whole-trial bootstrap: resample the per-trial click-pattern multinomial."""
    k = len(DETECTORS[mode])
    order = _DRAW_ORDER[mode]
    n = counts[0]
    if n >= 2 ** 63:
        raise ValueError(f"the bootstrap draws at most 2**63 - 1 trials, not {n}")
    patterns = counts.astype(np.int64) @ mobius(k)
    if np.any(patterns < 0):
        raise ValueError("inconsistent count table")
    draws = np.random.default_rng(seed).multinomial(n, patterns[order] / n, size=n_boot)
    ses = {}
    for name, a in metric_values((draws @ zeta(k)[order]).astype(object), mode, eta2).items():
        good = np.isfinite(a)
        if good.sum() >= 2:
            ses[name] = float(np.std(a[good], ddof=1))
    return ses


def estimate_metrics(table: CountTable, eta2: float = 0.25, method: str = "delta",
                     n_boot: int = 1000, seed: int = 0) -> Metrics:
    """Point estimates and standard errors for all metrics the table's mode supports."""
    if table.n_trials <= 0:
        raise ValueError("empty count table")
    if not 0.0 < eta2 <= 1.0:
        raise ValueError(f"eta2 must be finite and in (0, 1], got {eta2}")
    if method not in ("delta", "bootstrap"):
        raise ValueError(f"unknown error method {method!r}")

    mode = table.mode
    counts = np.array(table.values, dtype=object)   # Python ints indexed by subset bitmask
    vals = {name: float(v[0]) for name, v in metric_values(counts[None], mode, eta2).items()}
    if method == "delta":
        ses = _delta_errors(counts, mode, eta2, vals)
    else:
        ses = _bootstrap_errors(counts, mode, eta2, n_boot, seed)

    # singles and counts including D1; the unheralded n2a_2b only feeds the bootstrap
    low = [table.prefix + s for s, mask in SUBSETS[mode].items()
           if (mask & 1 or not mask & (mask - 1)) and table.values[mask] < LOW_COUNT]
    return metric_record(vals, ses, mode=mode, n_trials=table.n_trials, method=method,
                         warnings=("low-count: " + ",".join(low),) if low else (),
                         n_boot=n_boot if method == "bootstrap" else 0)


def report_text(m: Metrics) -> str:
    """Flat key-value metrics report."""
    lines = [f"mode = {m.mode.value}", f"n_trials = {m.n_trials}", f"error_method = {m.method}"]
    for name in METRIC_NAMES:
        lines += [f"{name} = {getattr(m, name)!r}", f"{name}_se = {getattr(m, name + '_se')!r}"]
    if m.undefined:
        lines.append("undefined = " + ",".join(sorted(m.undefined)))
    lines += [f"warning = {wmsg}" for wmsg in m.warnings]
    return "\n".join(lines) + "\n"
