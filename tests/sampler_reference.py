"""Direct-power reference for the sampler's pair thresholds.

This is the per-unit sampler that the power tables of `dlczsim.event_sim`
replaced: a fresh Philox per work unit, and every click threshold computed as
`(1 - pair_eff) ** n` on each trial's pair number n.  The edge tests in
`test_event_sim.py` compare the two samplers code for code.
"""

import numpy as np

from dlczsim.params import DetectionMode


def sample_clicks(spec, limits, start: int, count: int) -> np.ndarray:
    """Click-pattern codes of trials [start, start + count), as `event_sim._sample_clicks`."""
    philox = np.random.Philox(key=spec.seed, counter=[start * 8 // 4, 0, 0, 0])
    words = philox.random_raw(count * 8).reshape(count, 8)
    p, (bg_limits, cut) = spec.params, limits
    background_words = (2, 4) if spec.config.mode is DetectionMode.SINGLE else (2, 4, 5)
    codes = np.zeros(count, np.uint8)
    for i, (k, limit) in enumerate(zip(background_words, bg_limits)):
        codes |= (words[:, k] < limit).view(np.uint8) << i
    rows = np.flatnonzero(words[:, 0] >= cut)
    if len(rows) == 0:
        return codes
    u0, u1, u3 = np.right_shift(words.take(rows, 0)[:, (0, 1, 3)], 11).T * 2.0 ** -53
    n = np.floor(np.log1p(-u0) / np.log(p.chi)).astype(np.int64)

    chans = spec.config.channels(p)
    pairs = (u1 < 1.0 - (1.0 - chans[0].pair_eff) ** n).view(np.uint8)
    if spec.config.mode is DetectionMode.SINGLE:
        pairs |= (u3 < 1.0 - (1.0 - chans[1].pair_eff) ** n).view(np.uint8) << 1
    else:
        ca, cb = chans[1], chans[2]
        p00 = (1.0 - ca.pair_eff - cb.pair_eff) ** n
        pa0 = (1.0 - ca.pair_eff) ** n
        pb0 = (1.0 - cb.pair_eff) ** n
        edge_a = pb0
        edge_b = pb0 + (pa0 - p00)
        pairs |= (((u3 >= p00) & (u3 < edge_a)) | (u3 >= edge_b)).view(np.uint8) << 1
        pairs |= (u3 >= edge_a).view(np.uint8) << 2
    codes[rows] |= pairs
    return codes
