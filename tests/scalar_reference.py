"""Scalar, point-by-point reference for the click model, its metrics and the fit residuals.

The click model is the textbook inclusion-exclusion over joint silence
probabilities, summed in 60-digit arithmetic so that its cancellation costs no
float digit; the metrics, the 80-step bisection in chi and the residual loop are
the scalar forms that the vectorised paths of `photon_model` and `model_fit`
replaced.  The pin tests compare those paths against them.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np

from dlczsim import DetectionConfig, DetectionMode
from dlczsim.model_fit import ALT_BG_FLAG, PENALTY
from dlczsim.params import Detector
from dlczsim.photon_model import SUBSETS

SINGLE = DetectionConfig(DetectionMode.SINGLE)
SPLIT = DetectionConfig(DetectionMode.SPLIT)


def click_probs(params, config):
    """Every subset-click probability in `Statistics.as_dict` order: the inclusion-exclusion
    sum over joint silence probabilities, in 60-digit arithmetic, rounded to float."""
    chans = config.channels(params)
    with mpmath.workdps(60):
        chi = mpmath.mpf(params.chi)
        silent = []   # P(no detector of bitmask S clicks)
        for s in range(1 << len(chans)):
            x = y = bg = mpmath.mpf(0)
            for i, ch in enumerate(chans):
                if s >> i & 1:
                    bg += ch.bg_mean
                    if ch.detector is Detector.D1:
                        x += ch.pair_eff
                    else:
                        y += ch.pair_eff
            silent.append(mpmath.exp(-bg) * (1 - chi) / (1 - chi * (1 - x) * (1 - y)))
        return [float(mpmath.fsum((-1) ** bin(u).count("1") * silent[u]
                                  for u in range(1 << len(chans)) if u & s == u))
                for s in SUBSETS[config.mode].values()]


def full_metrics(params):
    """(metrics dict, undefined set) from the per-mode metric formulas."""
    p1, p2, p12 = click_probs(params, SINGLE)
    m = dict.fromkeys(("g12", "w", "pc", "qc", "p12", "naive_ratio"), math.nan)
    m["p12"] = p12
    if p1 > 0.0 and p2 > 0.0:
        m["g12"] = p12 / (p1 * p2)
    if p1 > 0.0:
        m["pc"] = p12 / p1
        m["qc"] = m["pc"] / params.eta2
        m["naive_ratio"] = p2 / p1
    q1, _, _, q1a, q1b, _, triple = click_probs(params, SPLIT)
    if q1a > 0.0 and q1b > 0.0:
        m["w"] = q1 * triple / (q1a * q1b)
    return m, {k for k, v in m.items() if math.isnan(v)}


def p1_of_chi(params, chi):
    b1 = params.bg1_coherent * (chi / params.chi_ref) * params.eta1 + params.bg1_incoherent
    return -math.expm1(-b1) + math.exp(-b1) * chi * params.eta1 / (1.0 - chi * (1.0 - params.eta1))


def chi_from_p1(params, target):
    """80-step bisection on [0, 1 - 1e-12]; NaN at or below p1(0)."""
    if not target > p1_of_chi(params, 0.0):
        return math.nan
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if p1_of_chi(params, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def residuals(params, dataset, bg1_incoherent_alt=None, invert=chi_from_p1):
    """Residuals point by point; `invert(params, p1)` gives each point's chi."""
    out = []
    for pt in dataset.points:
        p = params
        if ALT_BG_FLAG in pt.flags and bg1_incoherent_alt is not None:
            p = replace(params, bg1_incoherent=bg1_incoherent_alt)
        chi = float(invert(p, pt.p1))
        preds = full_metrics(p.with_chi(chi))[0] if np.isfinite(chi) else None
        for name, space in (("g12", "log"), ("p12", "log"), ("qc", "lin"), ("w", "lin")):
            obs, se = getattr(pt, name), getattr(pt, name + "_se")
            if not (math.isfinite(obs) and math.isfinite(se) and se > 0):
                continue
            pred = preds[name] if preds is not None else math.nan
            if not math.isfinite(pred) or (space == "log" and (pred <= 0 or obs <= 0)):
                out.append(PENALTY)
            elif space == "log":
                out.append((math.log(pred) - math.log(obs)) / (se / obs))
            else:
                out.append((pred - obs) / se)
    return np.array(out)
