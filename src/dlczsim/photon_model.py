"""Exact click statistics for the pair source model, and a brute-force enumeration oracle.

The source emits photon pairs with joint number distribution P(n1=n2=n) = (1-chi) chi^n.
Each pair photon independently survives (or not) a per-detector thinning chain, and each
detector additionally sees independent Poisson background counts.  A detector clicks iff
at least one photon (pair or background) arrives.  Every click probability is a sum of
non-negative terms: closed-form probabilities that pair photons reach a set of
detectors, weighted by background factors.

Detector subsets are bitmasks whose bit i is channel i of `DetectionConfig.channels`
(D1 is bit 0).  One array pass over chi gives every subset-click probability, and
each metric is a ratio of products of those, by the same table the correlator
applies to subset counts.  The click-pattern distribution is their Moebius transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, make_dataclass
from typing import ClassVar

import numpy as np

from .params import DETECTORS, DetectionConfig, DetectionMode, ModelParams, bg1_mean

UNDEFINED = float("nan")

# subset name -> bitmask; statistic p<name> (count n<name>) is the probability
# (number) of trials in which every detector of the subset clicked
SUBSETS = {
    DetectionMode.SINGLE: {"1": 0b01, "2": 0b10, "12": 0b11},
    DetectionMode.SPLIT: {"1": 0b001, "2a": 0b010, "2b": 0b100, "1_2a": 0b011,
                          "1_2b": 0b101, "2a_2b": 0b110, "1_2a_2b": 0b111},
}

# metric -> (numerator subsets, denominator subsets), over subset-click probabilities
# or counts; subset 0 is every trial, and qc is pc / eta2
METRICS = {
    DetectionMode.SINGLE: {
        "p1": ((0b01,), (0b00,)),
        "p2": ((0b10,), (0b00,)),
        "p12": ((0b11,), (0b00,)),
        "g12": ((0b11, 0b00), (0b01, 0b10)),
        "pc": ((0b11,), (0b01,)),
        "naive_ratio": ((0b10,), (0b01,)),
    },
    DetectionMode.SPLIT: {
        "p1": ((0b001,), (0b000,)),
        "w": ((0b001, 0b111), (0b011, 0b101)),
    },
}


def metric_values(values, mode: DetectionMode, eta2: float, names=None) -> dict[str, np.ndarray]:
    """Metrics by name from subset values by mask S, `values[S]` of a dict or of an array's
    last axis: click probabilities, or counts as exact Python ints in an object array.
    Only `names` where given (qc reads pc).  NaN where a denominator is 0; a ratio beyond
    the largest float is inf."""
    values = values if isinstance(values, dict) else dict(enumerate(np.moveaxis(values, -1, 0)))
    kind = complex if any(map(np.iscomplexobj, values.values())) else float
    vals = {}
    with np.errstate(over="ignore"):
        for name, sides in METRICS[mode].items():
            if names is None or name in names or name == "pc" and "qc" in names:
                top, bottom = (values[f[0]] * (values[f[1]] if len(f) > 1 else 1) for f in sides)
                defined = bottom != 0
                vals[name] = np.where(defined, top / np.where(defined, bottom, 1),
                                      UNDEFINED).astype(kind, copy=False)
        if "pc" in vals:   # qc, like any metric, is NaN where its denominator, eta2, is 0
            known = np.not_equal(eta2, 0)
            vals["qc"] = np.where(known, vals["pc"] / np.where(known, eta2, 1), UNDEFINED)
    return vals


def zeta(k: int) -> np.ndarray:
    """Z[p, S] = 1 if subset S lies in click pattern p, over k-bit codes: pattern
    counts or probabilities @ Z are the subset-click counts or probabilities."""
    codes = np.arange(1 << k)
    return (codes[:, None] & codes == codes).astype(np.int64)


def mobius(k: int) -> np.ndarray:
    """The inverse of zeta(k): subset-click values @ mobius(k) are the pattern values."""
    sign = (-1) ** np.array([bin(c).count("1") for c in range(1 << k)])
    return zeta(k) * np.outer(sign, sign)


def tmss_pgf(chi, x, y):
    """E[x^n1 y^n2] for the pair-number distribution P(n1=n2=n) = (1-chi) chi^n.

    Closed form: (1 - chi) / (1 - chi x y).  Accepts numpy arrays.
    """
    chi, x, y = (np.asarray(v, dtype=float) for v in (chi, x, y))
    if np.any(chi < 0) or np.any(chi >= 1):
        raise ValueError("chi must be in [0, 1)")
    if np.any((x < 0) | (x > 1)) or np.any((y < 0) | (y > 1)):
        raise ValueError("pgf arguments must be in [0, 1]")
    out = (1.0 - chi) / (1.0 - chi * x * y)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, init=False)
class SubsetValues:
    """Values indexed by detector-subset bitmask S of one detection mode (index 0 is
    every trial).  Entry SUBSETS[mode][s] is read, and set by keyword, as `prefix + s`,
    and entry 0 as `whole` where the class names it."""

    mode: DetectionMode
    values: tuple

    prefix: ClassVar[str]
    whole: ClassVar[str | None] = None   # None names no entry
    default: ClassVar[tuple]       # (entry 0, every other entry) where not given

    def __init__(self, mode: DetectionMode, values: tuple | None = None, **named):
        first, rest = self.default
        values = list(values or (first,) + (rest,) * len(SUBSETS[mode]))
        for name, value in named.items():
            values[self._index(mode, name)] = value
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def _index(cls, mode: DetectionMode, name: str) -> int:
        """The entry `name` names; a subset the mode lacks is an AttributeError."""
        names = {cls.whole: 0, **{cls.prefix + s: mask for s, mask in SUBSETS[mode].items()}}
        if name not in names:
            raise AttributeError(f"{cls.__name__} of {mode.value} mode has no {name!r}")
        return names[name]

    def __getattr__(self, name: str):
        if name in ("mode", "values"):   # not set yet: no names to look up
            raise AttributeError(name)
        return self.values[self._index(self.mode, name)]

    def as_dict(self) -> dict:
        return {self.prefix + s: self.values[mask] for s, mask in SUBSETS[self.mode].items()}


class Statistics(SubsetValues):
    """Per-trial click probabilities p1, p12, p1_2a_2b, ... of one configuration; values[0] = 1."""

    prefix = "p"
    default = (1.0, UNDEFINED)


# metric names in report order
METRIC_NAMES = ("p1", "p2", "p12", "g12", "pc", "qc", "w", "naive_ratio")


Metrics = make_dataclass(
    "Metrics",
    [(k, float, UNDEFINED) for name in METRIC_NAMES for k in (name, name + "_se")]
    + [("undefined", frozenset, frozenset()), ("warnings", tuple, ()),
       ("mode", "DetectionMode | None", None), ("n_trials", int, 0), ("method", str, ""),
       ("n_boot", int, 0), ("chi", float, UNDEFINED)],
    namespace={"__module__": __name__, "__doc__":
               "One metric table: each metric of METRIC_NAMES, NaN where undefined (and then "
               "listed in `undefined`), and its standard error <name>_se, NaN where not "
               "estimated.  An estimate carries its mode, n_trials, method and n_boot; a "
               "model curve point its chi."},
    frozen=True)


def metric_record(vals: dict, ses: dict | None = None, **meta) -> Metrics:
    """The metric record of values and standard errors by name; a missing value is undefined."""
    vals = {k: float(vals.get(k, UNDEFINED)) for k in METRIC_NAMES}
    return Metrics(**vals, **{k + "_se": float(v) for k, v in (ses or {}).items()},
                   undefined=frozenset(k for k, v in vals.items() if math.isnan(v)), **meta)


def _reach(chi, eff):
    """P(some pair photon reaches a detector of pair efficiency `eff`), over an array of chi."""
    return chi * eff / (1.0 - chi * (1.0 - eff))


def _click_probs(params: ModelParams, chi) -> dict[DetectionMode, dict[int, np.ndarray]]:
    """P[mode][S] = P(every detector of bitmask S clicks) for both modes, over an array of chi
    (S = 0: 1).  chi is validated once for the array (its real part: chi and the parameters
    may be complex, for the fit's complex step).

    Q[U] is the probability that pair photons reach every detector of U.  One channel of
    pair efficiency e is reached with r = chi e / (1 - chi (1 - e)).  The split arms compete
    for each photon, so both are reached with r_a r_b (1 + P(neither arm is reached)).  D1
    and a field-2 set T are both reached with R_T(chi) - (1-chi)/(1-chi (1-e1)) R_T(chi (1-e1)):
    reach at any pair number less reach with no field-1 photon detected, which loses at most
    about 1/e1 ulps.  A detector clicks when a pair photon or a background count arrives, so
    P[S] sums Q[U] over U within S, weighted by exp(-b_i) on U and by 1 - exp(-b_i) on the
    rest of S: a zeta transform, one channel (bit) at a time, D1 first.  Every term is
    non-negative, so every digit survives at any drive and background.
    """
    chi = np.asarray(chi)
    if np.any((chi.real < 0) | (chi.real >= 1)):
        raise ValueError("chi must be in [0, 1)")
    (d1, d2), (_, d2a, d2b) = (DetectionConfig(mode).channels(params, chi) for mode in DetectionMode)
    x0, x1 = (chi * (1.0 - d1.pair_eff * s) for s in (0.0, 1.0))   # the drives chi, chi (1-e1)
    f = (1.0 - chi) / (1.0 - x1)

    def field(ch):   # a channel's reach at both drives, and its background factors
        return _reach(x0, ch.pair_eff), _reach(x1, ch.pair_eff), np.exp(-ch.bg_mean), -np.expm1(-ch.bg_mean)

    def heralded(q0, q1):   # D1 and a field-2 set T, from T's reach at both drives: D1's step
        return keep1 * (q0 - f * q1) + fire1 * q0

    # each step is keep * P[S] + fire * P[S without the channel]; P[0] stays a factor 1.0, as
    # a complex product by it can change the sign of a zero imaginary part
    (r1, _, keep1, fire1), (r, q, keep, fire) = field(d1), field(d2)
    (ra, qa, keep_a, fire_a), (rb, qb, keep_b, fire_b) = field(d2a), field(d2b)
    p1 = keep1 * r1 + fire1 * 1.0
    single = {0: 1, 1: p1, 2: keep * r + fire * 1.0, 3: keep * heralded(r, q) + fire * p1}
    both = [u * v * (1.0 + (1.0 - x) / (1.0 - x * (1.0 - d2a.pair_eff - d2b.pair_eff)))
            for u, v, x in ((ra, rb, x0), (qa, qb, x1))]   # both arms reached, at each drive
    split = {0: 1, 1: p1, 2: keep_a * ra + fire_a * 1.0, 3: keep_a * heralded(ra, qa) + fire_a * p1,
             4: keep_b * rb + fire_b * 1.0, 5: keep_b * (hb := heralded(rb, qb)) + fire_b * p1}
    split[6] = keep_b * (keep_a * both[0] + fire_a * rb) + fire_b * split[2]
    split[7] = keep_b * (keep_a * heralded(*both) + fire_a * hb) + fire_b * split[3]
    return {DetectionMode.SINGLE: single, DetectionMode.SPLIT: split}


def click_pattern_distribution(params: ModelParams, config: DetectionConfig) -> np.ndarray:
    """Exact distribution of the per-trial click pattern, indexed by code (bit i is
    channel i, D1 bit 0): the Moebius transform of the subset-click probabilities."""
    P = np.array(click_statistics(params, config).values)
    return np.maximum(P @ mobius(len(DETECTORS[config.mode])), 0.0)


def click_statistics(params: ModelParams, config: DetectionConfig) -> Statistics:
    """Exact per-trial singles, coincidence, and triple click probabilities."""
    P = _click_probs(params, params.chi)[config.mode]
    return Statistics(config.mode, tuple(float(v) for v in P.values()))


def p1_of_chi(params: ModelParams, chi):
    """Field-1 click probability as a vectorized function of chi (other params fixed)."""
    bg = bg1_mean(params, chi)
    return -np.expm1(-bg) + np.exp(-bg) * _reach(chi, params.eta1)


def metric_curves(params: ModelParams, chi, names=None) -> dict[str, np.ndarray]:
    """p1 and every metric over an array of chi, or only `names` (qc reads pc), in one pass:
    single-mode g12, pc, qc, p12 and naive_ratio and split-mode w, as `full_metrics` combines
    them.  chi and the parameters may be complex, for the fit's complex step."""
    return {k: v for mode, probs in _click_probs(params, chi).items()
            for k, v in metric_values(probs, mode, params.eta2, names).items()}


def derived_metrics(stats: Statistics, params: ModelParams) -> Metrics:
    """Figures of merit from click probabilities.  Zero denominators yield flagged NaNs."""
    vals = metric_values(np.array([stats.values]), stats.mode, params.eta2)
    return metric_record({k: v[0] for k, v in vals.items()}, mode=stats.mode)


def full_metrics(params: ModelParams) -> Metrics:
    """Metrics combining both detection configurations of the same source parameters."""
    return metric_record({k: v[0] for k, v in metric_curves(params, [params.chi]).items()})


# --- brute-force oracle ---------------------------------------------------------

def _log_factorials(n: int) -> np.ndarray:   # log k!, k <= n: within 6e-14 of lgamma at 60
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])


def _binom_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    if p in (0.0, 1.0):
        return (k == (0 if p == 0.0 else n)).astype(float)
    lf = _log_factorials(n)
    return np.exp(lf[n] - lf[k] - lf[n - k] + k * math.log(p) + (n - k) * math.log1p(-p))


def _trinom_pmf(n: int, pa: float, pb: float) -> np.ndarray:
    """Joint pmf of (ka, kb) for n trials with outcome probs (pa, pb, 1-pa-pb)."""
    ka, kb = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    rest = n - ka - kb
    valid = rest >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        loga = np.where(ka > 0, ka * np.log(pa if pa > 0 else 1.0), 0.0)
        logb = np.where(kb > 0, kb * np.log(pb if pb > 0 else 1.0), 0.0)
        logr = np.where((rest > 0) & valid, rest * math.log1p(-pa - pb) if pa + pb < 1 else -np.inf, 0.0)
    lf = _log_factorials(n)
    logpmf = lf[n] - lf[ka] - lf[kb] - lf[np.where(valid, rest, 0)] + loga + logb + logr
    pmf = np.where(valid, np.exp(logpmf), 0.0)
    if pa == 0.0:
        pmf[1:, :] = 0.0
        pmf[0, :] = _binom_pmf(n, pb)
    if pb == 0.0:
        pmf[:, 1:] = 0.0
        pmf[:, 0] = _binom_pmf(n, pa)
    return pmf


def brute_force_statistics(params: ModelParams, config: DetectionConfig,
                           nmax: int = 60) -> tuple[Statistics, float]:
    """Independent oracle: enumerate pair number, thinning outcomes, and splitter routing.

    Returns (statistics, tail_mass) where tail_mass is the pair-number probability
    beyond nmax.  Warns if the tail exceeds 1e-12.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    chans = config.channels(params)
    chi = params.chi
    tail = chi ** (nmax + 1)
    if tail > 1e-12:
        warnings.warn(f"pair-number truncation tail {tail:.3e} exceeds 1e-12 at nmax={nmax}",
                      stacklevel=2)

    z = [1.0 - math.exp(-ch.bg_mean) for ch in chans]   # P(>= 1 background count)
    acc = {"p" + s: 0.0 for s in SUBSETS[config.mode]}

    for n in range(nmax + 1):
        weight = (1.0 - chi) * chi ** n

        # field 1: survivors m ~ Binom(n, eta1); click iff m >= 1 or background fires
        pm = _binom_pmf(n, chans[0].pair_eff)
        c1 = pm[0] * z[0] + (1.0 - pm[0])  # m=0 needs a background count; m>=1 always clicks

        if config.mode is DetectionMode.SINGLE:
            pk = _binom_pmf(n, chans[1].pair_eff)
            c2p = pk[0] * z[1] + (1.0 - pk[0])
            acc["p1"] += weight * c1
            acc["p2"] += weight * c2p
            acc["p12"] += weight * c1 * c2p  # conditionally independent given n
            continue

        pk = _trinom_pmf(n, chans[1].pair_eff, chans[2].pair_eff)
        pa0 = pk[0, :].sum()          # no pair photon reached arm a
        pb0 = pk[:, 0].sum()
        pab0 = pk[0, 0]
        cA = pa0 * z[1] + (1.0 - pa0)
        cB = pb0 * z[2] + (1.0 - pb0)
        # joint: enumerate (ka==0, kb==0) cells, backgrounds independent per arm
        cAB = (pab0 * z[1] * z[2]
               + (pb0 - pab0) * z[2]           # ka>=1, kb=0: A clicks, B needs background
               + (pa0 - pab0) * z[1]
               + (1.0 - pa0 - pb0 + pab0))
        acc["p1"] += weight * c1
        acc["p2a"] += weight * cA
        acc["p2b"] += weight * cB
        acc["p1_2a"] += weight * c1 * cA
        acc["p1_2b"] += weight * c1 * cB
        acc["p2a_2b"] += weight * cAB
        acc["p1_2a_2b"] += weight * c1 * cAB

    return Statistics(config.mode, **acc), tail
