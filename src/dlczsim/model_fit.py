"""Global parameter recovery from measured curves.

One parameter set must explain every curve at once: g12, qc, and p12 as functions
of the field-1 click probability p1, plus (optionally) w.  The drive strength chi
of each data point is not observed; it is recovered by inverting the model's
monotone p1(chi) relation at the candidate parameters, so p1 acts as the
independent variable exactly as in the measured curves.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from .params import ModelParams, bg1_mean
from .photon_model import Metrics, metric_curves, metric_record, p1_of_chi

PENALTY = 1e3  # residual assigned to an observable the model cannot reach, or beyond _R_MAX

DEFAULT_FREE = ("bg1_coherent", "bg2_coherent", "bg1_incoherent", "bg2_incoherent",
                "retrieval_eff")
ALT_BG_FLAG = "notrap"   # dataset flag selecting the alternate field-1 incoherent background

_LOG_PARAMS = {"bg1_coherent", "bg2_coherent", "bg1_incoherent", "bg2_incoherent",
               "bg1_incoherent_alt"}

DEFAULT_BOUNDS = {
    "bg1_coherent": (1e-8, 1.0),
    "bg2_coherent": (1e-8, 1.0),
    "bg1_incoherent": (1e-9, 0.1),
    "bg2_incoherent": (1e-9, 0.1),
    "bg1_incoherent_alt": (1e-9, 0.1),
    "retrieval_eff": (0.01, 1.0),
}


@dataclass
class DataPoint:
    p1: float
    p1_se: float = math.nan
    g12: float = math.nan
    g12_se: float = math.nan
    qc: float = math.nan
    qc_se: float = math.nan
    p12: float = math.nan
    p12_se: float = math.nan
    w: float = math.nan
    w_se: float = math.nan
    flags: str = ""


@dataclass
class Dataset:
    points: list[DataPoint] = field(default_factory=list)

    def __len__(self):
        return len(self.points)

    @property
    def has_alt_background(self) -> bool:
        return any(ALT_BG_FLAG in pt.flags for pt in self.points)


CSV_COLUMNS = [f.name for f in fields(DataPoint)]
# fitted observables in residual order, and whether each is compared in log space
_OBSERVABLES = {"g12": True, "p12": True, "qc": False, "w": False}
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_R_MAX = _EPS ** -2   # |residual| beyond it: a prediction 1 / _EPS scales away, resolved by no file


def _rejected(values: dict[str, float]) -> dict[str, str]:
    """The cells a dataset file may hold, stated once for its reader and writer (README
    states the rule): of one point's values by column, NaN for a blank cell, those that a
    file may not hold, each with the rule it breaks.  An SE exceeds its value's float
    resolution: scale > _EPS max(1, |x|), x the value and scale its SE, or in log space the
    value's log and SE / value."""
    rejected = {} if 0.0 < values["p1"] < 1.0 else {"p1": "a number in (0, 1)"}
    for col, v in values.items():   # blank, or finite and > 0 for an SE or a log-space value
        positive = col.endswith("_se") or _OBSERVABLES.get(col)
        if col != "p1" and not (math.isnan(v) or math.isfinite(v) and (v > 0 or not positive)):
            rejected[col] = "a finite number > 0" if positive else "a finite number"
    for name, in_log in _OBSERVABLES.items():   # an SE above its value's resolution
        v, se = values[name], values[name + "_se"]
        if not (math.isnan(v) or {name, name + "_se"} & rejected.keys()):
            least = _EPS * max(1.0, abs(math.log(v) if in_log else v)) * (v if in_log else 1.0)
            if se <= least:
                rejected[name + "_se"] = f"an SE > {least:.3g}, above its value's resolution"
    return rejected


def dataset_to_csv(ds: Dataset) -> str:
    """A dataset file of the points, with an observable and its SE left blank where
    `_rejected` rejects either; a point whose p1 it rejects is a ValueError."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for i, pt in enumerate(ds.points):
        values = {col: getattr(pt, col) for col in CSV_COLUMNS[:-1]}   # all but the last, flags
        for col, rule in _rejected(values).items():
            if col == "p1":
                raise ValueError(f"dataset point {i}: p1 = {pt.p1!r} is not {rule}")
            name = col.removesuffix("_se")   # a value goes with its SE; p1, the abscissa, stays
            values.update(dict.fromkeys({name, name + "_se"} - {"p1"}, math.nan))
        writer.writerow([repr(float(v)) if math.isfinite(v) else "" for v in values.values()]
                        + [pt.flags])
    return buf.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty dataset file") from None
    header = [h.strip() for h in header]
    for col in header:
        if col not in CSV_COLUMNS:
            raise ValueError(f"unknown dataset column {col!r}")
        if header.count(col) > 1:
            raise ValueError(f"dataset column {col!r} is repeated")
    points = []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        if len(row) > len(header):
            raise ValueError(f"dataset line {reader.line_num} has more cells than the header")
        cells = {col: cell.strip() for col, cell in zip(header, row)}
        values = dict.fromkeys(CSV_COLUMNS[:-1], math.nan)   # a blank cell's value
        for col in [c for c in values if cells.get(c)]:
            try:   # text that is no number, or NaN, reads as inf: a value the rule rejects
                values[col] = math.inf if math.isnan(v := float(cells[col])) else v
            except ValueError:
                values[col] = math.inf
        for col, rule in _rejected(values).items():   # the first it rejects
            raise ValueError(f"dataset line {reader.line_num}, column {col}: "
                             f"{cells.get(col, '')!r} is not {rule}")
        points.append(DataPoint(**values, flags=cells.get("flags", "")))
    return Dataset(points)


def predict_curves(params: ModelParams, chi_grid) -> list[Metrics]:
    """Model metrics over a chi grid, one record per point with its `chi`, reported
    against the predicted p1."""
    chi = np.asarray(chi_grid, dtype=float).ravel()
    curves = metric_curves(params, chi)
    return [metric_record(dict(zip(curves, row)), chi=x)
            for x, *row in zip(chi.tolist(), *(v.tolist() for v in curves.values()))]


_CHI_MAX = 1.0 - 1e-12
_CHI_RTOL = 1e-12
_NEWTON_ITERS = 100   # bisection fallback alone halves [0, _CHI_MAX] to _CHI_RTOL in ~40


def chi_from_p1(params: ModelParams, p1_targets) -> np.ndarray:
    """Invert the increasing map chi -> p1 on [0, 1 - 1e-12]; NaN outside the model's range,
    at or below p1(0) or above p1(1 - 1e-12) (everywhere if eta1 = 0, where the two are equal).

    Safeguarded Newton: every step stays inside a bracket [lo, hi] that holds the root
    and shrinks with each evaluation, and bisects where Newton would leave it or is not
    finite (a tiny eta1).
    Each target stops on its own, so its chi does not depend on the other targets.
    A parameter may be an array over the targets (the fit's per-point background).
    """
    targets = np.atleast_1d(np.asarray(p1_targets, dtype=float))
    eff, bg0 = params.eta1, bg1_mean(params, 0.0)
    slope = bg1_mean(params, 1.0) - bg0   # affine in chi
    floor, top = p1_of_chi(params, np.reshape([0.0, _CHI_MAX], (2,) + (1,) * np.ndim(bg0)))
    active = reachable = (targets > floor) & (targets <= top)
    # start from the line through p1(0) with slope dp1/dchi at 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # inf or NaN bisects
        chi = np.clip((targets - floor) / (np.exp(-bg0) * (slope + eff)), 0.0, _CHI_MAX)
        lo, hi = np.zeros_like(chi), np.full_like(chi, _CHI_MAX)
        for _ in range(_NEWTON_ITERS):
            if not active.any():
                break
            miss = p1_of_chi(params, chi) - targets
            lo = np.where(miss < 0, chi, lo)
            hi = np.where(miss > 0, chi, hi)
            # p1 = 1 - exp(-bg0 - slope chi) (1 - chi) / (1 - chi (1 - eff))
            den = 1.0 - chi * (1.0 - eff)
            dp1 = np.exp(-bg0 - slope * chi) * (slope * (1.0 - chi) / den + eff / (den * den))
            step = chi - miss / dp1
            # strictly inside, so that every evaluation shrinks the bracket; a correction below
            # an ulp leaves chi, which may be a bracket end, and has converged
            step = np.where((step > lo) & (step < hi) | (step == chi), step, 0.5 * (lo + hi))
            step = np.where(active & (miss != 0), step, chi)
            # Newton converges quadratically: a step this small leaves ~_CHI_RTOL**2
            active = active & (np.abs(step - chi) > _CHI_RTOL * step)
            chi = step
    return np.where(reachable, chi, np.nan)


_STEP = 1e-20   # complex step: f(x + ih) = f(x) + ih f'(x) + O(h^2), with no difference taken
_BLOCK = 64     # starts advanced in lock-step: a pass's memory grows with it, not with n_starts


class _Problem:
    """A dataset's observation arrays, built once per fit, and the weighted residuals of
    the free parameters' internal values x against them, with their complex-step Jacobian
    (Squire & Trapp, SIAM Rev. 40, 110 (1998)), in one model pass for starts (S, d) of x.
    1 / scale < 1 / _EPS in a file (`_rejected`) and |residual| <= _R_MAX keep the solver finite."""

    def __init__(self, dataset: Dataset, base: ModelParams, free_names=()):
        pts = dataset.points
        obs, se = (np.array([[getattr(pt, k + suffix) for k in _OBSERVABLES] for pt in pts],
                            dtype=float).reshape(-1, len(_OBSERVABLES)) for suffix in ("", "_se"))
        self.p1 = np.array([pt.p1 for pt in pts], dtype=float)
        self.flagged = np.array([ALT_BG_FLAG in pt.flags for pt in pts], dtype=bool)
        self.log = np.array(list(_OBSERVABLES.values()))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # residual = (pred, or log pred in log space, - ref) / scale
            self.ref = np.where(self.log, np.log(obs), obs)
            self.scale = np.where(self.log, se / obs, se)
        # an observable without an SE > 0, or whose scale overflows, weighs nothing
        self.use = np.isfinite(obs) & (se > 0) & np.isfinite(self.scale)
        self.base, self.free_names = base, tuple(free_names)
        self._chi_of = {}   # each start's free values at the last inversion -> its chi

    def _view(self, free: dict) -> SimpleNamespace:
        """The base fields and eta2, with the free values set unvalidated (arrays over starts,
        points, perturbations), bg1_incoherent_alt as the flagged points' bg1_incoherent."""
        values = {**vars(self.base), **free}
        if "bg1_incoherent_alt" in values:
            values["bg1_incoherent"] = np.where(self.flagged, values.pop("bg1_incoherent_alt"),
                                                values["bg1_incoherent"])
        return SimpleNamespace(**values, eta2=values["eta2_path"] * values["eta_apd"])

    def table(self, free: dict, perturbed: dict | None = None) -> np.ndarray:
        """Weighted residuals [..., point, observable] (PENALTY where the model cannot reach
        one, or where its real part is beyond _R_MAX, which bounds what the solver squares) at
        the free values by name, in natural units: numbers, or arrays [start, 1].
        `perturbed` maps the same names to complex values with one more axis before the
        points; chi follows by the implicit function theorem, dchi = -dp1 / (dp1/dchi)."""
        view = self._view(free)
        starts = list(zip(*(np.ravel(v).tolist() for v in free.values())))
        if starts and all(s in self._chi_of for s in starts):   # the Jacobian follows residuals
            lead = np.shape(next(iter(free.values())))[:-1]   # the starts', as of every value
            chi = np.reshape([self._chi_of[s] for s in starts], lead + self.p1.shape)
        else:
            chi = chi_from_p1(view, self.p1)   # [start, point], or [point] if no value moves it
            self._chi_of = dict(zip(starts, chi if chi.ndim > 1 else [chi] * len(starts)))
        # NaN chi (p1 outside the model's range) warns in complex division
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if perturbed is not None:
                dp1 = p1_of_chi(view, chi + 1j * _STEP).imag / _STEP
                view, chi = self._view(perturbed), chi[..., None, :]
                chi = chi - 1j * p1_of_chi(view, chi).imag / dp1[..., None, :]
            curves = metric_curves(view, chi, _OBSERVABLES)
            pred = np.stack([curves[k] for k in _OBSERVABLES], axis=-1)
            r = (np.where(self.log, np.log(pred), pred) - self.ref) / self.scale
        # pred or obs <= 0 in log space makes r non-finite, but for a complex pred
        bad = ~np.isfinite(r) | (np.abs(r.real) > _R_MAX) | (self.log & (pred.real <= 0))
        return np.where(bad, PENALTY, r)

    def free(self, x: np.ndarray) -> dict:
        """The free values by name, in natural units, of internal values x (..., d), each (..., 1)."""
        return {name: v[..., None] for name, v in _from_internal(self.free_names, x).items()}

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.table(self.free(x))[..., self.use]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d residuals / d x, one complex-step pass with x_j perturbed on row j."""
        r = self.table(self.free(x), self.free(x[..., None, :] + 1j * _STEP * np.eye(x.shape[-1])))
        return np.swapaxes(r.imag[..., self.use], -1, -2) / _STEP


def residuals(params: ModelParams, dataset: Dataset,
              bg1_incoherent_alt: float | None = None) -> np.ndarray:
    """Weighted residual vector: log-space for g12 and p12, linear for qc and w.

    Ordered by point index, then g12, p12, qc, w.  An observable the model cannot
    reach at a point (p1 outside the model's range, or a non-positive value in log
    space), or whose residual exceeds 1 / eps^2 in size, gets the residual PENALTY.
    """
    problem = _Problem(dataset, params)
    alt = {} if bg1_incoherent_alt is None else {"bg1_incoherent_alt": bg1_incoherent_alt}
    return problem.table(alt)[problem.use]


def _sorted_sum_of_squares(r: np.ndarray) -> float:
    # summing in sorted order makes the loss exactly invariant under point reordering
    return float(np.sort(r * r).sum())


def objective(params: ModelParams, dataset: Dataset,
              bg1_incoherent_alt: float | None = None) -> float:
    """Weighted least-squares loss over every available observable."""
    if not dataset.points:
        raise ValueError("empty dataset")
    return _sorted_sum_of_squares(residuals(params, dataset, bg1_incoherent_alt))


@dataclass(frozen=True)
class StartResult:
    """Outcome of one start of the multistart fit."""

    objective: float
    nfev: int      # model passes it took part in: residuals and complex-step Jacobians
    status: int    # _least_squares status; > 0 means converged


@dataclass
class FitResult:
    params: ModelParams
    free_names: tuple[str, ...]
    values: np.ndarray
    errors: np.ndarray
    covariance: np.ndarray
    objective: float
    n_residuals: int
    converged: bool
    flags: tuple[str, ...] = ()
    bg1_incoherent_alt: float | None = None
    starts: tuple[StartResult, ...] = ()
    chi2: dict[str, float] = field(default_factory=dict)   # per observable, at the fit
    chi2_points: tuple[float, ...] = ()                     # per dataset point, at the fit

    @property
    def start_objectives(self) -> tuple[float, ...]:
        return tuple(s.objective for s in self.starts)

    def value(self, name: str) -> float:
        return float(self.values[self.free_names.index(name)])

    def error(self, name: str) -> float:
        return float(self.errors[self.free_names.index(name)])


def _to_internal(names, values):
    return np.array([math.log10(v) if n in _LOG_PARAMS else v for n, v in zip(names, values)])


def _from_internal(names, x) -> dict:
    """Natural values by name of internal values x, free parameter j on the last axis of x."""
    return {n: 10.0 ** x[..., j] if n in _LOG_PARAMS else x[..., j] for j, n in enumerate(names)}


def _mv(A, b):   # A @ b per start, by one start's BLAS call: the same bits in any block
    return (A @ b[..., None])[..., 0]


def _dot(a, b):
    return _mv(a[..., None, :], b)[..., 0]


def _least_squares(fun, jac, x0, lo, hi, max_iter=200):
    """Minimise |fun(x)|^2 over lo <= x <= hi: Levenberg-Marquardt in trust-region form (Moré,
    LNM 630, 105 (1978)), the radius bounding the step in x, whose coordinates (decades,
    fractions) are alike; scaling by J's columns stranded starts near PENALTY cliffs.  A
    variable its gradient pushes out of the box is held at its bound; steps are projected
    into it.  The starts x0 (S, d) advance in lock-step, each computing as it would alone:
    `fun` and `jac` take the rows (n, d) of the starts still running, `jac` only where `fun`
    just ran and the step was taken.
    Returns per start x, fun(x), jac(x), the status, 1, 2 or 3 if converged by gradient, cost
    or step tolerance, else 0, and the passes (calls of `fun` or `jac`) it took part in."""
    x = np.clip(x0, lo, hi)
    r, J = fun(x).copy(), jac(x).copy()   # their rows are replaced in place
    cost, radius = _dot(r, r), np.maximum(np.sqrt(_dot(x, x)), 1.0)
    status, nfev, run = np.zeros(len(x), int), np.full(len(x), 2), np.ones(len(x), bool)
    for _ in range(max_iter):
        if not (a := np.flatnonzero(run)).size:
            break
        xa, ra, Ja = x[a], r[a], J[a]   # a start that did not move repeats its last decomposition
        g = _mv(Ja.transpose(0, 2, 1), ra)
        held = ((xa <= lo) & (g > 0)) | ((xa >= hi) & (g < 0))
        colnorm = np.sqrt(np.add.reduce(Ja * Ja, axis=1))
        flat = held | (np.abs(g) <= 1e-8 * colnorm * np.sqrt(cost[a, None]))
        short, lam, x_new = np.zeros(len(a), bool), np.zeros(len(a)), xa.copy()
        for free in set(map(tuple, (~held).tolist())):   # one SVD shape per set of free columns
            j, cols = np.flatnonzero((held != free).all(axis=1)), np.flatnonzero(free)
            u, sv, vt = np.linalg.svd(Ja[j][..., cols], full_matrices=False)
            c = -sv * _mv(u.transpose(0, 2, 1), ra[j])   # the step is vt.T @ (c / (d + lam))
            # a zero sv only drops its part; tiny keeps J = 0 (status 1) from dividing 0 by 0
            d = sv * sv + _EPS * sv[:, :1] ** 2 + _TINY
            short[j] = np.sqrt(_dot(c / d, c / d)) <= 1e-10 * (np.sqrt(_dot(xa[j], xa[j])) + 1e-10)
            # lam stays 0 for a full Gauss-Newton step, whose small gain alone may end a run;
            # else Newton on 1 / |step(lam)|, concave, climbs to 1 / radius
            lj, rj = lam[j], radius[a[j]]
            with np.errstate(divide="ignore", invalid="ignore"):   # 1 / norm of a row not far
                for _ in range(20):
                    norm = np.sqrt(_dot(q := c / (dl := d + lj[:, None]), q))
                    if not (far := norm > 1.1 * rj).any():
                        break
                    cube = np.array([v ** 3 for v in norm.tolist()])   # libm's pow, as for one start
                    lj = np.where(far, lj + (1 / rj - 1 / norm) * cube
                                  / np.sum(c * c / dl ** 3, axis=1), lj)
            lam[j], step = lj, _mv(vt.transpose(0, 2, 1), c / (d + lj[:, None]))
            x_new[j[:, None], cols] = np.clip(xa[j[:, None], cols] + step, lo[cols], hi[cols])
        status[a] = np.where(flat.all(axis=1), 1, np.where(short, 3, 0))
        size = np.sqrt(_dot(step := x_new - xa, step))
        run[a] = keep = (status[a] == 0) & (size > 0)   # size 0: the radius fell below x's resolution
        if not keep.any():
            continue
        a, x_new, step, size, lam = a[keep], x_new[keep], step[keep], size[keep], lam[keep]
        js = _mv(J[a], step)
        predicted = -(2 * _dot(r[a], js) + _dot(js, js))
        r_new = fun(x_new)
        cost_a, cost_new = cost[a], _dot(r_new, r_new)
        gain = np.divide(cost_a - cost_new, predicted, out=np.full(len(a), -1.0), where=predicted > 0)
        radius[a] = np.where(gain < 0.25, 0.25 * size,   # shrink on a poor model, grow on a good one
                             np.where(gain > 0.75, np.maximum(radius[a], 2 * size), radius[a]))
        converged = (lam == 0) & (np.maximum(predicted, np.abs(cost_a - cost_new)) <= 1e-10 * cost_a)
        nfev[a] += 1
        if (t := gain > 1e-4).any():
            x[a[t]], r[a[t]], cost[a[t]], J[a[t]] = x_new[t], r_new[t], cost_new[t], jac(x_new[t])
            nfev[a[t]] += 1
        status[a[converged]], run[a[converged]] = 2, False
    return x, r, J, status, nfev


def fit(dataset: Dataset, base: ModelParams | None = None, free_names=None,
        bounds: dict[str, tuple[float, float]] | None = None,
        init: dict[str, float] | None = None, n_starts: int = 16, seed: int = 0) -> FitResult:
    """Multistart bounded least squares (Levenberg-Marquardt) of the free parameters.

    Starts are `init` (clipped into the bounds), then `n_starts` Latin-hypercube
    points (McKay, Beckman & Conover, Technometrics 21, 239 (1979)); they advance in
    lock-step, up to _BLOCK of them in each model pass, and the one with the lowest
    objective wins.  The Jacobian is exact to rounding (complex step), and the covariance
    is that Jacobian's at the solution, in natural units.  Deterministic given (dataset,
    inputs, seed), whatever _BLOCK.  A dataset without an observable that has a value and
    an SE > 0 is a ValueError.
    """
    if n_starts < 0 or (n_starts == 0 and init is None):
        raise ValueError(f"n_starts must be >= 1, or >= 0 with init; got {n_starts}")
    base = base if base is not None else ModelParams()
    if free_names is None:
        free_names = list(DEFAULT_FREE)
        if dataset.has_alt_background:
            free_names.append("bg1_incoherent_alt")
    free_names = tuple(free_names)
    bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
    for name in free_names:   # a start or step outside the model would fail mid-fit
        b_lo, b_hi = bounds[name]
        in_domain = b_lo > 0.0 if name in _LOG_PARAMS else 0.0 <= b_lo and b_hi <= 1.0
        if not (in_domain and math.isfinite(b_lo) and math.isfinite(b_hi) and b_lo < b_hi):
            raise ValueError(f"bounds of {name} must be finite with lo < hi, and lo > 0 for a "
                             f"log-scaled parameter or in [0, 1]; got ({b_lo}, {b_hi})")
    for i in (1, 2):   # the largest background means, finite as ModelParams requires
        top = [bounds[n][1] if n in free_names else getattr(base, n, 0.0)
               for n in (f"bg{i}_coherent", f"bg{i}_incoherent", f"bg{i}_incoherent_alt")]
        if not math.isfinite(top[0] / base.chi_ref + max(top[1:])):
            raise ValueError(f"upper bounds of bg{i}_coherent / chi_ref + bg{i}_incoherent must "
                             f"be finite; got {top[0]} / {base.chi_ref} + {max(top[1:])}")
    lo = _to_internal(free_names, [bounds[n][0] for n in free_names])
    hi = _to_internal(free_names, [bounds[n][1] for n in free_names])

    problem = _Problem(dataset, base, free_names)
    n_residuals, d = int(np.count_nonzero(problem.use)), len(free_names)
    if not n_residuals:
        raise ValueError("no observable of the dataset has a value and an SE > 0")
    starts = []
    if init is not None:
        starts.append(_to_internal(free_names, [min(max(init[n], bounds[n][0]), bounds[n][1])
                                                for n in free_names]))
    rng = np.random.default_rng(seed)
    unit = [(rng.permutation(n_starts) + rng.random(n_starts)) / n_starts for _ in range(d)]
    starts = np.array(starts + list(lo + np.stack(unit, axis=-1) * (hi - lo)))

    runs, best = [], []
    for k in range(0, len(starts), _BLOCK):   # blocks bound the memory of a pass
        xs, rs, Js, status, nfev = _least_squares(problem.residuals, problem.jacobian,
                                                  starts[k:k + _BLOCK], lo, hi)
        runs += map(StartResult, map(_sorted_sum_of_squares, rs), nfev.tolist(), status.tolist())
        j = int(np.argmin([run.objective for run in runs[k:]]))
        best.append((runs[k + j], xs[j], rs[j], Js[j]))
    best_run, x, r, J = min(best, key=lambda run: run[0].objective)   # first of equals

    updates = {n: float(v) for n, v in _from_internal(free_names, x).items()}
    natural = np.array(list(updates.values()))
    alt = updates.pop("bg1_incoherent_alt", None)
    fitted = replace(base, **updates)
    flags = ["under-determined"] if n_residuals <= d else []
    # J is at the solution; d x / d v = 1 / (ln 10 v) where x = log10 v
    jac = J / np.where([n in _LOG_PARAMS for n in free_names], math.log(10) * natural, 1.0)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        flags.append("singular-covariance")
    if best_run.status <= 0:
        flags.append("non-convergence")

    point, column = np.nonzero(problem.use)   # each residual's point and observable
    chi2 = {name: _sorted_sum_of_squares(r[column == j])
            for j, name in enumerate(_OBSERVABLES)}
    return FitResult(params=fitted, free_names=free_names, values=natural,
                     errors=np.sqrt(np.clip(np.diag(cov), 0.0, None)), covariance=cov,
                     objective=best_run.objective, n_residuals=n_residuals,
                     converged=best_run.status > 0, flags=tuple(flags),
                     bg1_incoherent_alt=alt, starts=tuple(runs), chi2=chi2,
                     chi2_points=tuple(np.bincount(point, r * r, len(dataset)).tolist()))


def fit_result_text(result: FitResult) -> str:
    lines = [f"objective = {result.objective!r}",
             f"n_residuals = {result.n_residuals}",
             f"converged = {result.converged}"]
    for name, value, err in zip(result.free_names, result.values, result.errors):
        lines += [f"{name} = {float(value)!r}", f"{name}_se = {float(err)!r}"]
    if result.flags:
        lines.append("flags = " + ",".join(result.flags))
    return "\n".join(lines) + "\n"


def covariance_csv(result: FitResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["param"] + list(result.free_names))
    for name, row in zip(result.free_names, result.covariance):
        writer.writerow([name] + [repr(float(v)) for v in row])
    return buf.getvalue()
