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

import numpy as np

from .params import DetectionConfig, ModelParams
from .photon_model import Metrics, metric_curves, metric_record, p1_of_chi

PENALTY = 1e3  # residual assigned to an observable the model cannot reach

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


def dataset_to_csv(ds: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for pt in ds.points:
        values = [getattr(pt, col) for col in CSV_COLUMNS[:-1]]   # all but the last, flags
        writer.writerow([repr(v) if math.isfinite(v) else "" for v in values] + [pt.flags])
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
    if "p1" not in header:
        raise ValueError("dataset is missing required column 'p1'")
    points = []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        if len(row) > len(header):
            raise ValueError(f"dataset line {reader.line_num} has more cells than the header")
        kwargs = {}
        for col, cell in zip(header, row):
            cell = cell.strip()
            if col == "flags":
                kwargs[col] = cell
            elif cell:
                try:
                    kwargs[col] = value = float(cell)
                except ValueError:
                    value = math.nan
                if not (math.isfinite(value) and (value > 0 or not col.endswith("_se"))):
                    raise ValueError(f"dataset line {reader.line_num}, column {col}: {cell!r} is "
                                     f"not a finite number{' > 0' if col.endswith('_se') else ''}")
        if not 0.0 < kwargs.get("p1", math.nan) < 1.0:
            raise ValueError(f"dataset line {reader.line_num}: p1 must be in (0, 1), "
                             f"got {kwargs.get('p1')}")
        points.append(DataPoint(**kwargs))
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
    """Invert the increasing map chi -> p1 on [0, 1 - 1e-12]; NaN at or below p1(0).

    Safeguarded Newton: every step stays inside a bracket [lo, hi] that holds the
    root and shrinks with each evaluation, and bisects where Newton would leave it.
    Each target stops on its own, so its chi does not depend on the other targets.
    """
    targets = np.atleast_1d(np.asarray(p1_targets, dtype=float))
    d1_at0 = DetectionConfig().channels(params, 0.0)[0]
    eff, bg0 = d1_at0.pair_eff, d1_at0.bg_mean
    slope = DetectionConfig().channels(params, 1.0)[0].bg_mean - bg0   # affine in chi
    floor = p1_of_chi(params, 0.0)
    reachable = targets > floor
    goal = targets[reachable]
    # start from the line through p1(0) with slope dp1/dchi at 0
    chi = np.clip((goal - floor) / (math.exp(-bg0) * (slope + eff)), 0.0, _CHI_MAX)
    lo, hi = np.zeros_like(chi), np.full_like(chi, _CHI_MAX)
    active = np.arange(len(chi))
    for _ in range(_NEWTON_ITERS):
        if not len(active):
            break
        c = chi[active]
        miss = p1_of_chi(params, c) - goal[active]
        lo[active] = np.where(miss < 0, c, lo[active])
        hi[active] = np.where(miss > 0, c, hi[active])
        # p1 = 1 - exp(-bg0 - slope chi) (1 - chi) / (1 - chi (1 - eff))
        den = 1.0 - c * (1.0 - eff)
        dp1 = np.exp(-bg0 - slope * c) * (slope * (1.0 - c) / den + eff / (den * den))
        step = c - miss / dp1
        # strictly inside, so that every evaluation shrinks the bracket
        inside = (step > lo[active]) & (step < hi[active])
        step = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
        step[miss == 0] = c[miss == 0]
        chi[active] = step
        # Newton converges quadratically: a step this small leaves ~_CHI_RTOL**2
        active = active[np.abs(step - c) > _CHI_RTOL * step]
    out = np.full_like(targets, np.nan)
    out[reachable] = chi
    return out


def _apply_free(params: ModelParams, names, values) -> tuple[ModelParams, float | None]:
    """Returns (params with free values applied, alternate bg1_incoherent or None)."""
    alt = None
    updates = {}
    for name, value in zip(names, values):
        if name == "bg1_incoherent_alt":
            alt = float(value)
        else:
            updates[name] = float(value)
    return replace(params, **updates), alt


# fitted observables in residual order, and whether each is compared in log space
_OBSERVABLES = (("g12", True), ("p12", True), ("qc", False), ("w", False))


def _residual_table(params: ModelParams, dataset: Dataset,
                    bg1_incoherent_alt: float | None = None) -> np.ndarray:
    """Weighted residuals, one row per point and one column per observable; NaN where
    the point has no usable measurement of it."""
    pts = dataset.points
    names = [name for name, _ in _OBSERVABLES]
    obs = np.array([[getattr(pt, k) for k in names] for pt in pts],
                   dtype=float).reshape(-1, len(names))
    se = np.array([[getattr(pt, k + "_se") for k in names] for pt in pts],
                  dtype=float).reshape(-1, len(names))
    p1 = np.array([pt.p1 for pt in pts], dtype=float)
    flagged = np.array([ALT_BG_FLAG in pt.flags for pt in pts], dtype=bool)
    pred = np.empty_like(obs)
    for flag in (False, True):
        rows = flagged == flag
        if not rows.any():
            continue
        p = params
        if flag and bg1_incoherent_alt is not None:
            p = replace(params, bg1_incoherent=bg1_incoherent_alt)
        curves = metric_curves(p, chi_from_p1(p, p1[rows]))
        pred[rows] = np.column_stack([curves[k] for k in names])
    log = np.array([in_log for _, in_log in _OBSERVABLES])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unreachable = ~np.isfinite(pred) | (log & ((pred <= 0) | (obs <= 0)))
        r = np.where(log, (np.log(pred) - np.log(obs)) / (se / obs), (pred - obs) / se)
    r = np.where(unreachable, PENALTY, r)
    return np.where(np.isfinite(obs) & np.isfinite(se) & (se > 0), r, np.nan)


def residuals(params: ModelParams, dataset: Dataset,
              bg1_incoherent_alt: float | None = None) -> np.ndarray:
    """Weighted residual vector: log-space for g12 and p12, linear for qc and w.

    Ordered by point index, then g12, p12, qc, w.  An observable the model cannot
    reach at a point (p1 below the model's floor, or a non-positive value in log
    space) gets the residual PENALTY.
    """
    table = _residual_table(params, dataset, bg1_incoherent_alt)
    return table[~np.isnan(table)]


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
    nfev: int      # residual evaluations, finite-difference Jacobians included
    status: int    # scipy.optimize.least_squares status; > 0 means converged


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

    @property
    def start_objectives(self) -> tuple[float, ...]:
        return tuple(s.objective for s in self.starts)

    def value(self, name: str) -> float:
        return float(self.values[self.free_names.index(name)])

    def error(self, name: str) -> float:
        return float(self.errors[self.free_names.index(name)])


def _to_internal(names, values):
    return np.array([math.log10(v) if n in _LOG_PARAMS else v for n, v in zip(names, values)])


def _from_internal(names, x):
    return np.array([10.0 ** xi if n in _LOG_PARAMS else xi for n, xi in zip(names, x)])


def fit(dataset: Dataset, base: ModelParams | None = None,
        free_names=None, bounds: dict[str, tuple[float, float]] | None = None,
        init: dict[str, float] | None = None, n_starts: int = 16,
        seed: int = 0) -> FitResult:
    """Multistart bounded least squares (trust-region reflective) of the free parameters.

    Starts are `init` (clipped into the bounds), then `n_starts` Latin-hypercube
    points; the start with the lowest objective wins.  Deterministic given
    (dataset, inputs, seed).
    """
    from scipy import optimize          # loaded here so that only `fit` pays for scipy
    from scipy.stats import qmc

    if not dataset.points:
        raise ValueError("empty dataset")
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
    lo = _to_internal(free_names, [bounds[n][0] for n in free_names])
    hi = _to_internal(free_names, [bounds[n][1] for n in free_names])

    evaluations = 0

    def weighted_residuals(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        p, alt = _apply_free(base, free_names, _from_internal(free_names, x))
        return residuals(p, dataset, alt)

    d = len(free_names)
    starts = []
    if init is not None:
        starts.append(_to_internal(free_names, [min(max(init[n], bounds[n][0]), bounds[n][1])
                                                for n in free_names]))
    sampler = qmc.LatinHypercube(d=d, seed=seed)
    for row in sampler.random(n_starts):
        starts.append(lo + row * (hi - lo))

    runs, solutions = [], []
    for x0 in starts:
        evaluations = 0
        r = optimize.least_squares(weighted_residuals, x0, bounds=(lo, hi), method="trf")
        runs.append(StartResult(_sorted_sum_of_squares(r.fun), evaluations, int(r.status)))
        solutions.append(r.x)
    i_best = min(range(len(runs)), key=lambda i: runs[i].objective)   # first of equals
    best_run = runs[i_best]

    natural = _from_internal(free_names, solutions[i_best])
    fitted, alt = _apply_free(base, free_names, natural)

    table = _residual_table(fitted, dataset, alt)
    n_residuals = int(np.count_nonzero(~np.isnan(table)))
    flags = []
    if n_residuals <= d:
        flags.append("under-determined")
    cov, errs = _gauss_newton_covariance(base, free_names, natural, bounds, dataset, flags)
    if best_run.status <= 0:
        flags.append("non-convergence")

    chi2 = {name: _sorted_sum_of_squares(col[~np.isnan(col)])
            for (name, _), col in zip(_OBSERVABLES, table.T)}
    return FitResult(params=fitted, free_names=free_names, values=natural,
                     errors=errs, covariance=cov, objective=best_run.objective,
                     n_residuals=n_residuals, converged=best_run.status > 0,
                     flags=tuple(flags), bg1_incoherent_alt=alt,
                     starts=tuple(runs), chi2=chi2)


def _gauss_newton_covariance(base, free_names, natural, bounds, dataset, flags):
    """Covariance from a finite-difference Jacobian of the weighted residuals."""
    p0, alt0 = _apply_free(base, free_names, natural)
    r0 = residuals(p0, dataset, alt0)
    d = len(free_names)
    jac = np.zeros((len(r0), d))
    for j in range(d):
        step = max(abs(natural[j]) * 1e-5, 1e-12)
        if natural[j] + step > bounds[free_names[j]][1]:   # at the upper bound: step back
            step = -step
        bumped = natural.copy()
        bumped[j] += step
        p1, alt1 = _apply_free(base, free_names, bumped)
        jac[:, j] = (residuals(p1, dataset, alt1) - r0) / step
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        flags.append("singular-covariance")
    diag = np.clip(np.diag(cov), 0.0, None)
    return cov, np.sqrt(diag)


def fit_result_text(result: FitResult) -> str:
    lines = [f"objective = {result.objective!r}",
             f"n_residuals = {result.n_residuals}",
             f"converged = {result.converged}"]
    for name, value, err in zip(result.free_names, result.values, result.errors):
        lines.append(f"{name} = {float(value)!r}")
        lines.append(f"{name}_se = {float(err)!r}")
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
