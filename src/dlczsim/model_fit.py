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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .params import DetectionConfig, DetectionMode, ModelParams
from .photon_model import Metrics, click_statistics, derived_metrics, full_metrics, p1_of_chi

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


CSV_COLUMNS = ["p1", "p1_se", "g12", "g12_se", "qc", "qc_se",
               "p12", "p12_se", "w", "w_se", "flags"]


def dataset_to_csv(ds: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for pt in ds.points:
        row = []
        for col in CSV_COLUMNS:
            v = getattr(pt, col)
            if col == "flags":
                row.append(v)
            else:
                row.append("" if not math.isfinite(v) else repr(v))
        writer.writerow(row)
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
        kwargs = {}
        for col, cell in zip(header, row):
            cell = cell.strip()
            if col == "flags":
                kwargs[col] = cell
            elif cell:
                kwargs[col] = float(cell)
        points.append(DataPoint(**kwargs))
    return Dataset(points)


@dataclass
class CurvePoint:
    chi: float
    p1: float
    g12: float
    qc: float
    pc: float
    p12: float
    w: float


def predict_curves(params: ModelParams, chi_grid) -> list[CurvePoint]:
    """Model curves over a chi grid, reported against the predicted p1."""
    out = []
    for chi in np.asarray(chi_grid, dtype=float):
        p = params.with_chi(float(chi))
        m = full_metrics(p)
        stats = click_statistics(p, DetectionConfig(DetectionMode.SINGLE))
        out.append(CurvePoint(chi=float(chi), p1=stats.p1, g12=m.g12, qc=m.qc,
                              pc=m.pc, p12=m.p12, w=m.w))
    return out


def chi_from_p1(params: ModelParams, p1_targets, iters: int = 80) -> np.ndarray:
    """Invert the monotone p1(chi) map by vectorized bisection; NaN where unreachable."""
    targets = np.atleast_1d(np.asarray(p1_targets, dtype=float))
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, 1.0 - 1e-12)
    floor = p1_of_chi(params, 0.0)
    reachable = targets > floor
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = p1_of_chi(params, mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    chi = 0.5 * (lo + hi)
    return np.where(reachable, chi, np.nan)


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


def residuals(params: ModelParams, dataset: Dataset,
              bg1_incoherent_alt: float | None = None) -> np.ndarray:
    """Weighted residual vector: log-space for g12 and p12, linear for qc and w."""
    groups: dict[bool, list[tuple[int, DataPoint]]] = {}
    for i, pt in enumerate(dataset.points):
        groups.setdefault(ALT_BG_FLAG in pt.flags, []).append((i, pt))

    res: list[tuple[int, str, float]] = []
    for flagged, items in groups.items():
        p = params
        if flagged and bg1_incoherent_alt is not None:
            p = replace(params, bg1_incoherent=bg1_incoherent_alt)
        chis = chi_from_p1(p, [pt.p1 for _, pt in items])
        for (i, pt), chi in zip(items, chis):
            preds: Metrics | None = None
            if np.isfinite(chi):
                pc = p.with_chi(float(chi))
                needs_w = math.isfinite(pt.w) and math.isfinite(pt.w_se) and pt.w_se > 0
                if needs_w:
                    preds = full_metrics(pc)
                else:
                    preds = derived_metrics(
                        click_statistics(pc, DetectionConfig(DetectionMode.SINGLE)), pc)
            for name, space in (("g12", "log"), ("p12", "log"), ("qc", "lin"), ("w", "lin")):
                obs = getattr(pt, name)
                se = getattr(pt, name + "_se")
                if not (math.isfinite(obs) and math.isfinite(se) and se > 0):
                    continue
                pred = getattr(preds, name) if preds is not None else math.nan
                if not math.isfinite(pred) or (space == "log" and (pred <= 0 or obs <= 0)):
                    res.append((i, name, PENALTY))
                elif space == "log":
                    res.append((i, name, (math.log(pred) - math.log(obs)) / (se / obs)))
                else:
                    res.append((i, name, (pred - obs) / se))
    res.sort(key=lambda item: (item[0], item[1]))   # invariant under point reordering
    return np.array([r for _, _, r in res])


def objective(params: ModelParams, dataset: Dataset,
              bg1_incoherent_alt: float | None = None) -> float:
    """Weighted least-squares loss over every available observable."""
    if not dataset.points:
        raise ValueError("empty dataset")
    r = residuals(params, dataset, bg1_incoherent_alt)
    # summing in sorted order makes the loss exactly invariant under point reordering
    return float(np.sort(r * r).sum())


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
    start_objectives: tuple[float, ...] = ()

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
    """Multistart simplex fit of the free parameters; deterministic given (dataset, inputs, seed)."""
    if not dataset.points:
        raise ValueError("empty dataset")
    base = base if base is not None else ModelParams()
    if free_names is None:
        free_names = list(DEFAULT_FREE)
        if dataset.has_alt_background:
            free_names.append("bg1_incoherent_alt")
    free_names = tuple(free_names)
    bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
    lo = _to_internal(free_names, [bounds[n][0] for n in free_names])
    hi = _to_internal(free_names, [bounds[n][1] for n in free_names])

    def loss(x: np.ndarray) -> float:
        natural = _from_internal(free_names, x)
        p, alt = _apply_free(base, free_names, natural)
        return objective(p, dataset, alt)

    d = len(free_names)
    starts = []
    if init is not None:
        starts.append(_to_internal(free_names, [init[n] for n in free_names]))
    sampler = qmc.LatinHypercube(d=d, seed=seed)
    for row in sampler.random(n_starts):
        starts.append(lo + row * (hi - lo))

    best = None
    start_objs = []
    for x0 in starts:
        r = optimize.minimize(loss, x0, method="Nelder-Mead",
                              bounds=list(zip(lo, hi)),
                              options={"xatol": 1e-9, "fatol": 1e-10,
                                       "maxiter": 4000, "maxfev": 4000})
        start_objs.append(float(r.fun))
        if best is None or r.fun < best.fun:
            best = r

    x_best = np.clip(best.x, lo, hi)
    natural = _from_internal(free_names, x_best)
    fitted, alt = _apply_free(base, free_names, natural)

    r_vec = residuals(fitted, dataset, alt)
    flags = []
    if len(r_vec) <= d:
        flags.append("under-determined")
    cov, errs = _gauss_newton_covariance(base, free_names, natural, bounds, dataset, flags)
    if not best.success:
        flags.append("non-convergence")

    return FitResult(params=fitted, free_names=free_names, values=natural,
                     errors=errs, covariance=cov, objective=float(best.fun),
                     n_residuals=len(r_vec), converged=bool(best.success),
                     flags=tuple(flags), bg1_incoherent_alt=alt,
                     start_objectives=tuple(start_objs))


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
