"""Workload inputs, command chains and correctness checks for the dlczsim benchmark.

Inputs are generated from the benchmark seed; the program only sees the files
written here.  Checks compare outputs with the analytic model
(`click_statistics` / `full_metrics`), never with stored bytes, so a
version-bumped record format still passes.  dlczsim is imported only where the
model is needed, so that this module loads without the program's sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# paper regime (criterion 9 of the acceptance suite), with every key written out
# so that the checks do not depend on the program's defaults
PAPER_REGIME = dict(bg1_coherent=2e-3, bg2_coherent=1.3e-2, bg1_incoherent=1e-5,
                    bg2_incoherent=1e-5, chi_ref=0.01, retrieval_eff=0.5, eta1=0.25,
                    eta2_path=0.5, eta_apd=0.5, bs_transmission=0.8, bs_ratio=0.5)
FIT_FREE = ("bg1_coherent", "bg2_coherent", "bg1_incoherent", "bg2_incoherent",
            "retrieval_eff")
# One fixed noise realisation for the fit dataset.  Nelder-Mead's path length
# depends on the noise draw (1.6k to 3.3k objective calls over eleven draws),
# which would swamp any bound on fit time; the benchmark seed instead permutes
# the rows, which the objective is exactly invariant to.
FIT_NOISE_SEED = 9
FIT_SEED = 1
FIT_TRIALS_PER_POINT = 44_000 * 300
FIT_POINTS = 12
MAX_SIGMA = 5.0      # analyze checks: estimate within this many standard errors


@dataclass(frozen=True)
class Sizes:
    session_trials: int = 10_000_000
    dense_trials: int = 1_000_000
    fit_starts: int = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its name, arguments, output files to hash, and its check."""

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    check: str            # "none", "report" or "fit"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str | None               # detection mode; None: no simulated session
    chi: float | None
    trials: int
    commands: tuple[Command, ...]


def model(chi: float):
    from dlczsim import ModelParams
    return ModelParams(chi=chi, **PAPER_REGIME)


def _statistics(chi: float, mode: str):
    from dlczsim import DetectionConfig, DetectionMode, click_statistics
    return click_statistics(model(chi), DetectionConfig(DetectionMode(mode)))


def _params_text(chi: float) -> str:
    return "".join(f"{k} = {v!r}\n" for k, v in {"chi": chi, **PAPER_REGIME}.items())


def _session(name, mode, chi, trials, fmt, method, seed) -> Workload:
    records = "records." + ("pdr" if fmt == "bin" else "csv")
    eta2 = repr(PAPER_REGIME["eta2_path"] * PAPER_REGIME["eta_apd"])
    return Workload(name, mode, chi, trials, (
        Command("simulate", ("simulate", "--params", "params.txt", "--trials", str(trials),
                             "--seed", str(seed), "--mode", mode, "--format", fmt,
                             "--out", records), (records,), "none"),
        Command("analyze", ("analyze", records, "--eta2", eta2, "--error-method", method,
                            "--seed", str(seed), "--out", "report.txt"),
                ("report.txt",), "report"),
    ))


def build(name: str, seed: int, sizes: Sizes) -> Workload:
    if name == "session":
        return _session(name, "single", 1e-2, sizes.session_trials, "bin", "delta", seed)
    if name == "dense":
        return _session(name, "split", 0.3, sizes.dense_trials, "csv", "bootstrap", seed)
    if name == "fit":
        out = "fit.txt"
        return Workload(name, None, None, 0, (
            Command("fit", ("fit", "dataset.csv", "--starts", str(sizes.fit_starts),
                            "--seed", str(FIT_SEED), "--out", out),
                    (out, out + ".cov.csv", out + ".overlay.csv"), "fit"),))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("session", "dense", "fit")


def write_inputs(wl: Workload, seed: int, work: Path) -> None:
    if wl.chi is not None:
        (work / "params.txt").write_text(_params_text(wl.chi))
    else:
        (work / "dataset.csv").write_text(fit_dataset_csv(seed))


def fit_dataset_csv(seed: int) -> str:
    """Criterion-9 style dataset: g12, qc, p12 and w against p1, with standard errors.

    Values are the analytic model plus Gaussian noise of the stated errors for
    FIT_TRIALS_PER_POINT trials per point; w is left empty where fewer than 20
    triple coincidences would be expected.
    """
    from dlczsim import full_metrics
    rng = np.random.default_rng(FIT_NOISE_SEED)
    n = FIT_TRIALS_PER_POINT
    rows = []
    for chi in np.geomspace(3e-4, 0.3, FIT_POINTS):
        p = model(float(chi))
        s = _statistics(float(chi), "single")
        triple = _statistics(float(chi), "split").p1_2a_2b
        m = full_metrics(p)
        z = rng.standard_normal(5)
        pc = s.p12 / s.p1
        se = {"p1": math.sqrt(s.p1 * (1 - s.p1) / n),
              "g12": m.g12 / math.sqrt(n * s.p12),
              "qc": math.sqrt(pc * (1 - pc) / (n * s.p1)) / p.eta2,
              "p12": math.sqrt(s.p12 * (1 - s.p12) / n),
              "w": m.w / math.sqrt(n * triple) if n * triple >= 20 else math.nan}
        true = {"p1": s.p1, "g12": m.g12, "qc": m.qc, "p12": s.p12, "w": m.w}
        cells = []
        for k, zk in zip(("p1", "g12", "qc", "p12", "w"), z):
            if math.isfinite(se[k]):
                cells += [repr(true[k] + se[k] * float(zk)), repr(se[k])]
            else:
                cells += ["", ""]
        rows.append(",".join(cells) + ",")
    order = np.random.default_rng(seed).permutation(len(rows))
    header = "p1,p1_se,g12,g12_se,qc,qc_se,p12,p12_se,w,w_se,flags"
    return "\n".join([header] + [rows[i] for i in order]) + "\n"


def parse_keyvalues(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _float(kv: dict[str, str], key: str) -> float:
    try:
        return float(kv[key])
    except (KeyError, ValueError):
        return math.nan


def check_report(wl: Workload, text: str) -> list[str]:
    """Reported metrics against the analytic model, within MAX_SIGMA standard errors."""
    from dlczsim import full_metrics
    kv = parse_keyvalues(text)
    m = full_metrics(model(wl.chi))
    s = _statistics(wl.chi, wl.mode)
    if wl.mode == "single":
        truth = {"p1": s.p1, "p12": s.p12, "g12": m.g12, "qc": m.qc}
    else:
        truth = {"p1": s.p1, "w": m.w}
    errors = []
    for key, true in truth.items():
        est, se = _float(kv, key), _float(kv, key + "_se")
        if not (math.isfinite(est) and math.isfinite(se) and se > 0
                and abs(est - true) <= MAX_SIGMA * se):
            errors.append(f"{key} = {est} +- {se}, model {true}")
    if kv.get("mode") != wl.mode:
        errors.append(f"mode = {kv.get('mode')}, expected {wl.mode}")
    return errors


def check_fit(text: str) -> list[str]:
    """Criterion-9 rule: each free parameter within 10% of truth or within 3 SE."""
    kv = parse_keyvalues(text)
    errors = []
    for name in FIT_FREE:
        true = PAPER_REGIME[name]
        v, e = _float(kv, name), _float(kv, name + "_se")
        if not (abs(v - true) <= 0.10 * abs(true) or abs(v - true) <= 3 * e):
            errors.append(f"{name} = {v} +- {e}, true {true}")
    return errors


def reported_trials(text: str) -> int | None:
    """The n_trials an analyze report read back, or None if it is missing."""
    value = parse_keyvalues(text).get("n_trials", "")
    return int(value) if value.isdigit() else None
