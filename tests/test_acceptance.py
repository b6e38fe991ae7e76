"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavier criteria
(Monte Carlo fidelity, the 1e8-trial suppression check, fit recovery) take a
few minutes combined.
"""

import math
import time

import numpy as np
import pytest

from dlczsim import (CountTable, DataPoint, Dataset, DetectionConfig,
                     DetectionMode, Detector, ModelParams, SessionSpec,
                     accumulate_clicks, brute_force_statistics,
                     click_statistics, derived_metrics, estimate_metrics, fit,
                     full_metrics, merge, predict_curves, simulate_clicks)
from dlczsim.correlator import count_patterns, table_from_counts
from dlczsim.model_fit import objective
from dlczsim.photon_model import p1_of_chi

from conftest import random_params, session_bytes, table_from_multinomial

SINGLE = DetectionConfig(DetectionMode.SINGLE)
SPLIT = DetectionConfig(DetectionMode.SPLIT)

# anchor configuration: retrieval 0.5, eta2 = 0.25, write-scaling backgrounds
PAPER_REGIME = ModelParams(bg1_coherent=2e-3, bg2_coherent=1.3e-2,
                           bg1_incoherent=1e-5, bg2_incoherent=1e-5,
                           chi_ref=0.01, retrieval_eff=0.5)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def counts_table(params, mode, n_trials, seed):
    spec = SessionSpec(params=params, config=DetectionConfig(mode),
                       n_trials=n_trials, seed=seed)
    table = CountTable(mode=mode)
    for _, clicks in simulate_clicks(spec):
        table = accumulate_clicks(table, clicks)
    return table


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(100):
        p = random_params(rng, chi_max=0.6)
        cfg = SINGLE if i % 2 == 0 else SPLIT
        a = click_statistics(p, cfg)
        b, _ = brute_force_statistics(p, cfg, nmax=60)
        for k, v in a.as_dict().items():
            worst = max(worst, abs(v - getattr(b, k)))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"max |analytic - enumeration| = {worst:.2e} over 100 parameter sets "
           f"in {elapsed:.1f}s")


def test_criterion_2_monte_carlo_fidelity():
    rng = np.random.default_rng(2)
    n = 10 ** 7
    zs = []
    for i in range(20):
        p = random_params(rng)
        mode = DetectionMode.SINGLE if i % 2 == 0 else DetectionMode.SPLIT
        table = counts_table(p, mode, n, seed=1000 + i)
        ana = click_statistics(p, DetectionConfig(mode)).as_dict()
        emp = {"p1": table.n1}
        if mode is DetectionMode.SINGLE:
            emp.update(p2=table.n2, p12=table.n12)
        else:
            emp.update(p2a=table.n2a, p2b=table.n2b, p1_2a=table.n1_2a,
                       p1_2b=table.n1_2b, p2a_2b=table.n2a_2b,
                       p1_2a_2b=table.n1_2a_2b)
        for k, count in emp.items():
            se = max(math.sqrt(ana[k] * (1 - ana[k]) / n), 1e-15)
            zs.append(abs(count / n - ana[k]) / se)
    frac_ok = np.mean(np.array(zs) <= 4.0)
    report(2, frac_ok >= 0.95,
           f"{frac_ok:.1%} of {len(zs)} empirical rates within 4 SE at 1e7 trials")


def test_criterion_3_retrieval_anchor():
    # clean low-background configuration: retrieval 0.5 and eta2 = 0.25
    p = ModelParams(bg1_coherent=1e-5, bg2_coherent=1e-5,
                    bg1_incoherent=1e-8, bg2_incoherent=1e-8,
                    chi_ref=0.01, retrieval_eff=0.5)
    # a decade of p1 in the single-excitation regime
    chis = np.geomspace(2e-3, 2e-2, 12)
    curves = predict_curves(p, chis)
    p1s = np.array([c.p1 for c in curves])
    qcs = np.array([c.qc for c in curves])
    pcs = np.array([c.pc for c in curves])
    decade = p1s.max() / p1s.min() >= 10.0
    qc_ok = np.all(np.abs(qcs - 0.50) <= 0.02)
    pc_ok = np.all(np.abs(pcs - 0.125) <= 0.005)
    report(3, decade and qc_ok and pc_ok,
           f"qc in [{qcs.min():.3f}, {qcs.max():.3f}], pc in "
           f"[{pcs.min():.4f}, {pcs.max():.4f}] over p1 span {p1s.max()/p1s.min():.1f}x")


def test_criterion_4_correlation_anchor():
    # low-background, high-efficiency configuration
    p = ModelParams(chi=1.2e-3, bg1_coherent=1e-5, bg2_coherent=1e-5,
                    bg1_incoherent=1e-7, bg2_incoherent=1e-7, chi_ref=0.01,
                    retrieval_eff=0.9, eta1=0.9, eta2_path=0.9, eta_apd=0.9,
                    bs_transmission=0.9)
    m = full_metrics(p)
    noise_floor = 1.0 - math.exp(-p.bg1_incoherent)
    stats = click_statistics(p, SINGLE)
    above_floor = stats.p1 > 100 * noise_floor
    analytic_ok = m.g12 >= 600 and m.w <= 0.01 and above_floor

    n = 10 ** 8
    table = counts_table(p, DetectionMode.SPLIT, n, seed=44)
    est = estimate_metrics(table, eta2=p.eta2)
    if table.n1_2a_2b >= 1 and math.isfinite(est.w_se) and est.w_se > 0:
        sim_ok = abs(est.w - m.w) <= 4 * est.w_se
        sim_detail = f"w_hat = {est.w:.4f} +- {est.w_se:.4f} vs {m.w:.4f}"
    else:
        # no triples observed: check consistency with the expected Poisson count
        lam = click_statistics(p, SPLIT).p1_2a_2b * n
        sim_ok = lam < 10.0
        sim_detail = f"0 triples observed, {lam:.1f} expected"
    report(4, analytic_ok and sim_ok,
           f"g12 = {m.g12:.0f}, w = {m.w:.4f} analytically; {sim_detail} at 1e8 trials")


def test_criterion_5_three_regimes():
    p = ModelParams(bg1_coherent=2e-3, bg2_coherent=1.3e-2,
                    bg1_incoherent=1e-6, bg2_incoherent=1e-6,
                    chi_ref=0.01, retrieval_eff=0.5)
    low = predict_curves(p, [2e-6])[0]
    plateau = predict_curves(p, np.geomspace(4e-4, 4e-3, 8))
    high = predict_curves(p, [0.4])[0]
    qc_plateau = np.array([c.qc for c in plateau])
    mean = qc_plateau.mean()
    flat = np.all(np.abs(qc_plateau - mean) <= 0.02 * mean)
    report(5, flat and low.qc < 0.98 * mean and high.qc > 1.02 * mean,
           f"qc: {low.qc:.3f} (noise floor) | {mean:.3f} +- "
           f"{100 * np.max(np.abs(qc_plateau - mean)) / mean:.2f}% (plateau) | "
           f"{high.qc:.3f} (multi-excitation)")


def test_criterion_6_w_vs_g12():
    p = ModelParams(bg1_coherent=1e-3, bg2_coherent=1e-3,
                    bg1_incoherent=3e-6, bg2_incoherent=3e-6,
                    chi_ref=0.01, retrieval_eff=0.5)
    ms = [full_metrics(p.with_chi(float(c))) for c in np.geomspace(1e-4, 0.5, 40)]
    opposed = all((b.g12 - a.g12) * (b.w - a.w) <= 1e-15 for a, b in zip(ms, ms[1:]))
    # background-dominated limit: strong incoherent backgrounds, negligible drive
    import dataclasses
    noisy = dataclasses.replace(p, bg1_incoherent=1e-2, bg2_incoherent=1e-2)
    w_limit = full_metrics(noisy.with_chi(1e-6)).w
    report(6, opposed and abs(w_limit - 1.0) <= 0.05,
           f"w moves against g12 at all 40 grid steps; background-dominated "
           f"limit w = {w_limit:.4f}")


def test_criterion_7_classicality_baseline():
    p = ModelParams(chi=0.0, bg1_incoherent=5e-3, bg2_incoherent=5e-3)
    m = derived_metrics(click_statistics(p, SINGLE), p)
    n = 10 ** 7
    table = counts_table(p, DetectionMode.SINGLE, n, seed=7)
    est = estimate_metrics(table)
    sim_ok = abs(est.g12 - 1.0) <= 4 * est.g12_se
    report(7, abs(m.g12 - 1.0) <= 1e-12 and sim_ok and est.g12 < 2.0,
           f"analytic g12 = 1 exactly; simulated g12 = {est.g12:.4f} +- "
           f"{est.g12_se:.4f} at 1e7 trials")


def test_criterion_8_estimator_correctness():
    trials = np.array([1, 1, 2, 3], np.uint64)
    dets = np.array([int(Detector.D1), int(Detector.D2), int(Detector.D1),
                     int(Detector.D2)], np.uint8)
    t = table_from_counts(DetectionMode.SINGLE, count_patterns([(trials, dets)]), 10)
    hand_ok = (t.n1, t.n2, t.n12) == (2, 2, 1) and estimate_metrics(t).g12 == 2.5

    p = ModelParams(chi=0.05, bg1_incoherent=1e-3, bg2_incoherent=1e-3)
    spec = SessionSpec(params=p, config=SPLIT, n_trials=500_000, seed=88)
    single_pass = CountTable(mode=DetectionMode.SPLIT)
    shards = []
    for _, clicks in simulate_clicks(spec):   # 8 chunks
        single_pass = accumulate_clicks(single_pass, clicks)
        shards.append(accumulate_clicks(CountTable(mode=DetectionMode.SPLIT), clicks))
    merged = shards[-1]
    for s in shards[:-1]:
        merged = merge(merged, s)
    report(8, hand_ok and merged == single_pass,
           f"hand case g12 = 2.5 exact; sharded merge equals single pass "
           f"({single_pass.n_trials} trials)")


def test_criterion_9_fit_recovery():
    rng = np.random.default_rng(9)
    true = PAPER_REGIME
    n_per_point = 44_000 * 300
    pts = []
    for chi in np.geomspace(3e-4, 0.3, 12):
        p = true.with_chi(float(chi))
        ms = estimate_metrics(table_from_multinomial(p, DetectionMode.SINGLE,
                                                     n_per_point, rng), eta2=p.eta2)
        mw = estimate_metrics(table_from_multinomial(p, DetectionMode.SPLIT,
                                                     n_per_point, rng), eta2=p.eta2)
        pts.append(DataPoint(p1=ms.p1, p1_se=ms.p1_se, g12=ms.g12, g12_se=ms.g12_se,
                             qc=ms.qc, qc_se=ms.qc_se, p12=ms.p12, p12_se=ms.p12_se,
                             w=mw.w, w_se=mw.w_se))
    result = fit(Dataset(pts), base=ModelParams(chi_ref=0.01), n_starts=8, seed=99)
    recovery = []
    all_ok = True
    for name in result.free_names:
        tv = getattr(true, name)
        v, e = result.value(name), result.error(name)
        ok = abs(v - tv) <= 0.10 * abs(tv) or abs(v - tv) <= 3 * e
        all_ok &= ok
        recovery.append(f"{name}={v:.3g} (true {tv:.3g}, {'ok' if ok else 'OFF'})")

    naive = full_metrics(true.with_chi(0.01)).naive_ratio
    report(9, all_ok and naive > 1.0,
           "; ".join(recovery) + f"; naive p2/p1 'efficiency' = {naive:.2f}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    from dlczsim.cli import main
    from dlczsim.model_fit import dataset_to_csv
    from dlczsim.params import params_to_text

    pf = tmp_path / "params.txt"
    pf.write_text(params_to_text(ModelParams(
        chi=0.02, bg1_coherent=2e-3, bg2_coherent=5e-3, bg1_incoherent=1e-4,
        bg2_incoherent=1e-4, chi_ref=0.01)))

    true = PAPER_REGIME
    points = []
    for chi in np.geomspace(1e-3, 0.2, 8):
        m = full_metrics(true.with_chi(float(chi)))
        points.append(DataPoint(p1=float(p1_of_chi(true, chi)), p1_se=1e-6,
                                g12=m.g12, g12_se=0.02 * m.g12, qc=m.qc, qc_se=0.01,
                                p12=m.p12, p12_se=0.02 * m.p12, w=m.w, w_se=0.01))
    df = tmp_path / "dataset.csv"
    df.write_text(dataset_to_csv(Dataset(points)))

    outputs = []
    for run in ("x", "y"):
        rec = tmp_path / f"{run}.pdr"
        rep = tmp_path / f"{run}.report.txt"
        fitout = tmp_path / f"{run}.fit.txt"
        assert main(["simulate", "--params", str(pf), "--trials", "100000",
                     "--seed", "5", "--out", str(rec)]) == 0
        assert main(["analyze", str(rec), "--seed", "5", "--out", str(rep)]) == 0
        assert main(["fit", str(df), "--seed", "5", "--starts", "3",
                     "--out", str(fitout)]) == 0
        outputs.append((rec.read_bytes(), rep.read_bytes(), fitout.read_bytes()))

    # the work-unit size (stand-in for worker count) must not change the record bytes either
    spec = SessionSpec(params=ModelParams(chi=0.02, bg1_incoherent=1e-4,
                                          bg2_incoherent=1e-4),
                       n_trials=100_000, seed=5)
    blobs = [session_bytes(spec, unit=unit) for unit in (100_000, 7919)]
    report(10, outputs[0] == outputs[1] and blobs[0] == blobs[1],
           "simulate->analyze->fit byte-identical across reruns and work-unit sizes")
