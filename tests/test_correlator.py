import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from dlczsim import (CountTable, DetectionConfig, DetectionMode, Detector,
                     ModelParams, SessionSpec,
                     accumulate_clicks, click_statistics, estimate_metrics, merge,
                     simulate_clicks)
from dlczsim.correlator import count_patterns, report_text, table_from_counts
from dlczsim.photon_model import zeta

from conftest import table_from_multinomial


def table_from_clicks(click_map, mode=DetectionMode.SINGLE, n_trials=10):
    """click_map: detector -> iterable of trial indices; counted as one block sorted by trial."""
    trials, dets = [], []
    for det, ts in click_map.items():
        for t in ts:
            trials.append(t)
            dets.append(int(det))
    order = np.lexsort((dets, trials))
    block = (np.array(trials, np.uint64)[order], np.array(dets, np.uint8)[order])
    return table_from_counts(mode, count_patterns([block]), n_trials)


class TestAccumulate:
    def test_direct_count(self):
        t = table_from_clicks({Detector.D1: [1, 2], Detector.D2: [1, 3]})
        assert (t.n1, t.n2, t.n12, t.n_trials) == (2, 2, 1, 10)

    def test_empty_stream_is_identity_up_to_trials(self):
        t0 = CountTable(mode=DetectionMode.SINGLE, n_trials=5, n1=3, n2=2, n12=1)
        t = merge(t0, table_from_clicks({}, n_trials=0))
        assert t == t0

    def test_triple_counts_once(self):
        t = table_from_clicks({Detector.D1: [4], Detector.D2A: [4], Detector.D2B: [4]},
                              mode=DetectionMode.SPLIT)
        assert t.n1_2a_2b == 1
        assert t.n2a_2b == 1

    def test_duplicate_clicks_collapse(self):
        t = table_from_clicks({Detector.D1: [2, 2, 2], Detector.D2: [2]})
        assert t.n1 == 1 and t.n12 == 1

    def test_foreign_detectors_rejected(self):
        # D2b's channel bit is beyond single mode's; ids that are no detector at all are
        # rejected where records are read (test_records_io, "unknown-detector" cases)
        with pytest.raises(ValueError, match="single-mode"):
            table_from_clicks({Detector.D1: [1], Detector.D2B: [1, 2]})
        with pytest.raises(ValueError):
            accumulate_clicks(CountTable(mode=DetectionMode.SPLIT),
                              np.array([0b001, 0b1000, 0b111], np.uint8))

    def test_unknown_detector_id_named(self):
        with pytest.raises(ValueError, match="unknown detector id 9"):
            count_patterns([(np.array([1, 2, 3], np.uint64), np.array([0, 9, 1], np.uint8))])

    def test_subset_outside_the_mode_rejected(self):
        with pytest.raises(AttributeError, match="n2a"):
            CountTable(mode=DetectionMode.SINGLE, n2a=5)
        with pytest.raises(AttributeError, match="n12"):
            CountTable(mode=DetectionMode.SPLIT, n12=5)

    def test_values_are_zeta_of_pattern_counts(self):
        rng = np.random.default_rng(8)
        for mode, k in ((DetectionMode.SINGLE, 2), (DetectionMode.SPLIT, 3)):
            codes = rng.integers(0, 1 << k, 5000).astype(np.uint8)
            t = accumulate_clicks(CountTable(mode=mode), codes)
            assert t.values == tuple(np.bincount(codes, minlength=1 << k) @ zeta(k))


class TestMerge:
    def test_identity(self):
        t = CountTable(mode=DetectionMode.SINGLE, n_trials=10, n1=2, n2=2, n12=1)
        assert merge(t, CountTable(mode=DetectionMode.SINGLE)) == t

    def test_sharded_equals_single_pass(self):
        p = ModelParams(chi=0.05, bg1_incoherent=1e-3, bg2_incoherent=1e-3)
        spec = SessionSpec(params=p, config=DetectionConfig(DetectionMode.SPLIT),
                           n_trials=1_000_000, seed=77)
        whole = CountTable(mode=DetectionMode.SPLIT)
        shards = []
        for _, clicks in simulate_clicks(spec):   # 16 chunks
            whole = accumulate_clicks(whole, clicks)
            shards.append(accumulate_clicks(CountTable(mode=DetectionMode.SPLIT), clicks))
        merged = shards[0]
        for s in shards[1:]:
            merged = merge(merged, s)
        assert merged == whole

    def test_merge_order_independent(self):
        tables = [CountTable(mode=DetectionMode.SINGLE, n_trials=i, n1=i, n12=i // 2)
                  for i in (3, 9, 1, 7)]
        a = merge(merge(tables[0], tables[1]), merge(tables[2], tables[3]))
        b = merge(tables[3], merge(tables[2], merge(tables[1], tables[0])))
        assert a == b

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            merge(CountTable(mode=DetectionMode.SINGLE), CountTable(mode=DetectionMode.SPLIT))


class TestEstimate:
    def test_hand_computed_g12(self):
        t = CountTable(mode=DetectionMode.SINGLE, n_trials=10, n1=2, n2=2, n12=1)
        m = estimate_metrics(t)
        assert m.g12 == pytest.approx(2.5, abs=0)
        assert any("low-count" in w for w in m.warnings)

    def test_zero_coincidences(self):
        t = CountTable(mode=DetectionMode.SINGLE, n_trials=100, n1=10, n2=10, n12=0)
        m = estimate_metrics(t)
        assert m.g12 == 0.0
        assert any("low-count" in w for w in m.warnings)

    @pytest.mark.parametrize("table, low", [
        (CountTable(DetectionMode.SINGLE, n_trials=1000, n1=50, n2=9, n12=3), "n2,n12"),
        (CountTable(DetectionMode.SPLIT, n_trials=1000, n1=50, n2a=9, n2b=8, n1_2a=10,
                    n1_2b=10, n2a_2b=0, n1_2a_2b=0), "n2a,n2b,n1_2a_2b")])
    def test_low_count_lists_field_2_singles(self, table, low):
        # each single and each count with D1 below LOW_COUNT is named, field 2's singles too
        assert estimate_metrics(table).warnings == (f"low-count: {low}",)

    def test_zero_heralds_flagged_undefined(self):
        t = CountTable(mode=DetectionMode.SINGLE, n_trials=100, n1=0, n2=10, n12=0)
        m = estimate_metrics(t)
        assert {"pc", "qc", "g12"} <= set(m.undefined)
        assert math.isnan(m.pc)

    def test_w_plugin_identity_exact(self):
        # w from count ratios equals w from probabilities: n_trials cancels
        n, n1, na, nb, nt = 1000, 40, 25, 27, 3
        t = CountTable(mode=DetectionMode.SPLIT, n_trials=n, n1=n1,
                       n2a=30, n2b=31, n1_2a=na, n1_2b=nb, n2a_2b=4, n1_2a_2b=nt)
        m = estimate_metrics(t)
        from_probs = (Fraction(n1, n) * Fraction(nt, n)
                      / (Fraction(na, n) * Fraction(nb, n)))
        from_counts = Fraction(n1 * nt, na * nb)
        assert from_probs == from_counts
        assert m.w == pytest.approx(float(from_counts), rel=1e-15)

    def test_delta_and_bootstrap_agree(self, rng):
        p = ModelParams(chi=0.05, bg1_incoherent=1e-3, bg2_incoherent=1e-3)
        for mode in DetectionMode:
            t = table_from_multinomial(p, mode, 2_000_000, rng)
            md = estimate_metrics(t, method="delta")
            mb = estimate_metrics(t, method="bootstrap", n_boot=1500, seed=5)
            names = (["p1", "p2", "p12", "g12", "pc", "qc"]
                     if mode is DetectionMode.SINGLE else ["p1", "w"])
            for name in names:
                d = getattr(md, name + "_se")
                b = getattr(mb, name + "_se")
                assert d == pytest.approx(b, rel=0.2), (mode, name)

    def test_consistency_and_error_scaling(self):
        p = ModelParams(chi=0.02, bg1_incoherent=1e-3, bg2_incoherent=1e-3)
        ana = click_statistics(p, DetectionConfig(DetectionMode.SINGLE))
        sizes = [10 ** 5, 10 ** 6, 10 ** 7]
        ses, errs = [], []
        for i, n in enumerate(sizes):
            spec = SessionSpec(params=p, n_trials=n, seed=100 + i)
            t = CountTable(mode=DetectionMode.SINGLE)
            for _, clicks in simulate_clicks(spec):
                t = accumulate_clicks(t, clicks)
            m = estimate_metrics(t)
            ses.append(m.g12_se)
            errs.append(abs(m.g12 - ana.p12 / (ana.p1 * ana.p2)))
            assert errs[-1] <= 5 * m.g12_se
        slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            estimate_metrics(CountTable(mode=DetectionMode.SINGLE))

    def test_inconsistent_table_rejected_by_the_bootstrap(self):
        # n12 > n1 leaves the pattern "D1 alone" a negative count to resample
        t = CountTable(DetectionMode.SINGLE, n_trials=10, n1=2, n2=2, n12=5)
        with pytest.raises(ValueError, match="inconsistent count table"):
            estimate_metrics(t, method="bootstrap")

    def test_unknown_error_method_rejected(self):
        t = CountTable(DetectionMode.SINGLE, n_trials=10, n1=2, n2=2, n12=1)
        with pytest.raises(ValueError, match="unknown error method 'jackknife'"):
            estimate_metrics(t, method="jackknife")

    @pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_table_survives_pickle_and_deepcopy(self, clone):
        # both look up __setstate__ on the copy before its mode and values are set
        back = clone(PIN_SPLIT)
        assert back == PIN_SPLIT and back.n1_2a_2b == 150

    def test_report_text_roundtrippable(self):
        t = CountTable(mode=DetectionMode.SINGLE, n_trials=1000, n1=100, n2=80, n12=30)
        text = report_text(estimate_metrics(t))
        assert "g12 = " in text and "n_trials = 1000" in text


PIN_SINGLE = CountTable(mode=DetectionMode.SINGLE, n_trials=1_000_000,
                        n1=12_345, n2=8_765, n12=1_234)
PIN_SPLIT = CountTable(mode=DetectionMode.SPLIT, n_trials=1_000_000, n1=50_000,
                       n2a=9_000, n2b=8_800, n1_2a=3_000, n1_2b=2_900, n2a_2b=400,
                       n1_2a_2b=150)


def _ratio_se(grad, probs, joint, n):
    cov = (joint - np.outer(probs, probs)) / n
    return math.sqrt(max(float(grad @ cov @ grad), 0.0))


class TestPinnedEstimators:
    """Estimators against hand-derived formulas and stored bootstrap reports."""

    def test_single_mode_delta_formulas(self):
        t, eta2 = PIN_SINGLE, 0.3
        n = t.n_trials
        p1, p2, p12 = t.n1 / n, t.n2 / n, t.n12 / n
        probs = np.array([p1, p2, p12])
        joint = np.array([[p1, p12, p12], [p12, p2, p12], [p12, p12, p12]])
        pc_se = _ratio_se(np.array([-p12 / (p1 * p1), 0.0, 1 / p1]), probs, joint, n)
        expected = {
            "p1": (p1, math.sqrt(p1 * (1 - p1) / n)),
            "p2": (p2, math.sqrt(p2 * (1 - p2) / n)),
            "p12": (p12, math.sqrt(p12 * (1 - p12) / n)),
            "g12": (p12 / (p1 * p2), _ratio_se(
                np.array([-p12 / (p1 * p1 * p2), -p12 / (p1 * p2 * p2), 1 / (p1 * p2)]),
                probs, joint, n)),
            "pc": (p12 / p1, pc_se),
            "qc": (p12 / p1 / eta2, pc_se / eta2),
            "naive_ratio": (p2 / p1, _ratio_se(np.array([-p2 / (p1 * p1), 1 / p1, 0.0]),
                                               probs, joint, n)),
        }
        m = estimate_metrics(t, eta2=eta2)
        for name, (value, se) in expected.items():
            assert getattr(m, name) == pytest.approx(value, rel=1e-12, abs=0), name
            assert getattr(m, name + "_se") == pytest.approx(se, rel=1e-12, abs=0), name
        assert math.isnan(m.w) and math.isnan(m.w_se)
        assert m.undefined == {"w"}

    @pytest.mark.parametrize("eta2", [0.0, -1.0, math.nan, math.inf, 1.5])
    def test_eta2_out_of_range_rejected(self, eta2):
        with pytest.raises(ValueError, match="eta2"):
            estimate_metrics(PIN_SINGLE, eta2=eta2)

    def test_eta2_of_one_accepted(self):
        m = estimate_metrics(PIN_SINGLE, eta2=1.0)
        assert m.qc == m.pc and m.qc_se == m.pc_se

    def test_split_mode_delta_formulas(self):
        t = PIN_SPLIT
        n = t.n_trials
        p1, qa, qb, tt = t.n1 / n, t.n1_2a / n, t.n1_2b / n, t.n1_2a_2b / n
        probs = np.array([p1, qa, qb, tt])
        joint = np.array([[p1, qa, qb, tt], [qa, qa, tt, tt],
                          [qb, tt, qb, tt], [tt, tt, tt, tt]])
        grad = np.array([tt / (qa * qb), -p1 * tt / (qa * qa * qb),
                         -p1 * tt / (qa * qb * qb), p1 / (qa * qb)])
        m = estimate_metrics(t, eta2=0.3)
        assert m.p1 == pytest.approx(p1, rel=1e-12, abs=0)
        assert m.p1_se == pytest.approx(math.sqrt(p1 * (1 - p1) / n), rel=1e-12, abs=0)
        assert m.w == pytest.approx(p1 * tt / (qa * qb), rel=1e-12, abs=0)
        assert m.w_se == pytest.approx(_ratio_se(grad, probs, joint, n), rel=1e-12, abs=0)
        assert m.undefined == {"p2", "p12", "g12", "pc", "qc", "naive_ratio"}

    @pytest.mark.parametrize("table, expected", [
        (PIN_SINGLE,
         "mode = single\nn_trials = 1000000\nerror_method = bootstrap\n"
         "p1 = 0.012345\np1_se = 0.00011006263531947314\n"
         "p2 = 0.008765\np2_se = 9.770730763266436e-05\n"
         "p12 = 0.001234\np12_se = 3.726187510959985e-05\n"
         "g12 = 11.404392215901595\ng12_se = 0.2972391038199274\n"
         "pc = 0.09995949777237748\npc_se = 0.0028202528157062084\n"
         "qc = 0.3331983259079249\nqc_se = 0.009400842719020693\n"
         "w = nan\nw_se = nan\n"
         "naive_ratio = 0.7100040502227623\nnaive_ratio_se = 0.009172468469571645\n"
         "undefined = w\n"),
        (PIN_SPLIT,
         "mode = split\nn_trials = 1000000\nerror_method = bootstrap\n"
         "p1 = 0.05\np1_se = 0.00023154627070498667\n"
         "p2 = nan\np2_se = nan\np12 = nan\np12_se = nan\ng12 = nan\ng12_se = nan\n"
         "pc = nan\npc_se = nan\nqc = nan\nqc_se = nan\n"
         "w = 0.8620689655172413\nw_se = 0.06271844910229438\n"
         "naive_ratio = nan\nnaive_ratio_se = nan\n"
         "undefined = g12,naive_ratio,p12,p2,pc,qc\n"),
    ], ids=["single", "split"])
    def test_bootstrap_report_is_stable(self, table, expected):
        m = estimate_metrics(table, eta2=0.3, method="bootstrap", n_boot=200, seed=3)
        assert report_text(m) == expected
