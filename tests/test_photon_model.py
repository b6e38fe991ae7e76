import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import (DetectionConfig, DetectionMode, ModelParams,
                     brute_force_statistics, click_statistics, derived_metrics,
                     full_metrics, tmss_pgf)
from dlczsim.photon_model import (METRICS, SUBSETS, click_pattern_distribution, metric_curves,
                                  mobius, zeta)

import scalar_reference
from conftest import random_params

SINGLE = DetectionConfig(DetectionMode.SINGLE)
SPLIT = DetectionConfig(DetectionMode.SPLIT)


def pgf_by_series(chi, x, y, nmax=60):
    """Independent oracle: truncated series sum of (1-chi) chi^n x^n y^n."""
    return sum((1 - chi) * chi ** n * x ** n * y ** n for n in range(nmax + 1))


class TestPgf:
    def test_normalization(self):
        assert tmss_pgf(0.3, 1, 1) == 1.0

    def test_vacuum(self):
        for x, y in [(0, 0), (0.3, 0.9), (1, 1)]:
            assert tmss_pgf(0.0, x, y) == 1.0

    def test_against_series(self):
        assert tmss_pgf(0.5, 0, 1) == pytest.approx(0.5, abs=1e-15)
        for chi, x, y in [(0.5, 0.0, 1.0), (0.3, 0.7, 0.2), (0.05, 1.0, 0.4)]:
            assert tmss_pgf(chi, x, y) == pytest.approx(pgf_by_series(chi, x, y), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tmss_pgf(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            tmss_pgf(0.5, -0.1, 0.5)
        with pytest.raises(ValueError):
            tmss_pgf(0.5, 0.5, 1.5)


class TestClickStatistics:
    def test_perfect_detection_small_chi(self):
        # with unit efficiencies every pair clicks both sides: p1 = p2 = p12 = chi
        p = ModelParams(chi=0.01, eta1=1, eta2_path=1, eta_apd=1, retrieval_eff=1)
        s = click_statistics(p, SINGLE)
        chi_click = sum((1 - 0.01) * 0.01 ** n for n in range(1, 200))  # geometric sum oracle
        assert s.p1 == pytest.approx(chi_click, abs=1e-12)
        assert s.p2 == pytest.approx(chi_click, abs=1e-12)
        assert s.p12 == pytest.approx(chi_click, abs=1e-12)
        assert derived_metrics(s, p).g12 == pytest.approx(100.0, rel=1e-9)

    def test_vacuum(self):
        p = ModelParams(chi=0.0)
        s = click_statistics(p, SINGLE)
        assert s.p1 == s.p2 == s.p12 == 0.0

    def test_backgrounds_only_factorize(self):
        b1, b2 = 0.02, 0.005
        p = ModelParams(chi=0.0, bg1_incoherent=b1, bg2_incoherent=b2)
        s = click_statistics(p, SINGLE)
        assert s.p1 == pytest.approx(1 - math.exp(-b1), abs=1e-15)
        assert s.p2 == pytest.approx(1 - math.exp(-b2), abs=1e-15)
        assert s.p12 == pytest.approx(s.p1 * s.p2, abs=1e-15)
        assert derived_metrics(s, p).g12 == pytest.approx(1.0, abs=1e-12)

    def test_split_symmetry(self):
        p = ModelParams(chi=0.1, bg2_incoherent=1e-3, bs_ratio=0.5)
        s = click_statistics(p, SPLIT)
        assert s.p1_2a == s.p1_2b
        assert s.p2a == s.p2b

    def test_pattern_distribution_sums_to_one(self):
        p = ModelParams(chi=0.2, bg1_incoherent=0.01, bg2_coherent=0.05)
        for cfg in (SINGLE, SPLIT):
            dist = click_pattern_distribution(p, cfg)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_mobius_inverts_zeta(self, k):
        assert np.array_equal(zeta(k) @ mobius(k), np.eye(1 << k, dtype=np.int64))
        assert np.array_equal(mobius(k) @ zeta(k), np.eye(1 << k, dtype=np.int64))

    def test_pattern_distribution_matches_oracle(self, rng):
        """The pattern distribution mapped back through zeta gives the oracle's
        subset-click probabilities."""
        for _ in range(10):
            p = random_params(rng, chi_max=0.6)
            for cfg in (SINGLE, SPLIT):
                dist = click_pattern_distribution(p, cfg)
                assert dist.shape == (1 << len(cfg.channels(p)),)
                subset_probs = dist @ zeta(len(cfg.channels(p)))
                b, _ = brute_force_statistics(p, cfg, 60)
                for s, mask in SUBSETS[cfg.mode].items():
                    assert abs(subset_probs[mask] - getattr(b, "p" + s)) <= 1e-10, (s, p)


class TestDerivedMetrics:
    def test_g12_arithmetic(self):
        from dlczsim.photon_model import Statistics
        s = Statistics(mode=DetectionMode.SINGLE, p1=0.5, p2=0.5, p12=0.5)
        assert derived_metrics(s, ModelParams()).g12 == 2.0

    def test_qc_from_measured_pc(self):
        # pc = 0.125 at eta2 = 0.25 corresponds to qc = 0.5
        from dlczsim.photon_model import Statistics
        s = Statistics(mode=DetectionMode.SINGLE, p1=0.1, p2=0.02, p12=0.0125)
        m = derived_metrics(s, ModelParams())
        assert m.pc == pytest.approx(0.125)
        assert m.qc == pytest.approx(0.5)

    def test_single_photon_gives_zero_w(self):
        from dlczsim.photon_model import Statistics
        s = Statistics(mode=DetectionMode.SPLIT, p1=0.1, p2a=0.01, p2b=0.01,
                       p1_2a=0.005, p1_2b=0.005, p2a_2b=0.0, p1_2a_2b=0.0)
        assert derived_metrics(s, ModelParams()).w == 0.0

    def test_zero_denominator_flagged(self):
        p = ModelParams(chi=0.0)
        m = derived_metrics(click_statistics(p, SINGLE), p)
        assert math.isnan(m.g12)
        assert "g12" in m.undefined and "pc" in m.undefined

    def test_subset_outside_the_mode_rejected(self):
        from dlczsim.photon_model import Statistics
        with pytest.raises(AttributeError, match="p2"):
            Statistics(mode=DetectionMode.SPLIT, p2=0.1)
        with pytest.raises(AttributeError, match="p2a"):
            Statistics(mode=DetectionMode.SINGLE, p1=0.1, p2a=0.1)


class TestBruteForce:
    def test_vacuum_all_zero(self):
        p = ModelParams(chi=0.0)
        for cfg in (SINGLE, SPLIT):
            s, tail = brute_force_statistics(p, cfg, 20)
            assert tail == 0.0
            assert all(v == 0.0 for v in s.as_dict().values())

    def test_matches_analytic_small_chi(self):
        p = ModelParams(chi=0.01, eta1=1, eta2_path=1, eta_apd=1, retrieval_eff=1)
        a = click_statistics(p, SINGLE)
        b, _ = brute_force_statistics(p, SINGLE, 40)
        for k, v in a.as_dict().items():
            assert abs(v - getattr(b, k)) <= 1e-10

    def test_truncation_bounded_by_tail(self):
        p = ModelParams(chi=0.9, bg2_coherent=0.01)
        with pytest.warns(UserWarning):
            s10, tail10 = brute_force_statistics(p, SINGLE, 10)
        with pytest.warns(UserWarning):
            s60, _ = brute_force_statistics(p, SINGLE, 60)
        assert tail10 == pytest.approx(0.9 ** 11)
        for k, v in s60.as_dict().items():
            assert abs(v - getattr(s10, k)) <= tail10 + 1e-12

    def test_nmax_below_one_rejected(self):
        with pytest.raises(ValueError, match="nmax must be >= 1"):
            brute_force_statistics(ModelParams(chi=0.01), SINGLE, nmax=0)

    @pytest.mark.parametrize("change", [{"bs_ratio": 0.0}, {"bs_ratio": 1.0},
                                        {"retrieval_eff": 0.0}], ids=["no-a", "no-b", "neither"])
    def test_matches_analytic_with_an_unreached_arm(self, change):
        # the splitter arms that no pair photon reaches: _trinom_pmf's zero-probability arms
        p = dataclasses.replace(ModelParams(chi=0.3, bg2_coherent=0.01, bg1_incoherent=1e-4,
                                            bg2_incoherent=1e-4), **change)
        a = click_statistics(p, SPLIT)
        b, _ = brute_force_statistics(p, SPLIT, 60)
        for k, v in a.as_dict().items():
            assert abs(v - getattr(b, k)) <= 1e-15, k

    def test_oracle_equivalence_random(self, rng):
        for _ in range(25):
            p = random_params(rng, chi_max=0.6)
            for cfg in (SINGLE, SPLIT):
                a = click_statistics(p, cfg)
                b, _ = brute_force_statistics(p, cfg, 60)
                for k, v in a.as_dict().items():
                    assert abs(v - getattr(b, k)) <= 1e-10, (k, p)


class TestModelProperties:
    @given(chi=st.floats(0, 0.9), e1=st.floats(0.01, 1), e2=st.floats(0.01, 1),
           b1=st.floats(0, 0.5), b2=st.floats(0, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_ordering(self, chi, e1, e2, b1, b2):
        p = ModelParams(chi=chi, eta1=e1, eta2_path=e2, bg1_incoherent=b1,
                        bg2_incoherent=b2)
        s = click_statistics(p, SINGLE)
        for v in s.as_dict().values():
            assert -1e-12 <= v <= 1.0 + 1e-12
        assert s.p12 <= min(s.p1, s.p2) + 1e-12

    @given(chi=st.floats(0.001, 0.8), b2=st.floats(0, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_triple_ordering(self, chi, b2):
        p = ModelParams(chi=chi, bg2_incoherent=b2)
        s = click_statistics(p, SPLIT)
        assert s.p1_2a_2b <= min(s.p1_2a, s.p1_2b) + 1e-12

    @given(chi=st.floats(0.001, 0.5), lo=st.floats(0.05, 0.5), hi=st.floats(0.5, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_efficiency(self, chi, lo, hi):
        base = ModelParams(chi=chi, bg1_incoherent=1e-4, bg2_incoherent=1e-4)
        for name in ("eta1", "eta2_path", "eta_apd", "retrieval_eff"):
            s_lo = click_statistics(dataclasses.replace(base, **{name: lo}), SINGLE)
            s_hi = click_statistics(dataclasses.replace(base, **{name: hi}), SINGLE)
            assert s_hi.p1 >= s_lo.p1 - 1e-12
            assert s_hi.p2 >= s_lo.p2 - 1e-12

    def test_monotone_in_background(self):
        p_lo = ModelParams(chi=0.01, bg1_incoherent=1e-4)
        p_hi = ModelParams(chi=0.01, bg1_incoherent=1e-2)
        assert (click_statistics(p_hi, SINGLE).p1
                > click_statistics(p_lo, SINGLE).p1)

    def test_small_chi_g12_limit(self):
        # with no backgrounds, g12 * chi -> 1 as chi -> 0
        p = ModelParams(chi=1e-4)
        m = derived_metrics(click_statistics(p, SINGLE), p)
        assert m.g12 * 1e-4 == pytest.approx(1.0, rel=1e-3)

    def test_w_moves_against_g12_along_sweep(self):
        from dlczsim import full_metrics
        base = ModelParams(bg1_incoherent=3e-6, bg2_incoherent=3e-6,
                           bg1_coherent=1e-3, bg2_coherent=1e-3)
        chis = np.geomspace(1e-4, 0.5, 30)
        ms = [full_metrics(base.with_chi(float(c))) for c in chis]
        for a, b in zip(ms, ms[1:]):
            assert (b.g12 - a.g12) * (b.w - a.w) <= 1e-15


class TestScalarReference:
    """The array kernel against the 60-digit inclusion-exclusion reference."""

    SETS = [ModelParams(chi=0.0), ModelParams(chi=0.0, bg2_incoherent=0.01),
            ModelParams(chi=0.0, bg1_incoherent=0.01), ModelParams(chi=0.3, retrieval_eff=0.0)]
    # low drive, where a difference of order-1 no-click probabilities loses every digit
    SETS += [ModelParams(chi=chi, bg1_coherent=1e-9, bg2_coherent=1e-9, bg1_incoherent=1e-9,
                         bg2_incoherent=1e-9) for chi in (1e-8, 1e-6, 1e-4, 1e-2)]
    SETS += [ModelParams(chi=float(chi), bg1_coherent=2e-3, bg2_coherent=1.3e-2,
                         bg1_incoherent=1e-5, bg2_incoherent=1e-5)
             for chi in np.geomspace(3e-6, 0.3, 30)]

    def test_full_metrics(self):
        rng = np.random.default_rng(5)
        for p in self.SETS + [random_params(rng) for _ in range(300)]:
            m = full_metrics(p)
            ref, undefined = scalar_reference.full_metrics(p)
            assert m.undefined == undefined, p
            for k, v in ref.items():
                if k not in undefined:
                    assert abs(getattr(m, k) - v) <= 1e-14 * abs(v), (k, p)

    def test_click_statistics(self):
        rng = np.random.default_rng(6)
        for p in self.SETS + [random_params(rng) for _ in range(100)]:
            for cfg in (SINGLE, SPLIT):
                got = list(click_statistics(p, cfg).as_dict().values())
                for g, v in zip(got, scalar_reference.click_probs(p, cfg)):
                    assert abs(g - v) <= 1e-14 * abs(v), (cfg, p)


unit = st.floats(0, 1)
drawn_params = st.builds(
    ModelParams, chi=st.just(0.01), bg1_coherent=st.floats(0, 10), bg2_coherent=st.floats(0, 10),
    bg1_incoherent=st.floats(0, 10), bg2_incoherent=st.floats(0, 10),
    chi_ref=st.floats(1e-3, 0.5), retrieval_eff=unit, eta1=unit, eta2_path=unit, eta_apd=unit,
    bs_transmission=unit, bs_ratio=unit)


class TestMetricPass:
    """Every model function reads one kernel: `metric_curves` gives the fit's `names` with
    the bits of every metric, and `click_statistics` the bits of `full_metrics`."""

    NAMES = ("g12", "p12", "qc", "w")   # the fit's

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def check(self, params, chi):
        curves = metric_curves(params, chi)
        named = metric_curves(params, chi, self.NAMES)
        assert set(self.NAMES) <= named.keys() <= curves.keys()
        assert all(self.same_bits(named[k], curves[k]) for k in named), params

    @settings(max_examples=200, deadline=None)
    @given(params=drawn_params, chi=st.floats(0, 0.999))
    def test_statistics_give_full_metrics(self, params, chi):
        params = params.with_chi(chi)
        full = full_metrics(params)
        for mode in DetectionMode:
            m = derived_metrics(click_statistics(params, DetectionConfig(mode)), params)
            names = [*METRICS[mode], *["qc"] * ("pc" in METRICS[mode])]
            assert all(self.same_bits(getattr(m, k), getattr(full, k)) for k in names), params

    @settings(max_examples=200, deadline=None)
    @given(params=drawn_params, chi=st.lists(st.floats(0, 0.999), min_size=1, max_size=20))
    def test_real_chi(self, params, chi):
        self.check(params, np.array(chi))
        self.check(params, np.reshape(chi * 3, (3, -1)))

    @settings(max_examples=100, deadline=None)
    @given(params=drawn_params, starts=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_complex_step_pass(self, params, starts, seed):
        # shaped like the fit's Jacobian pass: [start, perturbation, point], free value j
        # perturbed on row j and chi following on every row
        rng = np.random.default_rng(seed)
        view = SimpleNamespace(**vars(params), eta2=params.eta2)
        free = ("bg1_coherent", "bg2_coherent", "bg1_incoherent", "bg2_incoherent", "retrieval_eff")
        for j, name in enumerate(free):
            v = getattr(params, name) * rng.uniform(0.5, 1.0, (starts, 1, 1))
            setattr(view, name, v + 1j * 1e-20 * v * (np.arange(len(free))[:, None] == j))
        chi = (rng.uniform(0.0, 0.9, (starts, 1, 12))
               + 1j * 1e-20 * rng.standard_normal((starts, len(free), 12)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # as the fit's
            self.check(view, chi)
