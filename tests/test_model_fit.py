import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import (CountTable, DataPoint, Dataset, DetectionConfig, DetectionMode, ModelParams,
                     chi_from_p1, click_statistics, dataset_from_csv, dataset_to_csv,
                     estimate_metrics, fit, full_metrics, objective, predict_curves, residuals)
from dlczsim import model_fit
from dlczsim.model_fit import (DEFAULT_BOUNDS, DEFAULT_FREE, PENALTY,
                               _from_internal, _least_squares, _Problem, _to_internal,
                               fit_result_text)
from dlczsim.photon_model import p1_of_chi

import scalar_reference
from conftest import random_params, table_from_multinomial


def params_and_alt(base, names, x):
    """(base with the free values of internal values x, bg1_incoherent_alt or None)."""
    values = {n: float(v) for n, v in _from_internal(names, x).items()}
    alt = values.pop("bg1_incoherent_alt", None)
    return dataclasses.replace(base, **values), alt


PAPER_REGIME = ModelParams(bg1_coherent=2e-3, bg2_coherent=1.3e-2,
                           bg1_incoherent=1e-5, bg2_incoherent=1e-5,
                           chi_ref=0.01, retrieval_eff=0.5)


def exact_dataset(params, chis, w=True):
    pts = []
    for chi in chis:
        m = full_metrics(params.with_chi(chi))
        p1 = p1_of_chi(params, chi)
        pts.append(DataPoint(p1=float(p1), p1_se=1e-6,
                             g12=m.g12, g12_se=0.01 * m.g12,
                             qc=m.qc, qc_se=0.01,
                             p12=m.p12, p12_se=0.01 * m.p12,
                             w=m.w if w else math.nan,
                             w_se=0.01 if w else math.nan))
    return Dataset(pts)


class TestPredictCurves:
    def test_no_noise_plateau_everywhere(self):
        p = ModelParams(retrieval_eff=0.62)
        curves = predict_curves(p, np.geomspace(1e-5, 1e-3, 10))
        for c in curves:
            assert c.qc == pytest.approx(0.62, rel=2e-3)

    def test_noise_floor_pulls_qc_down(self):
        p = ModelParams(bg1_incoherent=1e-4, retrieval_eff=0.5)
        curves = predict_curves(p, np.geomspace(1e-5, 1e-2, 12))
        assert curves[0].qc < curves[-1].qc
        assert curves[0].qc < 0.4

    def test_multi_excitation_raises_qc(self):
        p = ModelParams(retrieval_eff=0.5)
        lo = predict_curves(p, [1e-3])[0].qc
        hi = predict_curves(p, [0.3])[0].qc
        assert hi > lo * 1.05

    def test_reported_against_p1(self):
        p = PAPER_REGIME
        curves = predict_curves(p, np.geomspace(1e-4, 0.1, 8))
        p1s = [c.p1 for c in curves]
        assert p1s == sorted(p1s)

    def test_empty_grid_gives_no_points(self):
        assert predict_curves(PAPER_REGIME, []) == []
        assert predict_curves(PAPER_REGIME, np.empty(0)) == []

    def test_chi_of_one_rejected(self):
        with pytest.raises(ValueError, match=r"^chi must be in \[0, 1\)$"):
            predict_curves(PAPER_REGIME, [1.0])


class TestChiInversion:
    def test_round_trip(self):
        p = PAPER_REGIME
        chis = np.geomspace(1e-4, 0.5, 10)
        back = chi_from_p1(p, p1_of_chi(p, chis))
        assert np.allclose(back, chis, rtol=1e-8)

    def test_unreachable_p1_is_nan(self):
        p = ModelParams(bg1_incoherent=1e-3)
        floor = 1 - math.exp(-1e-3)
        assert math.isnan(chi_from_p1(p, [floor * 0.5])[0])


class TestObjective:
    def test_zero_at_truth(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.1, 6).tolist())
        assert objective(PAPER_REGIME, ds) == pytest.approx(0.0, abs=1e-10)

    def test_perturbation_increases(self):
        import dataclasses
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.1, 6).tolist())
        for name, factor in [("retrieval_eff", 1.2), ("bg2_coherent", 3.0),
                             ("bg1_incoherent", 50.0)]:
            bumped = dataclasses.replace(
                PAPER_REGIME, **{name: getattr(PAPER_REGIME, name) * factor})
            assert objective(bumped, ds) > 1e-4, name

    def test_missing_w_ignored(self):
        with_w = exact_dataset(PAPER_REGIME, [1e-3, 1e-2], w=True)
        without = exact_dataset(PAPER_REGIME, [1e-3, 1e-2], w=False)
        assert len(residuals(PAPER_REGIME, without)) == len(residuals(PAPER_REGIME, with_w)) - 2

    def test_reordering_invariant(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.1, 5).tolist())
        import dataclasses
        bumped = dataclasses.replace(PAPER_REGIME, retrieval_eff=0.4)
        obj1 = objective(bumped, ds)
        ds.points.reverse()
        assert objective(bumped, ds) == obj1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            objective(PAPER_REGIME, Dataset([]))

    @pytest.mark.parametrize("se, penalised", [(1e-33, True), (1e-31, False)])
    def test_residual_beyond_its_bound_is_penalty(self, se, penalised):
        # qc off by 0.1: a residual of 1e32 lies beyond 1 / eps^2 (2e31), a prediction that
        # nothing in a file resolves; 1e30 stays
        ds = exact_dataset(PAPER_REGIME, [1e-2])
        ds.points[0].qc += 0.1
        ds.points[0].qc_se = se
        r = residuals(PAPER_REGIME, ds)[2]   # g12, p12, qc, w
        assert r == PENALTY if penalised else r == pytest.approx(-0.1 / se, rel=1e-9)

    def test_residual_at_its_bound_stays(self):
        # qc at the model's own prediction plus 2^-30, exactly, with an SE of 2^-134: the
        # residual is -2^104 = -1 / eps^2 exactly, at the bound and not beyond it
        ds = exact_dataset(PAPER_REGIME, [1e-2])
        ds.points[0].qc_se = 1.0
        ds.points[0].qc += residuals(PAPER_REGIME, ds)[2]
        ds.points[0].qc += 2.0 ** -30
        ds.points[0].qc_se = 2.0 ** -134
        assert residuals(PAPER_REGIME, ds)[2] == -2.0 ** 104


class TestDatasetCsv:
    def test_round_trip(self):
        ds = exact_dataset(PAPER_REGIME, [1e-3, 5e-2])
        ds.points[1].flags = "notrap"
        ds.points[1].w = math.nan
        back = dataset_from_csv(dataset_to_csv(ds))
        assert len(back) == 2
        assert back.points[1].flags == "notrap"
        assert math.isnan(back.points[1].w)
        assert back.points[0].g12 == pytest.approx(ds.points[0].g12)

    def test_round_trip_of_an_estimate_without_triples(self):
        # no triple coincidence: the estimate is w = 0 with w_se = 0, an SE the reader rejects
        table = CountTable(DetectionMode.SPLIT, n_trials=1000, n1=50, n2a=40, n2b=40,
                           n1_2a=5, n1_2b=5, n2a_2b=1, n1_2a_2b=0)
        m = estimate_metrics(table, eta2=0.25)
        assert (m.w, m.w_se) == (0.0, 0.0)
        ds = Dataset([DataPoint(p1=m.p1, p1_se=m.p1_se, w=m.w, w_se=m.w_se)])
        back = dataset_from_csv(dataset_to_csv(ds)).points[0]
        assert (back.p1, back.p1_se) == (m.p1, m.p1_se)
        assert math.isnan(back.w) and math.isnan(back.w_se)

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            dataset_from_csv("p1,bogus\n0.1,2\n")

    def test_missing_p1_rejected(self):
        with pytest.raises(ValueError, match="p1"):
            dataset_from_csv("g12,g12_se\n10,1\n")


    @pytest.mark.parametrize("p1", ["nan", "inf", "-1", "2.0", "0", "1", ""])
    def test_impossible_p1_rejected(self, p1):
        # the first row, below the model floor but a probability, reads
        with pytest.raises(ValueError, match="line 3.*p1"):
            dataset_from_csv(f"p1,g12,g12_se\n1e-12,10,1\n{p1},10,1\n")
        assert dataset_from_csv("p1,g12,g12_se\n1e-12,10,1\n").points[0].p1 == 1e-12

    @pytest.mark.parametrize("row, col", [("0.01,abc,1", "g12"), ("0.01,10,-1", "g12_se"),
                                          ("0.01,10,0", "g12_se"), ("0.01,10,nan", "g12_se"),
                                          ("0.01,inf,1", "g12"), ("0.01,nan,1", "g12")])
    def test_bad_cell_rejected(self, row, col):
        with pytest.raises(ValueError, match=f"line 3, column {col}"):
            dataset_from_csv(f"p1,g12,g12_se\n0.02,5,1\n{row}\n")
        assert math.isnan(dataset_from_csv("p1,g12,g12_se\n0.01,,\n").points[0].g12_se)

    @pytest.mark.parametrize("col, positive", [("g12", True), ("p12", True), ("qc", False),
                                               ("w", False)])
    def test_log_space_observables_must_be_positive(self, col, positive):
        # the fit takes the log of g12 and p12, so a value <= 0 there could never be matched
        for cell in ("-1", "0", "-0.0"):
            text = f"p1,{col},{col}_se\n0.01,{cell},1\n"
            if positive:
                with pytest.raises(ValueError, match=f"line 2, column {col}: '{cell}' is not a "
                                                     "finite number > 0"):
                    dataset_from_csv(text)
            else:
                assert getattr(dataset_from_csv(text).points[0], col) == float(cell)

    def test_written_values_that_the_reader_rejects_are_blank(self):
        # a value <= 0 where the fit takes the log goes with its SE; p1 keeps its value
        ds = Dataset([DataPoint(p1=0.01, p1_se=0.0, g12=-1.0, g12_se=0.5, qc=-0.1, qc_se=0.1,
                                p12=0.0, p12_se=1e-4, w=0.2, w_se=math.inf)])
        assert dataset_to_csv(ds).splitlines()[1] == "0.01,,,,-0.1,0.1,,,,,"
        back = dataset_from_csv(dataset_to_csv(ds)).points[0]
        assert (back.p1, back.qc, back.qc_se) == (0.01, -0.1, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(p1=st.floats(1e-12, 0.99) | st.sampled_from([0.0, 1.0, 1.5, math.nan, math.inf, 5e-324]),
           values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1e-310, 2.5, 1e308, math.inf,
                                            -math.inf, math.nan]), min_size=9, max_size=9),
           cast=st.lists(st.sampled_from([float, np.float64]), min_size=10, max_size=10))
    def test_every_written_dataset_reads_back(self, p1, values, cast):
        # the writer raises for a p1 that the reader rejects, and else writes what reads back,
        # from Python floats and numpy scalars alike
        p1, *values = (f(v) for f, v in zip(cast, [p1, *values]))
        pt = DataPoint(p1, *values)
        if not 0.0 < p1 < 1.0:
            message = re.escape(f"dataset point 0: p1 = {p1!r} is not")
            with pytest.raises(ValueError, match=message):
                dataset_to_csv(Dataset([pt]))
            return
        back = dataset_from_csv(dataset_to_csv(Dataset([pt]))).points[0]
        assert back.p1 == p1
        for col in ("g12", "qc", "p12", "w"):   # each observable reads as written, or blank
            v, se = getattr(back, col), getattr(back, col + "_se")
            assert math.isnan(v) or v == getattr(pt, col), col
            assert math.isnan(se) or se == getattr(pt, col + "_se"), col

    def test_extra_cells_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            dataset_from_csv("p1,g12,g12_se\n0.01,10,1,7\n")

    @pytest.mark.parametrize("header, col", [("p1,g12,g12_se,g12", "g12"),
                                             ("p1,g12,g12_se, g12 ", "g12"),
                                             ("p1,p1,g12,g12_se", "p1")])
    def test_repeated_column_rejected(self, header, col):
        # not the last of the two cells (g12 = 99) read silently
        with pytest.raises(ValueError, match=f"column '{col}' is repeated"):
            dataset_from_csv(f"{header}\n0.01,10,1,99\n")

    @pytest.mark.parametrize("col, value, floor", [
        ("w", 0.5, 2.0 ** -52),                                  # linear, |w| <= 1
        ("qc", 1e3, 2.0 ** -52 * 1e3),                           # linear, |qc| > 1
        ("g12", 6.18, 2.0 ** -52 * math.log(6.18) * 6.18),       # log space
        ("p12", 1e-4, 2.0 ** -52 * -math.log(1e-4) * 1e-4)])
    def test_se_must_exceed_its_values_resolution(self, col, value, floor):
        # scale > eps max(1, |x|), x and scale the residual's: in log space log(value) and
        # SE / value
        text = f"p1,{col},{col}_se\n0.01,{value!r},{{}}\n"
        with pytest.raises(ValueError, match=re.escape(f"line 2, column {col}_se: '{floor!r}' "
                                                       f"is not an SE > {floor:.3g}")):
            dataset_from_csv(text.format(repr(floor)))
        above = float(np.nextafter(floor, math.inf))
        assert getattr(dataset_from_csv(text.format(repr(above))).points[0], col + "_se") == above

    @pytest.mark.parametrize("se", ["5.1e-49", "2e-48"])
    def test_se_below_resolution_of_a_large_g12_rejected(self, se):
        # once accepted, and the fit's solver then overflowed on it
        with pytest.raises(ValueError, match="line 2, column g12_se"):
            dataset_from_csv(f"p1,g12,g12_se\n0.0011182637914992025,63.02122821595107,{se}\n")


class TestFit:
    def test_noiseless_recovery(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(3e-4, 0.3, 10).tolist())
        res = fit(ds, base=ModelParams(chi_ref=0.01), n_starts=4, seed=2)
        for name in ("retrieval_eff", "bg2_coherent", "bg1_coherent"):
            assert res.value(name) == pytest.approx(getattr(PAPER_REGIME, name), rel=0.02), name
        assert res.objective < 1e-3

    def test_reproducible(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.2, 8).tolist())
        a = fit(ds, n_starts=3, seed=9)
        b = fit(ds, n_starts=3, seed=9)
        assert np.array_equal(a.values, b.values)
        assert a.objective == b.objective

    def test_single_point_under_determined(self):
        ds = exact_dataset(PAPER_REGIME, [1e-2])
        res = fit(ds, n_starts=2, seed=1)
        assert "under-determined" in res.flags

    @pytest.mark.parametrize("ds", [
        dataset_from_csv("p1,g12,g12_se\n0.01,,\n0.02,,\n"),
        Dataset([DataPoint(p1=0.01), DataPoint(p1=0.02)]),
        Dataset([DataPoint(p1=0.01, g12=10.0, qc=0.5, p12=1e-3, w=0.1)])])   # no SE
    def test_no_usable_observable_rejected(self, ds):
        with pytest.raises(ValueError, match="no observable"):
            fit(ds, n_starts=2, seed=1)

    def test_objective_at_truth_not_beaten_by_much(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.2, 8).tolist())
        res = fit(ds, n_starts=4, seed=3)
        assert objective(PAPER_REGIME, ds) <= res.objective + 1e-6

    def test_covariance_symmetric_psd(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.2, 8).tolist())
        res = fit(ds, n_starts=2, seed=4)
        c = res.covariance
        assert np.allclose(c, c.T, rtol=1e-8)
        assert np.all(np.linalg.eigvalsh((c + c.T) / 2) >= -1e-12 * np.abs(c).max())

    def test_result_text(self):
        ds = exact_dataset(PAPER_REGIME, [1e-3, 1e-2, 1e-1])
        res = fit(ds, n_starts=2, seed=5)
        text = fit_result_text(res)
        assert "retrieval_eff = " in text and "objective = " in text

    def test_covariance_at_upper_bound(self):
        truth = dataclasses.replace(PAPER_REGIME, retrieval_eff=1.0)
        ds = exact_dataset(truth, [1e-3, 1e-2, 1e-1])
        res = fit(ds, base=truth, free_names=("retrieval_eff",), n_starts=2, seed=0)
        assert res.value("retrieval_eff") == pytest.approx(1.0, rel=1e-6)
        assert res.covariance.shape == (1, 1)
        assert np.isfinite(res.errors[0]) and res.errors[0] > 0
        assert res.flags == ()

    def test_covariance_is_the_inverse_of_jtj_in_natural_units(self):
        # J by central differences of the public residuals over each natural value: independent
        # of the solver's complex-step Jacobian and of its log10 scale, for the four log-scaled
        # backgrounds and the linear retrieval_eff
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.2, 8).tolist())
        res = fit(ds, base=PAPER_REGIME, init={n: getattr(PAPER_REGIME, n) for n in DEFAULT_FREE},
                  n_starts=0)
        assert res.free_names == DEFAULT_FREE and res.converged
        columns = []
        for name in DEFAULT_FREE:
            v = getattr(res.params, name)
            up, down = (residuals(dataclasses.replace(res.params, **{name: v + h}), ds)
                        for h in (1e-5 * v, -1e-5 * v))
            columns.append((up - down) / (2e-5 * v))
        jac = np.column_stack(columns)
        expected = np.linalg.inv(jac.T @ jac)
        sd = np.sqrt(np.diag(expected))
        assert res.errors == pytest.approx(sd, rel=1e-6)
        assert np.abs((res.covariance - expected) / np.outer(sd, sd)).max() <= 1e-6


def criterion_9_dataset():
    """The noisy 12-point dataset of acceptance criterion 9."""
    rng = np.random.default_rng(9)
    pts = []
    for chi in np.geomspace(3e-4, 0.3, 12):
        p = PAPER_REGIME.with_chi(float(chi))
        ms = estimate_metrics(table_from_multinomial(p, DetectionMode.SINGLE, 44_000 * 300, rng),
                              eta2=p.eta2)
        mw = estimate_metrics(table_from_multinomial(p, DetectionMode.SPLIT, 44_000 * 300, rng),
                              eta2=p.eta2)
        pts.append(DataPoint(p1=ms.p1, p1_se=ms.p1_se, g12=ms.g12, g12_se=ms.g12_se,
                             qc=ms.qc, qc_se=ms.qc_se, p12=ms.p12, p12_se=ms.p12_se,
                             w=mw.w, w_se=mw.w_se))
    return Dataset(pts)


class TestVectorisedResiduals:
    """The one-pass residuals against the scalar point-by-point reference."""

    FREE = DEFAULT_FREE + ("bg1_incoherent_alt",)

    @pytest.fixture(scope="class")
    def dataset(self):
        ds = criterion_9_dataset()
        for i in (3, 7):
            ds.points[i].flags = "notrap"
        # below every reachable p1: its observables get PENALTY
        ds.points.append(DataPoint(p1=1e-12, g12=50.0, g12_se=1.0, qc=0.5, qc_se=0.01))
        return ds

    def parameter_sets(self):
        lo = _to_internal(self.FREE, [DEFAULT_BOUNDS[n][0] for n in self.FREE])
        hi = _to_internal(self.FREE, [DEFAULT_BOUNDS[n][1] for n in self.FREE])
        rng = np.random.default_rng(11)
        yield PAPER_REGIME, 3e-6
        for _ in range(20):
            x = lo + rng.random(len(self.FREE)) * (hi - lo)
            yield params_and_alt(ModelParams(chi_ref=0.01), self.FREE, x)

    def test_match_scalar_reference_at_the_same_chi(self, dataset):
        def invert(p, p1):
            return chi_from_p1(p, p1)[0]

        for p, alt in self.parameter_sets():
            r = residuals(p, dataset, alt)
            assert r[-2:].tolist() == [PENALTY, PENALTY]
            ref = scalar_reference.residuals(p, dataset, alt, invert=invert)
            assert r.shape == ref.shape
            assert np.max(np.abs(r - ref)) <= 1e-8, p

    def test_jacobian_matches_central_differences(self, dataset):
        base = ModelParams(chi_ref=0.01)

        def at(x):   # the public residuals at internal values x
            p, alt = params_and_alt(base, self.FREE, x)
            return residuals(p, dataset, alt)

        problem = _Problem(dataset, base, self.FREE)
        for p, alt in itertools.islice(self.parameter_sets(), 6):
            x = _to_internal(self.FREE, [getattr(p, n) for n in DEFAULT_FREE] + [alt])
            jac = problem.jacobian(x)
            central = np.column_stack([(at(x + step) - at(x - step)) / 2e-6
                                       for step in np.eye(len(x)) * 1e-6])
            assert np.all(jac[-2:] == 0)   # PENALTY rows do not move
            assert np.abs(jac - central).max() <= 1e-6 * np.abs(central).max(), p

    def test_jacobian_follows_eta2_of_a_free_efficiency(self, dataset):
        # qc = pc / eta2, and eta2 = eta2_path * eta_apd moves with a free eta_apd
        names = ("bg1_coherent", "eta_apd")
        problem = _Problem(dataset, PAPER_REGIME, names)
        x = _to_internal(names, [PAPER_REGIME.bg1_coherent, 0.45])
        jac = problem.jacobian(x)
        central = np.column_stack([(problem.residuals(x + step) - problem.residuals(x - step)) / 2e-6
                                   for step in np.eye(len(x)) * 1e-6])
        assert np.abs(jac - central).max() <= 1e-6 * np.abs(central).max()

    def test_match_bisection_reference_near_the_truth(self, dataset):
        for alt in (3e-6, 1e-5):
            r = residuals(PAPER_REGIME, dataset, alt)
            ref = scalar_reference.residuals(PAPER_REGIME, dataset, alt)
            assert np.max(np.abs(r - ref)) <= 1e-8


class TestNewtonInversion:
    def test_reproduces_p1(self):
        chis = np.geomspace(1e-6, 0.9, 200)
        for p in [PAPER_REGIME, ModelParams(bg1_coherent=0.9, bg1_incoherent=1e-9)] + [
                random_params(np.random.default_rng(seed)) for seed in range(10)]:
            p1 = p1_of_chi(p, chis)
            back = chi_from_p1(p, p1)
            assert np.all(np.abs(p1_of_chi(p, back) - p1) <= 1e-11 * p1)

    @pytest.mark.parametrize("eta1", [0.0, 5e-324, 1e-320, 1e-20])
    def test_tiny_eta1_warns_nothing(self, eta1):
        # with eta1 = 0, p1 is p1(0) at every chi, so no target is reachable; with a tiny
        # eta1, 0.5 and 1e-3 are above p1(1 - 1e-12) (1.0e-8 at 1e-20), and a Newton step
        # towards that top may not be finite, and bisects
        p = ModelParams(eta1=eta1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi = chi_from_p1(p, [0.5, 1e-3, p1_of_chi(p, model_fit._CHI_MAX)])
        np.testing.assert_array_equal(chi, [np.nan, np.nan,
                                            np.nan if eta1 == 0.0 else model_fit._CHI_MAX])

    def test_nan_at_or_below_floor(self):
        p = ModelParams(bg1_incoherent=1e-3)
        floor = float(p1_of_chi(p, 0.0))
        assert np.isnan(chi_from_p1(p, [floor, floor * 0.5, 0.0])).all()
        assert chi_from_p1(p, [floor * 1.001])[0] > 0

    def test_correction_below_an_ulp_is_converged(self, monkeypatch):
        # Newton reaches this root from above in 5 steps; its last correction, below an ulp,
        # lands on the bracket's upper end, which once restarted it by bisection (45 steps)
        p = ModelParams(bg1_coherent=2e-3, bg2_coherent=1.3e-2, bg1_incoherent=1e-5,
                        bg2_incoherent=1e-5)
        target, calls = 0.660998372958884, []
        monkeypatch.setattr(model_fit, "p1_of_chi",
                            lambda params, chi: calls.append(1) or p1_of_chi(params, chi))
        chi = chi_from_p1(p, [target])
        assert len(calls) <= 8
        assert p1_of_chi(p, chi)[0] == pytest.approx(target, rel=1e-14)

    def test_step_outside_the_bracket_bisects(self, monkeypatch):
        # just above p1's floor, at p1's resolution, Newton's third step here falls outside
        # the bracket, by then an ulp wide; bisecting there ends the inversion, where steps
        # let out of the bracket ran all 100 iterations
        p = ModelParams(bg1_coherent=0.001032030425134967, bg1_incoherent=0.007231596946306045,
                        eta1=0.043249719552409714)
        root, calls = 3.726528312953501e-07, []
        target = float(p1_of_chi(p, root))
        monkeypatch.setattr(model_fit, "p1_of_chi",
                            lambda params, chi: calls.append(1) or p1_of_chi(params, chi))
        chi = chi_from_p1(p, [target])
        assert len(calls) <= 8
        assert chi[0] == pytest.approx(root, rel=1e-9)

    def test_few_evaluations_per_target(self, monkeypatch):
        # the start, on the tangent at chi = 0, and the exact dp1/dchi keep Newton short:
        # 4.13 evaluations a target here, p1(0) included, one target at a time
        calls, n = [], 0
        monkeypatch.setattr(model_fit, "p1_of_chi",
                            lambda params, chi: calls.append(1) or p1_of_chi(params, chi))
        chis = np.concatenate([np.geomspace(1e-9, 0.999, 50), 1 - np.geomspace(1e-3, 1e-11, 20)])
        for seed in range(20):
            p = random_params(np.random.default_rng(seed))
            for target in p1_of_chi(p, chis).tolist():
                chi_from_p1(p, [target])
                n += 1
        assert len(calls) <= 4.3 * n

    def test_nan_above_top_of_bracket(self):
        # p1(1 - 1e-12), the top of the model's range, inverts to 1 - 1e-12; above it is NaN
        top = p1_of_chi(PAPER_REGIME, model_fit._CHI_MAX)
        np.testing.assert_array_equal(chi_from_p1(PAPER_REGIME, [top, np.nextafter(top, 2), 1.0]),
                                      [model_fit._CHI_MAX, np.nan, np.nan])

    def test_one_inversion_per_parameter_point(self, monkeypatch):
        # the lock-step solver takes a start's Jacobian at the point of its last residuals:
        # p1 -> chi runs once per start there, one row of an inversion over the pass's starts
        rows, points = [], set()   # rows inverted; (start, x) of every residual or Jacobian row
        invert = model_fit.chi_from_p1
        monkeypatch.setattr(model_fit, "chi_from_p1",
                            lambda *args: rows.append(len(chi := invert(*args))) or chi)
        for name in ("residuals", "jacobian"):
            method = getattr(_Problem, name)
            monkeypatch.setattr(_Problem, name, lambda self, x, method=method: points.update(
                map(tuple, x.tolist())) or method(self, x))   # no two starts share an x here
        res = fit(criterion_9_dataset(), n_starts=2, seed=1)
        assert sum(s.nfev for s in res.starts) > len(points)
        assert sum(rows) == len(points)


class TestFitBounds:
    def test_init_on_and_outside_bounds(self):
        ds = exact_dataset(PAPER_REGIME, [1e-3, 1e-2, 1e-1])
        init = {"bg1_coherent": 5.0, "bg2_coherent": 0.0, "bg1_incoherent": 1e-9,
                "bg2_incoherent": 1e-5, "retrieval_eff": 1.0}
        res = fit(ds, init=init, n_starts=1, seed=0)
        assert len(res.starts) == 2 and np.isfinite(res.objective)
        for name in DEFAULT_FREE:
            lo, hi = DEFAULT_BOUNDS[name]
            assert lo <= res.value(name) <= hi, name

    @pytest.mark.parametrize("n_starts, init", [(0, None), (-1, None),
                                                (-1, {"retrieval_eff": 0.5})])
    def test_no_start_rejected(self, n_starts, init):
        ds = exact_dataset(PAPER_REGIME, [1e-3, 1e-2, 1e-1])
        if init is not None:
            init = {name: DEFAULT_BOUNDS[name][0] for name in DEFAULT_FREE} | init
        with pytest.raises(ValueError, match="n_starts"):
            fit(ds, init=init, n_starts=n_starts)

    @pytest.mark.parametrize("name, bound", [
        ("retrieval_eff", (0.01, 2.0)), ("retrieval_eff", (-0.1, 1.0)),
        ("bg1_coherent", (0.0, 1.0)), ("bg2_coherent", (math.nan, 1.0)),
        ("bg1_incoherent", (1e-9, math.inf)), ("bg2_incoherent", (1e-3, 1e-4)),
        ("bg2_incoherent", (1e-4, 1e-4))])
    def test_bad_bounds_rejected(self, name, bound):
        ds = exact_dataset(PAPER_REGIME, [1e-3, 1e-2, 1e-1])
        with pytest.raises(ValueError, match=f"bounds of {name}"):
            fit(ds, bounds={name: bound}, n_starts=1)

    def test_init_alone_is_one_start(self):
        ds = exact_dataset(PAPER_REGIME, [1e-3, 1e-2, 1e-1])
        init = {name: DEFAULT_BOUNDS[name][0] for name in DEFAULT_FREE}
        assert len(fit(ds, init=init, n_starts=0).starts) == 1

    def test_start_diagnostics(self):
        ds = exact_dataset(PAPER_REGIME, np.geomspace(1e-3, 0.2, 8).tolist())
        res = fit(ds, n_starts=2, seed=4)
        assert res.start_objectives == tuple(s.objective for s in res.starts)
        assert res.objective == min(res.start_objectives)
        assert all(s.nfev > 0 for s in res.starts)
        assert res.converged == (res.starts[res.start_objectives.index(res.objective)].status > 0)
        assert sum(res.chi2.values()) == pytest.approx(res.objective, rel=1e-12, abs=1e-300)


def one_start(fun, jac, x0, lo, hi, max_iter=200):
    """`_least_squares` of one start, a block of one: (x, fun(x), jac(x), status)."""
    x, r, J, status, _ = _least_squares(lambda x: fun(x[0])[None], lambda x: jac(x[0])[None],
                                        x0[None], lo, hi, max_iter)
    return x[0], r[0], J[0], status[0]


class TestLeastSquares:
    """The bounded Levenberg-Marquardt solver on problems with known answers."""

    A = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, -0.4]])
    B = np.array([1.0, 2.0, 0.5])

    def test_linear_minimum_on_a_bound(self):
        hi = 0.5
        free_min = np.linalg.lstsq(self.A, self.B, rcond=None)[0]
        assert free_min[1] > hi   # so the bounded minimum holds x1 at its upper bound
        a0, a1 = self.A.T
        x0_at_bound = a0 @ (self.B - a1 * hi) / (a0 @ a0)
        x, r, J, status = one_start(lambda x: self.A @ x - self.B, lambda x: self.A,
                                         np.zeros(2), np.array([-5.0, -5.0]), np.array([5.0, hi]))
        assert status > 0
        assert x[1] == hi
        assert x[0] == pytest.approx(x0_at_bound, rel=1e-10)
        assert np.array_equal(r, self.A @ x - self.B) and np.array_equal(J, self.A)

    def test_zero_jacobian_column(self):
        # x1 does not enter the residuals: a rank-deficient J, solved without a special case
        J = np.column_stack([self.A[:, 0], np.zeros(3)])
        x, r, _, status = one_start(lambda x: J @ x - self.B, lambda x: J,
                                         np.array([0.0, 0.3]), np.full(2, -5.0), np.full(2, 5.0))
        assert status > 0 and np.all(np.isfinite(x))
        assert x[1] == 0.3
        assert x[0] == pytest.approx(self.A[:, 0] @ self.B / (self.A[:, 0] @ self.A[:, 0]),
                                     rel=1e-10)

    @staticmethod
    def rosenbrock(max_iter):
        def fun(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        return one_start(fun, jac, np.array([-1.2, 1.0]), np.full(2, -3.0), np.full(2, 3.0),
                              max_iter=max_iter)

    def test_status_zero_at_the_iteration_limit(self):
        assert self.rosenbrock(2)[3] == 0
        x, _, _, status = self.rosenbrock(200)
        assert status > 0 and x == pytest.approx([1.0, 1.0], abs=1e-8)


def benchmark_style_dataset():
    """Twelve points of g12, qc, p12 and w against p1: the model plus one fixed draw of
    Gaussian noise at the SEs of 1.32e7 trials per point, w left out where fewer than 20
    triples are expected, rows shuffled."""
    rng = np.random.default_rng(9)
    n = 44_000 * 300
    pts = []
    for chi in np.geomspace(3e-4, 0.3, 12):
        p = PAPER_REGIME.with_chi(float(chi))
        s = click_statistics(p, DetectionConfig(DetectionMode.SINGLE))
        triple = click_statistics(p, DetectionConfig(DetectionMode.SPLIT)).p1_2a_2b
        m = full_metrics(p)
        z = rng.standard_normal(5)
        pc = s.p12 / s.p1
        se = {"p1": math.sqrt(s.p1 * (1 - s.p1) / n),
              "g12": m.g12 / math.sqrt(n * s.p12),
              "qc": math.sqrt(pc * (1 - pc) / (n * s.p1)) / p.eta2,
              "p12": math.sqrt(s.p12 * (1 - s.p12) / n),
              "w": m.w / math.sqrt(n * triple) if n * triple >= 20 else math.nan}
        true = {"p1": s.p1, "g12": m.g12, "qc": m.qc, "p12": s.p12, "w": m.w}
        values = {}
        for k, zk in zip(("p1", "g12", "qc", "p12", "w"), z):
            values[k] = true[k] + se[k] * float(zk) if math.isfinite(se[k]) else math.nan
            values[k + "_se"] = se[k]
        pts.append(DataPoint(**values))
    return Dataset([pts[i] for i in np.random.default_rng(1).permutation(len(pts))])


@pytest.mark.parametrize("factor", [1.01, 1e3])
@pytest.mark.parametrize("col", ["g12", "p12", "qc", "w"])
def test_fit_near_the_se_floor_warns_nothing(col, factor):
    # one SE a little above its value's resolution, at the lowest p1 that has the observable:
    # nearest the model's p1 floor, where the model's sensitivity to the backgrounds is largest
    ds = benchmark_style_dataset()
    pt = min((pt for pt in ds.points if math.isfinite(getattr(pt, col))), key=lambda pt: pt.p1)
    v = getattr(pt, col)
    x, unit = (math.log(v), v) if col in ("g12", "p12") else (v, 1.0)
    se = factor * 2.0 ** -52 * max(1.0, abs(x)) * unit
    setattr(pt, col + "_se", se)
    ds = dataset_from_csv(dataset_to_csv(ds))   # the file's rule keeps it
    assert se in [getattr(p, col + "_se") for p in ds.points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(ds, base=PAPER_REGIME, n_starts=1, seed=0)
    assert math.isfinite(res.objective)


def test_fit_above_the_models_range_is_penalty():
    # with eta1 = 1e-20 no point's p1 is reachable, at any start: PENALTY on all 41 residuals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(benchmark_style_dataset(), base=ModelParams(eta1=1e-20), n_starts=2, seed=1)
    assert res.n_residuals == 41
    assert res.objective == 41 * PENALTY ** 2


class TestFitRobustness:
    def test_every_start_reaches_the_minimum(self):
        # starts that land next to a PENALTY cliff, where the gradient is ~1e6 and a
        # 1e-4 step makes points unreachable, must still reach the one minimum
        ds = benchmark_style_dataset()
        objectives = [s.objective for seed in range(5)
                      for s in fit(ds, n_starts=8, seed=seed).starts]
        assert len(objectives) == 40
        assert max(objectives) <= min(objectives) * (1 + 1e-6)

    @staticmethod
    def panel(monkeypatch, block):
        """The 40-start panel with the starts advanced `block` at a time."""
        monkeypatch.setattr(model_fit, "_BLOCK", block)
        ds = benchmark_style_dataset()
        return [s for seed in range(5) for s in fit(ds, n_starts=8, seed=seed).starts]

    def test_block_size_does_not_change_a_start(self, monkeypatch):
        alone = self.panel(monkeypatch, 1)
        for block in (3, 64):
            for a, b in zip(alone, self.panel(monkeypatch, block), strict=True):
                assert b.status == a.status
                assert b.objective == pytest.approx(a.objective, rel=1e-10, abs=0)

    def test_nfev_counts_the_passes_a_start_took_part_in(self, monkeypatch):
        # run one start at a time, each row of a pass names its start; then count, per start,
        # the lock-step passes with a row of that start
        passes, table, solve = [], _Problem.table, model_fit._least_squares
        monkeypatch.setattr(_Problem, "table", lambda self, free, perturbed=None: passes.append(
            list(zip(*(np.ravel(v).tolist() for v in free.values())))) or table(self, free, perturbed))
        monkeypatch.setattr(model_fit, "_least_squares", lambda *args: passes.append(None) or solve(*args))
        ds, owner, start = benchmark_style_dataset(), {}, -1
        monkeypatch.setattr(model_fit, "_BLOCK", 1)
        fit(ds, n_starts=8, seed=0)
        for rows in passes:
            start += rows is None
            for row in rows or ():
                assert owner.setdefault(row, start) == start
        del passes[:]
        monkeypatch.setattr(model_fit, "_BLOCK", 64)
        res = fit(ds, n_starts=8, seed=0)
        assert passes[0] is None and None not in passes[1:]   # one block
        taken = [owner[row] for rows in passes[1:] for row in set(rows)]
        assert all(len(set(rows)) == len(rows) for rows in passes[1:])
        assert [taken.count(i) for i in range(8)] == [s.nfev for s in res.starts]
        assert max(len(rows) for rows in passes[1:]) == 8

    def test_chi2_per_point(self):
        ds = benchmark_style_dataset()
        res = fit(ds, n_starts=2, seed=1)
        assert len(res.chi2_points) == len(ds)
        assert all(v > 0 for v in res.chi2_points)
        assert math.fsum(res.chi2_points) == pytest.approx(res.objective, rel=1e-12)
