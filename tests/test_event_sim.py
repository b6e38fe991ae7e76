import dataclasses
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
import sampler_reference
from conftest import joined, random_params, session_bytes

from dlczsim import (DetectionConfig, DetectionMode, Detector, ModelParams,
                     SessionSpec, TrialSchedule, click_statistics,
                     sample_trial, simulate_clicks)
from dlczsim.correlator import CountTable, accumulate_clicks
from dlczsim import event_sim
from dlczsim.event_sim import _limits, _word_limit, session_chunks
from dlczsim.records_io import CSV


def empirical_vs_analytic(params, mode, n_trials, seed):
    spec = SessionSpec(params=params, config=DetectionConfig(mode),
                       n_trials=n_trials, seed=seed)
    table = CountTable(mode=mode)
    for _, clicks in simulate_clicks(spec):
        table = accumulate_clicks(table, clicks)
    ana = click_statistics(params, DetectionConfig(mode)).as_dict()
    if mode is DetectionMode.SINGLE:
        emp = {"p1": table.n1, "p2": table.n2, "p12": table.n12}
    else:
        emp = {"p1": table.n1, "p2a": table.n2a, "p2b": table.n2b,
               "p1_2a": table.n1_2a, "p1_2b": table.n1_2b,
               "p2a_2b": table.n2a_2b, "p1_2a_2b": table.n1_2a_2b}
    emp = {k: v / n_trials for k, v in emp.items()}
    return emp, ana, table


def test_vacuum_never_clicks():
    spec = SessionSpec(params=ModelParams(chi=0.0), n_trials=5000, seed=3)
    assert all(len(trial) == 0 for trial, _, _ in session_chunks(spec))
    assert len(session_bytes(spec)) == 49   # the header alone


def test_empty_session():
    spec = SessionSpec(params=ModelParams(), n_trials=0, seed=0)
    assert list(session_chunks(spec)) == []
    data = session_bytes(spec)
    assert len(data) == 49 and data[8:24] == bytes(16)   # the header alone, of 0 trials


def test_sample_trial_matches_stream():
    p = ModelParams(chi=0.2, bg1_incoherent=0.05, bg2_incoherent=0.05)
    spec = SessionSpec(params=p, config=DetectionConfig(DetectionMode.SPLIT),
                       n_trials=200, seed=11)
    trials, dets, _ = joined(session_chunks(spec))
    by_trial = {}
    for trial, det in zip(trials.tolist(), dets.tolist()):
        by_trial.setdefault(trial, set()).add(Detector(det))
    for t in range(200):
        assert sample_trial(spec, t) == by_trial.get(t, set())


def test_heralding_is_perfect_without_loss():
    # unit efficiencies: every herald is accompanied by a field-2 click
    p = ModelParams(chi=0.01, eta1=1, eta2_path=1, eta_apd=1, retrieval_eff=1)
    emp, ana, table = empirical_vs_analytic(p, DetectionMode.SINGLE, 1_000_000, seed=5)
    assert table.n12 == table.n1 == table.n2
    se = np.sqrt(ana["p1"] * (1 - ana["p1"]) / 1_000_000)
    assert abs(emp["p1"] - ana["p1"]) <= 4 * se


def test_backgrounds_only_uncorrelated():
    p = ModelParams(chi=0.0, bg1_incoherent=0.01, bg2_incoherent=0.01)
    emp, ana, table = empirical_vs_analytic(p, DetectionMode.SINGLE, 1_000_000, seed=6)
    n = 1_000_000
    g12_hat = table.n12 * n / (table.n1 * table.n2)
    # SE of g12 ~ 1/sqrt(N12) at independence
    assert abs(g12_hat - 1.0) <= 4 / np.sqrt(max(table.n12, 1))


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_distribution_matches_analytic(mode):
    p = ModelParams(chi=0.05, bg1_coherent=0.01, bg2_coherent=0.02,
                    bg1_incoherent=1e-3, bg2_incoherent=2e-3)
    n = 2_000_000
    emp, ana, _ = empirical_vs_analytic(p, mode, n, seed=7)
    for k, v in emp.items():
        se = max(np.sqrt(ana[k] * (1 - ana[k]) / n), 1e-12)
        assert abs(v - ana[k]) <= 4 * se, k


def test_chunking_never_changes_output():
    p = ModelParams(chi=0.05, bg1_incoherent=1e-3, bg2_incoherent=1e-3)
    spec = SessionSpec(params=p, config=DetectionConfig(DetectionMode.SPLIT),
                       n_trials=30_000, seed=9)
    buffers = [session_bytes(spec, unit=u) for u in (30_000, 4096, 997, 1)]
    assert buffers[0] == buffers[1] == buffers[2] == buffers[3]


PIN_CHIS = (0.0, 1e-9, 1e-2, 0.3, 0.95)


def pin_params():
    """The fixed-chi sets, then 10 random ones (chi up to 0.95)."""
    rng = np.random.default_rng(4)
    bg = dict(bg1_incoherent=1e-3, bg2_incoherent=2e-3, bg1_coherent=1e-2, bg2_coherent=1e-2)
    return ([ModelParams(chi=c, **bg) for c in PIN_CHIS]
            + [random_params(rng, chi_max=0.95) for _ in range(10)])


# SHA-256 of the PDR1 files of 20 000 trials per parameter set (seed 100 + index),
# captured from the sampler that drew integers and computed every trial's pair number
RECORD_DIGESTS = {
    DetectionMode.SINGLE: [
        "b0b93cff528c8119923376f69f8ccb3a59a940a9202e643ad6185fde90f18523",
        "50aa4a240f93081f183cd6bdf9de8d839f2908ae452a68da9e5a1bd002d31956",
        "80213062c6fd2b8a96b62aa5f80daf02ccb4f6109cfa854893b99780b2de9d70",
        "b2c705c3c1013264e12a1a0ed52f9bc91e760507ae1e3d7beca41d37a6dd9b06",
        "100a1ce930cab137182b131eb26379655cd817d84cf4472366da52c481acb3f0",
        "a17f83ecac1dea1bcd5f48e68e363a9f2613e8c922b653189b6a8a47ced64bd3",
        "89e6af037e969f94c0fbb7b1b73085d4622ab574693d43aa66471101d4a98da9",
        "57c3b920e88f98ec7f35e13452d30c2c18896f59561f6450d46b2cf585d2d4de",
        "1d9e60bf035989ee4366f778d5b564fc1c9ed774be0d3fbba3e5cb78509a73f4",
        "e1cfd59d13918142df383b5327dfc367fa4cc822b749fce6f2f1c2b31488cb2c",
        "7e5b629e9c12c14819d9e8e60d7ed2c4ef244154acec75351412954f771d14f8",
        "93aacea2aa0eb73fea0c5e7ec6379d8798e586600fe4c96414b886930f115214",
        "bd510aabe0e7c447ec6b96fd7086b08b676b56bd277687115a3a91fc63ef56ba",
        "a166ca7d37187cc3e7ba67757ca16562d53d0304bfa13889f117ab7b831191e2",
        "07482e62bdca5b7a548ffdfa8046c3b008b07822b0bc25629eb4a1a0c3b47876",
    ],
    DetectionMode.SPLIT: [
        "59f246cb6756a51ce984e98b5ce8f15476545c0933dd1f26b453004ab8d5a06b",
        "3bf5d2c6a1085470e4467863259b311a75b0cb14be5a606beaa901ad86b30ccf",
        "e05477c3ca0974a97ba7fa71e74c955948a94315c95f78848923b64aa0359067",
        "37578dd926ce02b56dc4926fd3acd98513c821859928bcd2ae67011eb9de81f1",
        "e32eedde8c176ccabb56834b1a2d613435435f9aa5ddb56e4626cd66d5bf2d8e",
        "364a6d3ff122f11f60812fbfb699eccc39a98b67d4f52f0fd33105258e3c05ca",
        "d24163c6f806825201a3090390b625876ba36657268d2142cf1a851a9e8be81b",
        "4644adff5fc190585430ffcd0be5b04e4bf7d96997f94883788c2822a0b0e387",
        "8cad685146f2c9521b2069e4c083fbfd8081fafe13dac4de2110c31efb7d2ed7",
        "7bd69c9cc722825130adaa0538fe9349f9a430c3ea5dc8b6c3b57a50da26b466",
        "478488ee7325e2960af9831c486e147dd63b5ea584c8c2c1888e7918f86a6b5f",
        "2f6a8baa636805a40393f4ab0d1614a50e55ebe0e791bac292655400847cdbf8",
        "bd129ccb460e8dcca51156fc91d601979f0bb811e1d3049014a83aeea46849fc",
        "ad3fb8fb64a625606157a249de0a7fcba6e969487da769991b14cf6d709c9e73",
        "80dd3e0a9f7783a65d045a13cb3622ca1353210d0cf0746f4746186c0a092d9a",
    ],
}


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_records_pinned(mode):
    for i, (p, digest) in enumerate(zip(pin_params(), RECORD_DIGESTS[mode], strict=True)):
        spec = SessionSpec(params=p, config=DetectionConfig(mode), n_trials=20_000,
                           seed=100 + i)
        data = session_bytes(spec)
        count = (len(data) - 49) // 13
        assert data[:49] == (b"PDR2" + (2).to_bytes(4, "little") + (20_000).to_bytes(16, "little")
                             + bytes([mode is DetectionMode.SPLIT])
                             + (100 + i).to_bytes(16, "little") + count.to_bytes(8, "little"))
        # the record section, behind the PDR1 header it was pinned with
        v1 = b"PDR1" + (1).to_bytes(4, "little") + count.to_bytes(8, "little") + data[49:]
        assert hashlib.sha256(v1).hexdigest() == digest, p


# SHA-256 of the CSV records of the same sessions, captured from the per-record CSV writer
CSV_DIGESTS = {
    DetectionMode.SINGLE: [
        "d06c0e6f192742f8aebcd28f25efcd5b1c23d49f1af873989228fc3460d8a571",
        "e6b23075e3df2de88cc0523ac4fe6c57ab565abf2c9c0ad476bb56c4b4d0d73f",
        "f42d283231a5bac1a924f0ea67bbbe2e9aafe519c1e7fa29a9266ef9f7542c8b",
        "f834e47ffe82fa5355dffcf99e81264f85d797448d3e961846ba8e5d1a1f6dd8",
        "f39f1b4a70935d99b7f7c5c9c9260601ff1d80d7f4ad1e6f3306e5b2c16df07c",
        "d5ac0af3c743e32dded5498ac5e4500069696134caf0182282f0fb9a01ae8c9e",
        "1790f7cd81ccd8bc52615ac6bfa2be2ea3e0ddbc50b871be2481f9dc6d788574",
        "0b8980189dedea264abac9a14ac00023057cbd50d987847260867a467f8cfb05",
        "4f9a537a91337bb03a17a5b9039b335031d8f0136182276d0d9c270ded2f8c52",
        "dedfb9ce85bc24470e88e244ffb4cc48f94e618b3720489f0875d803f9337ece",
        "edd596b3d8a3b5a1b289251870d00eff18c455062097e0bef7fb7a947e8852c9",
        "35f2d25642bb40e4671f3940f3adf938e83cc35466b81d139e4ac935da8ee41f",
        "9b8f1418463d42934f9c1970944a166bbff29c57ece610732feba6e3c11e18de",
        "a66b0d526263fcfd753a779dcda1bb0911008c599447c517b8a7bb3c49743085",
        "967683b49e074b185f6d0c6390e7ee583a424a0e97b2af6d2e8044dddb478038",
    ],
    DetectionMode.SPLIT: [
        "1b8430774140f2cebfd5895e79245ceaa647597eb899b824457969d2e3702b06",
        "8ec0f839567ead55ea0d84378d4a43b05c689c651df005aa4184b3ceb0c82621",
        "308eb9c6c5c83f7ce457e792501ebdfc27d1ce8d2f900c6628040573e6c69fdd",
        "6be6b141af55c2bd0564088793b25d037fc5ae1ec2940739e190a0fdf4bc38f4",
        "f76e6931ebe4faeab40f35ca6310836a36fb2896c6fb240a4edf8234c84d31aa",
        "a6d08779f7f01e74e8a56ddbd226985b2a6dcb5726eedffea597b0e8c93766f3",
        "5495cbde097a37b7ce737f3d4bacc0daa146d1ac17a1db4f7001156c2498cc56",
        "9117df94408b5d5607363416b0714925bd36c68534f7b947f93aa04f79e70d13",
        "2051fc66a4c6ccf99a9505acbbda53dfcc99d75c554d52003f3e02e660290d70",
        "6bde0e6983a6a024cd17e91c174df714976f3fec3d709438bc936d6d5c438f4b",
        "2a88832f7ea7cd5068565132ab2fd15bec7eef650171fbf153587277c8923d92",
        "a7ed360cf88fb25644219d91f613871b93d019496b123da53cc3fa978499c3f1",
        "d6d752a91a2b762556045c01327799bfbe96bc43701bc0f989a8e3282c39b60e",
        "d943e083e5d9a670553bc35423385d3d0e530c9eb58937245d64f6cf65fd72a8",
        "91988499c68b360a12ce7b7ebf02ae1eceeabbac8418be2b1c63e2eda184b978",
    ],
}


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_csv_records_pinned(mode):
    for i, (p, digest) in enumerate(zip(pin_params(), CSV_DIGESTS[mode], strict=True)):
        spec = SessionSpec(params=p, config=DetectionConfig(mode), n_trials=20_000,
                           seed=100 + i)
        first, _, rest = session_bytes(spec, CSV).partition(b"\n")
        assert first == f"# dlczsim records v2 n_trials=20000 mode={mode.value} seed={100 + i}".encode()
        # the column header and the rows, as pinned without the first line
        assert hashlib.sha256(rest).hexdigest() == digest, p


@pytest.mark.parametrize("chi", [1e-300, 1e-17, 1.1e-16, 1e-16, 3e-16, 1e-12, 1e-9,
                                 1e-6, 1e-2, 0.3, 0.5, 0.7, 0.95, 0.999999])
def test_trials_left_out_have_no_pair(chi):
    # word 0 of a trial is kept when w0 >= cut.  Take the 2**18 largest words below
    # the cut, the largest word of each of the 2**18 largest uniforms below it, and a
    # coarse grid over all words
    cut = _limits(SessionSpec(params=ModelParams(chi=chi)))[1]
    m = cut >> 11
    words = np.concatenate([np.arange(max(cut - 2 ** 18, 0), cut, dtype=np.uint64),
                            np.arange(max(m - 2 ** 18, 0), m, dtype=np.uint64) << 11 | 0x7ff,
                            np.linspace(0, 2.0 ** 64 - 2 ** 11, 2 ** 16).astype(np.uint64)])
    left_out = words < cut
    below = len(words) - 2 ** 16
    assert left_out[:below].all()
    u0 = (words >> 11) * 2.0 ** -53
    n = np.floor(np.log1p(-u0) / np.log(chi))
    assert np.all(n[left_out] == 0)
    # the superset stays tight: it admits at most 1e-5 relative more trials than n > 0
    assert 1.0 - m * 2.0 ** -53 <= chi * (1.0 + 1e-5) + 2.0 ** -52


# the last two are the background thresholds of means 0 and 800 (1 - exp(-800) is 1.0)
THRESHOLDS = {"negative": -0.5, "zero": 0.0, "least-subnormal": 5e-324,
              "subnormal": 2.0 ** -1074 * 3, "2^-53": 2.0 ** -53, "half": 0.5,
              "1-2^-53": 1.0 - 2.0 ** -53, "one": 1.0,
              "background-0": 1.0 - np.exp(-0.0), "background-800": 1.0 - np.exp(-800.0)}


@pytest.mark.parametrize("t", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_word_limit_is_the_uniform_test(t):
    m = math.ceil(t * 2.0 ** 53)
    ks = [k for k in (m - 1, m, m + 1) if 0 <= k < 2 ** 53]
    words = [0, 2 ** 64 - 1, *(k << 11 for k in ks), *(k << 11 | 0x7ff for k in ks)]
    expected = [(w >> 11) * 2.0 ** -53 < t for w in words]
    assert (np.array(words, np.uint64) < _word_limit(t)).tolist() == expected


def test_background_limits_at_the_extremes():
    # channel D1 carries a background mean of 800, so 1 - exp(-800) is 1.0: every word
    # passes; D2's mean is 0, so none does
    spec = SessionSpec(params=ModelParams(chi=0.1, bg1_incoherent=800.0), n_trials=3000, seed=2)
    assert _limits(spec)[0] == [2 ** 64, 0]
    codes = np.concatenate([c for _, c in simulate_clicks(spec)])
    assert np.all(codes & 1) and np.any(codes & 2)


UNIT_EFFS = dict(eta1=1, eta2_path=1, eta_apd=1, retrieval_eff=1, bs_transmission=1)
EDGE_PARAMS = {"chi-0.999999": dict(chi=0.999999), "effs-0": dict(chi=0.3, eta1=0, eta2_path=0),
               "effs-1": dict(chi=0.3, **UNIT_EFFS),   # split: p00's base 1 - 0.5 - 0.5 is 0
               "effs-1-one-arm": dict(chi=0.95, bs_ratio=1.0, **UNIT_EFFS)}


@pytest.mark.parametrize("mode", list(DetectionMode))
@pytest.mark.parametrize("kw", EDGE_PARAMS.values(), ids=EDGE_PARAMS.keys())
def test_power_tables_match_direct_powers(mode, kw):
    # one trial, a unit whose max n is large against its ~100 pair rows (direct powers at
    # chi = 0.95), and a whole unit (tables, but direct powers at chi = 0.999999)
    spec = SessionSpec(params=ModelParams(bg1_incoherent=1e-3, bg2_incoherent=2e-3, **kw),
                       config=DetectionConfig(mode), seed=3)
    limits = _limits(spec)
    for start, count in ((0, 1), (5, 100), (1000, event_sim._UNIT)):
        codes = event_sim._sample_clicks(spec, limits, start, count)
        assert np.array_equal(codes, sampler_reference.sample_clicks(spec, limits, start, count))


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_power_tables_stay_bounded(mode):
    # near chi = 1, n reaches ~1e7: a table up to n's max would take tens of MB, where a
    # unit's words take 1 MiB
    spec = SessionSpec(params=ModelParams(chi=0.999999), config=DetectionConfig(mode), seed=3)
    limits = _limits(spec)
    tracemalloc.start()
    try:
        event_sim._sample_clicks(spec, limits, 0, event_sim._UNIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * event_sim._UNIT * event_sim._DRAWS_PER_TRIAL * 8, peak


def set_cpus(monkeypatch, n):
    """Make the sampler see an affinity of n CPUs."""
    monkeypatch.setattr(event_sim.os, "sched_getaffinity", lambda pid: set(range(n)))


WORKER_SPEC = SessionSpec(params=ModelParams(chi=0.3, bg1_incoherent=1e-2, bg2_incoherent=1e-2),
                          config=DetectionConfig(DetectionMode.SPLIT),
                          n_trials=2 ** 16 + 5, seed=21)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_worker_count_never_changes_output(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    assert event_sim.sampler_workers(WORKER_SPEC.n_trials) == cpus
    for unit in (1, 997, 2 ** 12, 2 ** 14 + 3, 2 ** 19):
        # a unit of one trial draws a Philox stream per trial: it samples a shorter session
        spec = dataclasses.replace(WORKER_SPEC, n_trials=2 ** 12 + 5) if unit == 1 else WORKER_SPEC
        # the reference: every word of the session drawn at once, as one unit, inline
        reference = event_sim._sample_clicks(spec, _limits(spec), 0, spec.n_trials)
        records = session_bytes(spec, unit=spec.n_trials)
        monkeypatch.setattr(event_sim, "_UNIT", unit)
        chunks = list(simulate_clicks(spec))
        assert [s for s, _ in chunks] == list(range(0, spec.n_trials, 4 * unit))
        assert np.array_equal(np.concatenate([c for _, c in chunks]), reference), unit
        assert session_bytes(spec) == records, unit


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_no_more_threads_than_cpus(monkeypatch, cpus):
    started, before, start = [], threading.active_count(), threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    set_cpus(monkeypatch, cpus)
    spec = dataclasses.replace(WORKER_SPEC, n_trials=4 * event_sim._UNIT)   # 4 work units
    alive = [threading.active_count() for _ in simulate_clicks(spec)]
    if cpus == 1:   # inline: no thread at all
        assert not started and set(alive) == {before}
    else:
        assert 0 < len(started) <= cpus and max(alive) <= before + cpus
    assert threading.active_count() == before   # the pool is shut down


@pytest.mark.parametrize("cpus", [1, 2])
def test_large_chunk_memory_is_bounded(monkeypatch, cpus):
    # one chunk of four 2**19-trial units: its 2 MiB of codes, plus at most twice a unit's
    # words (32 MiB) for each unit in flight, its words and their temporaries (the units'
    # codes, 2 MiB while the chunk joins them, fit in that margin)
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(event_sim, "_UNIT", 2 ** 19)
    spec = dataclasses.replace(WORKER_SPEC, n_trials=2 ** 21)
    tracemalloc.start()
    try:
        (start, codes), = simulate_clicks(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert start == 0 and len(codes) == 2 ** 21
    assert peak < 2 ** 21 + (cpus + 1) * 2 * event_sim._UNIT * event_sim._DRAWS_PER_TRIAL * 8, peak


def test_yielded_chunks_are_not_overwritten(monkeypatch):
    monkeypatch.setattr(event_sim, "_UNIT", 250)   # chunks of 1000 trials
    p = ModelParams(chi=0.3, bg1_incoherent=1e-2, bg2_incoherent=1e-2)
    spec = SessionSpec(params=p, config=DetectionConfig(DetectionMode.SPLIT),
                       n_trials=10_000, seed=12)
    kept = list(simulate_clicks(spec))
    fresh = [(start, codes.copy()) for start, codes in simulate_clicks(spec)]
    assert len(kept) == len(fresh) == 10
    for (s1, c1), (s2, c2) in zip(kept, fresh):
        assert s1 == s2
        assert c1.dtype == np.uint8 and np.array_equal(c1, c2)
    # chunks differ from each other, so an alias would have shown
    assert not np.array_equal(kept[0][1], kept[-1][1])


def test_seed_changes_output():
    p = ModelParams(chi=0.05)
    a, b = (joined(session_chunks(SessionSpec(params=p, n_trials=50_000, seed=seed)))[0]
            for seed in (1, 2))
    assert not np.array_equal(a, b)


def test_schedule_spans_one_second():
    sched = TrialSchedule()
    assert sched.trials_per_second == 44_000
    # the last trial of 44000 sits in window 39; windows recur at 40 Hz
    t_last = sched.trial_start_ns(43_999)
    assert 39 * 25e6 <= t_last < 40 * 25e6
    assert sched.trial_start_ns(0) == 0


def test_records_fall_inside_active_window():
    p = ModelParams(chi=0.1, bg1_incoherent=0.01)
    spec = SessionSpec(params=p, n_trials=5000, seed=4)
    trial_index, _, offset_ns = joined(session_chunks(spec))
    sched = spec.schedule
    abs_ns = sched.trial_start_ns(trial_index.astype(np.int64)) + offset_ns
    window_period = 1e9 / sched.mot_rate_hz
    within = abs_ns % window_period
    assert np.all(within < sched.window_ms * 1e6)


def test_click_timestamps():
    p = ModelParams(chi=0.3, bg1_incoherent=0.1, bg2_incoherent=0.1)
    spec = SessionSpec(params=p, n_trials=2000, seed=8)
    _, detector_id, offset_ns = joined(session_chunks(spec))
    d1 = detector_id == int(Detector.D1)
    assert np.all(offset_ns[d1] == spec.schedule.write_offset_ns)
    assert np.all(offset_ns[~d1]
                  == spec.schedule.write_offset_ns + spec.schedule.read_delay_ns)


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrialSchedule(trials_per_window=3000)  # burst longer than the window
    with pytest.raises(ValueError):
        TrialSchedule(read_delay_ns=2500)
