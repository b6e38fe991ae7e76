import pytest

from dlczsim.params import (DETECTORS, DetectionConfig, DetectionMode, Detector, ModelParams,
                            params_from_text, schedule_from_text)


def test_detector_labels_round_trip():
    assert [d.label for d in Detector] == ["D1", "D2", "D2a", "D2b"]
    assert all(Detector.from_label(d.label) is d for d in Detector)
    for label in ("D3", "d1", "", "D2A"):
        with pytest.raises(ValueError, match="unknown detector label"):
            Detector.from_label(label)


@pytest.mark.parametrize("key", ["bg1_coherent", "bg2_coherent", "bg1_incoherent",
                                 "bg2_incoherent"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_background_means_must_be_finite_and_nonnegative(key, value):
    with pytest.raises(ValueError, match=key):
        params_from_text(f"{key} = {value}\n")


@pytest.mark.parametrize("text, match", [
    ("chi_ref = 5e-324\n", "chi_ref"),
    ("bg1_coherent = 1e308\n", "bg1_coherent / chi_ref"),
    ("chi_ref = 0.99\nbg2_coherent = 1e308\nbg2_incoherent = 1e308\n", "bg2_coherent / chi_ref")])
def test_background_means_stay_finite_up_to_chi_one(text, match):
    # chi / chi_ref scales the coherent means; their sum with the incoherent one bounds a mean
    with pytest.raises(ValueError, match=match):
        params_from_text(text)
    params_from_text("chi_ref = 1e-300\nbg1_coherent = 1e-10\nbg1_incoherent = 1e300\n")   # finite


@pytest.mark.parametrize("key", ["mot_rate_hz", "window_ms"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_schedule_times_must_be_finite(key, value):
    with pytest.raises(ValueError, match=key):
        schedule_from_text(f"{key} = {value}\n")


def test_window_must_fit_in_the_mot_cycle():
    # a 100 ms window at 40 Hz would start trial 40 000 at 25 ms, before trial 39 999
    with pytest.raises(ValueError, match="window_ms"):
        schedule_from_text("mot_rate_hz = 40\nwindow_ms = 100\ntrials_per_window = 40000\n")
    assert schedule_from_text("mot_rate_hz = 40\nwindow_ms = 25\n").window_ms == 25


@pytest.mark.parametrize("text", [
    "write_offset_ns = -100\nread_delay_ns = 300\n",
    "write_offset_ns = 4294967296\nread_delay_ns = -4294967000\n",
    "mot_rate_hz = 0.05\nwindow_ms = 20000\ntrials_per_window = 1\n"
    "trial_period_ns = 17179869184\nread_delay_ns = 4294967296\n"],
    ids=["negative-write-offset", "write-offset-2**32", "read-offset-2**32"])
def test_record_offsets_must_fit_uint32(text):
    with pytest.raises(ValueError, match="write_offset_ns"):
        schedule_from_text(text)
    schedule_from_text(text.replace("4294967296", "4294967295").replace("-100", "0"))


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_channels_follow_the_detector_table(mode):
    p = ModelParams(bg1_incoherent=1e-3, bg2_incoherent=1e-3)
    assert tuple(ch.detector for ch in DetectionConfig(mode).channels(p)) == DETECTORS[mode]
