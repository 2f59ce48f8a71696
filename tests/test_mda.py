import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_scenario
from metrotwin.errors import DetectionTooLate, OutOfOrderSample
from metrotwin.mda import (DegradationDetector, DetectorConfig,
                           anticipation_time, run_softfail_case)
from metrotwin.optics import SignalModel, TelemetrySample, ber_from_snr
from metrotwin.scenario import build_world, scenario_from_dict
from metrotwin.simkernel import SECOND

FAIL_SNR = SignalModel().fail_snr_db()


def feed(detector, snrs, start=0, period=SECOND):
    """Push a list of SNR readings; return the first detection, if any."""
    model = SignalModel()
    hit = None
    for i, snr in enumerate(snrs):
        t = start + (i + 1) * period
        detector.ingest_sample(TelemetrySample(t, snr, ber_from_snr(snr, model)))
        if hit is None:
            hit = detector.detect_degradation()
    return hit


def ramp_stream(rate, n, baseline=60, level=21.84):
    return [level] * baseline + [level - rate * k for k in range(1, n + 1)]


def test_baseline_is_mean_of_first_window():
    det = DegradationDetector(DetectorConfig(baseline_window=4), FAIL_SNR)
    feed(det, [20.0, 21.0, 22.0, 23.0])
    assert det.baseline_db == pytest.approx(21.5)


def test_no_detection_during_baseline():
    det = DegradationDetector(DetectorConfig(), FAIL_SNR)
    hit = feed(det, [21.84] * 30 + [5.0] * 29)  # low samples still in window
    assert hit is None and det.baseline_db is None


def test_fires_on_third_consecutive_drop():
    cfg = DetectorConfig(baseline_window=5, consecutive_required=3,
                         drop_threshold_db=0.5)
    det = DegradationDetector(cfg, FAIL_SNR)
    stream = [21.84] * 5 + [21.0, 21.0, 21.84, 21.0, 21.0, 21.0]
    hit = feed(det, stream)
    # run is interrupted at sample 8, completes on sample 11
    assert hit is not None
    assert hit.t_detect == 11 * SECOND
    assert hit.snr_at_detect_db == pytest.approx(21.0)


def test_fires_once_per_episode():
    cfg = DetectorConfig(baseline_window=3, consecutive_required=2)
    det = DegradationDetector(cfg, FAIL_SNR)
    assert feed(det, [21.84] * 3 + [10.0] * 6) is not None
    assert det.detect_degradation() is None  # latched
    det.reset_episode()
    assert det.baseline_db is None
    assert feed(det, [21.84] * 3 + [10.0] * 6) is not None


def test_out_of_order_sample_rejected():
    det = DegradationDetector(DetectorConfig(), FAIL_SNR)
    det.ingest_sample(TelemetrySample(5 * SECOND, 21.84, 1e-12))
    with pytest.raises(OutOfOrderSample):
        det.ingest_sample(TelemetrySample(5 * SECOND, 21.84, 1e-12))
    with pytest.raises(OutOfOrderSample):
        det.ingest_sample(TelemetrySample(4 * SECOND, 21.84, 1e-12))


def test_slope_fit_is_exact_on_linear_data():
    # threshold 5 dB puts detection 21 samples into the ramp, so the
    # 10-sample regression window sees pure linear data
    cfg = DetectorConfig(baseline_window=5, regression_window=10,
                         consecutive_required=1, drop_threshold_db=5.0)
    det = DegradationDetector(cfg, FAIL_SNR)
    hit = feed(det, ramp_stream(0.25, 40, baseline=5))
    assert hit is not None
    assert hit.fitted_slope_db_per_s == pytest.approx(-0.25, rel=1e-9)
    # extrapolation: snr_now + slope * dt = fail threshold
    dt = (hit.predicted_t_fail - hit.t_detect) / SECOND
    assert hit.snr_at_detect_db - 0.25 * dt == pytest.approx(FAIL_SNR, abs=1e-6)


def test_no_prediction_for_recovering_trend():
    cfg = DetectorConfig(baseline_window=5, consecutive_required=8,
                         drop_threshold_db=0.5, regression_window=5)
    det = DegradationDetector(cfg, FAIL_SNR)
    # a step down followed by a slow recovery: still below threshold, but the
    # fitted trend points up, so there is no failure time to extrapolate
    stream = [21.84] * 5 + [20.5 + 0.01 * j for j in range(12)]
    hit = feed(det, stream)
    assert hit is not None
    assert hit.fitted_slope_db_per_s > 0
    assert hit.predicted_t_fail is None


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(min_value=0.02, max_value=1.0),
       threshold=st.floats(min_value=0.2, max_value=4.0),
       k_consec=st.integers(min_value=1, max_value=5))
def test_detection_sample_matches_closed_form(rate, threshold, k_consec):
    # first index with rate*k strictly beyond the threshold, plus the run
    k0 = math.floor(threshold / rate) + 1
    while not rate * k0 > threshold:
        k0 += 1
    # stay away from exact float boundaries where < is ill-conditioned
    assume(abs(rate * k0 - threshold) > 1e-6)
    assume(abs(rate * (k0 - 1) - threshold) > 1e-6)
    cfg = DetectorConfig(baseline_window=20, drop_threshold_db=threshold,
                         consecutive_required=k_consec)
    det = DegradationDetector(cfg, FAIL_SNR)
    n = k0 + k_consec + 5
    hit = feed(det, ramp_stream(rate, n, baseline=20))
    assert hit is not None
    expected_sample = 20 + k0 + (k_consec - 1)
    assert hit.t_detect == expected_sample * SECOND


def test_anticipation_time_guard():
    cfg = DetectorConfig(baseline_window=3, consecutive_required=1)
    det = DegradationDetector(cfg, FAIL_SNR)
    hit = feed(det, [21.84] * 3 + [15.0] * 5)
    assert anticipation_time(hit, hit.t_detect + 30 * SECOND) == 30 * SECOND
    assert anticipation_time(hit, hit.t_detect) == 0
    with pytest.raises(DetectionTooLate):
        anticipation_time(hit, hit.t_detect - SECOND)


# full episodes


def softfail_world_factory(seed=7, jitter=False):
    sc = scenario_from_dict(make_scenario(seed=seed))
    return lambda rep: build_world(sc, (500, rep))


def test_episode_detects_restores_and_accounts():
    report = run_softfail_case(
        world_factory=softfail_world_factory(),
        rate_db_per_s=0.25, repetitions=2, noise_sigma_db=0.0,
        detector_cfg=DetectorConfig(), model=SignalModel())
    assert report.repetitions == 2
    assert report.detection_time_s == pytest.approx(5.0)
    assert report.anticipation_s == pytest.approx(48.0)
    assert report.restored_count == 2 and report.failed_count == 0
    assert report.mean_detection_snr_db == pytest.approx(21.84 - 0.25 * 5)
    # trace covers the first repetition only: baseline + ramp up to crossing
    assert len(report.trace) == 60 + 53
    assert report.trace[0][0] == pytest.approx(-59.0)  # seconds before onset


def test_episode_determinism_with_noise():
    mk = softfail_world_factory(seed=9)
    kwargs = dict(rate_db_per_s=0.1, repetitions=3, noise_sigma_db=0.15,
                  detector_cfg=DetectorConfig(), model=SignalModel())
    a = run_softfail_case(world_factory=mk, **kwargs)
    b = run_softfail_case(world_factory=softfail_world_factory(seed=9), **kwargs)
    assert [r.detection_time_ns for r in a.per_rep] == \
           [r.detection_time_ns for r in b.per_rep]
    c = run_softfail_case(world_factory=softfail_world_factory(seed=10), **kwargs)
    assert [r.detection_time_ns for r in a.per_rep] != \
           [r.detection_time_ns for r in c.per_rep]


def test_coupling_scales_effective_rate():
    weak = run_softfail_case(
        world_factory=softfail_world_factory(),
        rate_db_per_s=0.25, repetitions=1, noise_sigma_db=0.0,
        detector_cfg=DetectorConfig(), model=SignalModel(), snr_coupling=0.5)
    # 0.25 dB/s at coupling 0.5 behaves like 0.125 dB/s at the receiver
    full = run_softfail_case(
        world_factory=softfail_world_factory(),
        rate_db_per_s=0.125, repetitions=1, noise_sigma_db=0.0,
        detector_cfg=DetectorConfig(), model=SignalModel())
    assert weak.detection_time_s == full.detection_time_s
    assert weak.anticipation_s == full.anticipation_s


def test_snr_only_fail_criterion():
    model = SignalModel(fail_ber_above=None, fail_snr_below_db=9.0)
    report = run_softfail_case(
        world_factory=softfail_world_factory(),
        rate_db_per_s=0.25, repetitions=1, noise_sigma_db=0.0,
        detector_cfg=DetectorConfig(), model=model)
    assert report.detection_time_s == pytest.approx(5.0)
    # 12.84 dB of margin at 0.25 dB/s: first sample at or below 9 dB is t=52 s
    assert report.anticipation_s == pytest.approx(47.0)
    assert report.restored_count == 1
