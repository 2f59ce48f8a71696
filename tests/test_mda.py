import io
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_scenario, shipped
from metrotwin import mda
from metrotwin.controlplane import ServiceStatus
from metrotwin.errors import OutOfOrderSample, TwinError
from metrotwin.mda import (DegradationDetector, DetectorConfig,
                           RepetitionResult, SoftFailReport,
                           _degradation_event, _fit_terms, anticipation_time,
                           episode_horizon, run_softfail_case)
from metrotwin.optics import (AttenuationRamp, OpticalPlant, SignalModel,
                              TelemetrySample, ber_from_snr)
from metrotwin.scenario import build_world, run_scenario, scenario_from_dict
from metrotwin.simkernel import SECOND, KeyTable, SimRng

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


@pytest.mark.parametrize("field,value", [
    ("sample_period_ns", 0),
    ("baseline_window", 0),
    ("consecutive_required", 0),
    ("consecutive_required", -1),
    ("regression_window", 0),
    ("regression_window", 1),
])
def test_detector_config_rejects_values_that_break_the_rule(field, value):
    with pytest.raises(ValueError, match=field):
        DetectorConfig(**{field: value})


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


def polyfit_slope(times, snrs):
    """Oracle of the closed-form fit: numpy's general least-squares line
    over seconds since the window's first sample, its slope in dB/s."""
    ts = np.array([(t - times[0]) / SECOND for t in times])
    return float(np.polyfit(ts, np.array(snrs), 1)[0])


@settings(max_examples=200, deadline=None)
@given(noise=st.lists(st.floats(-0.25, 0.25), min_size=2, max_size=60),
       t0=st.sampled_from([0, 10**15, 2**62]) | st.integers(0, 2**62),
       period_s=st.sampled_from([0.5, 1.0, 2.0, 60.0]),
       slope=st.floats(-5.0, 5.0).filter(lambda v: abs(v) >= 0.01),
       level=st.floats(-10.0, 30.0))
@example(noise=[0.0, 0.0], t0=2**62, period_s=1.0, slope=-0.25,
         level=21.84)
@example(noise=[0.25, -0.25], t0=2**62 + 1, period_s=0.5, slope=0.01,
         level=30.0)
def test_closed_form_slope_matches_polyfit(noise, t0, period_s, slope,
                                           level):
    # sample k lies ``noise[k]`` periods of trend off the line, at most a
    # quarter: the fitted slope stays within half of ``slope``, away from
    # the cancellation near zero that no fit resolves to 1e-9
    period = round(period_s * SECOND)
    times = [t0 + k * period for k in range(len(noise))]
    snrs = [level + slope * period_s * (k + e) for k, e in enumerate(noise)]
    event = _degradation_event(times, snrs, 1e-3, FAIL_SNR)
    assert event.fitted_slope_db_per_s == pytest.approx(
        polyfit_slope(times, snrs), rel=1e-9)
    assert event.t_detect == times[-1]


def test_anticipation_time_guard():
    cfg = DetectorConfig(baseline_window=3, consecutive_required=1)
    det = DegradationDetector(cfg, FAIL_SNR)
    hit = feed(det, [21.84] * 3 + [15.0] * 5)
    assert anticipation_time(hit, hit.t_detect + 30 * SECOND) == 30 * SECOND
    assert anticipation_time(hit, hit.t_detect) == 0


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
    assert a == b
    c = run_softfail_case(world_factory=softfail_world_factory(seed=10), **kwargs)
    assert a != c


def test_an_integer_baseline_runs_as_its_float():
    # the SNR rule subtracts each ramp's float loss in place from an array
    # of the baseline, which must not take the baseline's integer type
    kwargs = dict(rate_db_per_s=0.1, repetitions=2, noise_sigma_db=0.1,
                  detector_cfg=DetectorConfig())
    assert (run_softfail_case(world_factory=softfail_world_factory(),
                              model=SignalModel(snr0_db=22), **kwargs)
            == run_softfail_case(world_factory=softfail_world_factory(),
                                 model=SignalModel(snr0_db=22.0), **kwargs))


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


# differential test: the one-array scan against the per-sample episode


def oracle_softfail_case(world_factory, rate_db_per_s, repetitions,
                         noise_sigma_db, detector_cfg, model, snr_coupling=1.0,
                         ramp_link=None, keep_trace=True):
    """Reference episode: one kernel event, one ``sample_telemetry`` and one
    detector ingest per sample period, on an ``OpticalPlant`` over the
    world's ring state.  Each sample's noise is the next draw of the world's
    noise stream, from numpy's own generator.  Returns (per-repetition
    results, trace)."""
    reps, trace = [], []
    for rep in range(repetitions):
        kernel, stack, rec = world_factory(rep)
        plant = OpticalPlant(stack.state)
        monitored_path = rec.path
        period = detector_cfg.sample_period_ns
        first_sample = kernel.now + period
        ramp_start = first_sample + (detector_cfg.baseline_window - 1) * period
        plant.apply_attenuation_ramp(AttenuationRamp(
            link_id=ramp_link or monitored_path.links[0],
            rate_db_per_s=rate_db_per_s, start_time=ramp_start,
            snr_coupling=snr_coupling))
        fail_snr = model.fail_snr_db()
        detector = DegradationDetector(detector_cfg, fail_snr)
        noise_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            stack.keys.seed, spawn_key=stack.root + (mda.NOISE_STREAM,))))
        state = {"event": None, "t_cross": None}
        sample_cap = detector_cfg.baseline_window + 1000 + int(
            2 * (model.snr0_db - fail_snr)
            / (rate_db_per_s * max(snr_coupling, 1e-9)) / (period / SECOND))

        def take_sample(count=0):
            t = kernel.now
            s = plant.sample_telemetry(monitored_path, t, model,
                                       noise_sigma_db, noise_rng)
            if keep_trace and rep == 0:
                trace.append([(t - ramp_start) / SECOND, s.snr_db,
                              s.pre_fec_ber])
            detector.ingest_sample(s)
            if state["event"] is None:
                ev = detector.detect_degradation()
                if ev is not None:
                    state["event"] = ev
                    kernel.schedule(
                        lambda: stack.handle_degradation_alert(rec,
                                                               kernel.now),
                        t + 2 * stack.timings.alert_hop_ns,
                        kind=f"{rec.request_id}:alert")
            crossed = s.pre_fec_ber > model.fail_ber_above
            if state["t_cross"] is None and crossed:
                state["t_cross"] = t
                stack.notify_fail_crossing(rec, t)
                return
            if count + 1 >= sample_cap:
                raise TwinError("telemetry stream ran past its expected horizon")
            kernel.schedule(lambda: take_sample(count + 1), t + period,
                            kind="telemetry_sample")

        kernel.schedule(lambda: take_sample(0), first_sample,
                        kind="telemetry_sample")
        kernel.run_to_end()
        ev, t_cross = state["event"], state["t_cross"]
        if ev is None or t_cross is None:
            raise TwinError(f"repetition {rep}: episode ended without "
                            f"detection and crossing")
        reps.append(RepetitionResult(
            detection_time_ns=ev.t_detect - ramp_start,
            anticipation_ns=anticipation_time(ev, t_cross),
            predicted_anticipation_ns=(None if ev.predicted_t_fail is None
                                       else ev.predicted_t_fail - ev.t_detect),
            snr_at_detect_db=ev.snr_at_detect_db,
            ber_at_detect=ev.ber_at_detect,
            restored=rec.status is ServiceStatus.RESTORED))
    return reps, trace


def oracle_report(rate_db_per_s, reps, trace):
    """The ``SoftFailReport`` of the oracle's repetitions, summed in the
    order ``run_softfail_case`` sums them."""
    n = len(reps)
    predicted = [r.predicted_anticipation_ns for r in reps
                 if r.predicted_anticipation_ns is not None]
    return SoftFailReport(
        rate_db_per_s=rate_db_per_s, repetitions=n,
        detection_time_s=sum(r.detection_time_ns for r in reps) / n / SECOND,
        anticipation_s=sum(r.anticipation_ns for r in reps) / n / SECOND,
        predicted_anticipation_s=(sum(predicted) / len(predicted) / SECOND
                                  if predicted else 0.0),
        mean_detection_snr_db=sum(r.snr_at_detect_db for r in reps) / n,
        mean_detection_ber=sum(r.ber_at_detect for r in reps) / n,
        restored_count=sum(1 for r in reps if r.restored),
        failed_count=sum(1 for r in reps if not r.restored),
        trace=trace)


def run_both_episodes(doc, **kwargs):
    """Run the oracle and ``run_softfail_case`` on identical fresh worlds.

    Returns, per side: the outcome (the report, or the TwinError), each
    repetition's own report without trace, each world's final service
    state, and the fired kernel events other than telemetry instants as
    (time, kind).  ``run_softfail_case`` gives each repetition's report by
    a one-repetition run on a fresh copy of that repetition's world.
    """
    sc = scenario_from_dict(doc)
    rate, alone = kwargs["rate_db_per_s"], dict(kwargs, repetitions=1,
                                                keep_trace=False)
    sides = []
    for run in (oracle_softfail_case, run_softfail_case):
        sink = io.StringIO()
        worlds = []

        def factory(rep):
            worlds.append(build_world(sc, (500, rep), trace_sink=sink))
            return worlds[-1]

        per_rep = []
        try:
            outcome = run(world_factory=factory, **kwargs)
            if run is oracle_softfail_case:
                reps, trace = outcome
                outcome = oracle_report(rate, reps, trace)
                per_rep = [oracle_report(rate, [r], []) for r in reps]
            else:
                per_rep = [run(world_factory=lambda _, rep=rep: build_world(
                    sc, (500, rep)), **alone)
                    for rep in range(kwargs["repetitions"])]
        except TwinError as exc:
            outcome = (type(exc), str(exc))
        sides.append((outcome, per_rep) + world_outcomes(worlds, sink))
    return sides


def world_outcomes(worlds, sink):
    """Each world's final service state, and the fired kernel events other
    than telemetry instants as (time, kind)."""
    state = [(w.record.status, w.record.restoration, w.record.path)
             for w in worlds]
    events = [(int(t), kind) for t, _, kind in
              (line.split(",", 2) for line in sink.getvalue().splitlines())
              if kind != "telemetry_sample"]
    return state, events


def run_on_one_table(doc, spare=0, **kwargs):
    """``run_softfail_case`` on worlds whose streams lie in one key table,
    as a runner's do, with ``spare`` roots past the case's own: its side as
    ``run_both_episodes`` gives it, each repetition's result taken from this
    one run, and the noise streams it built, in order."""
    sc = scenario_from_dict(doc)
    reps = kwargs["repetitions"]
    keys = KeyTable(sc.seed, [(500, rep) for rep in range(reps + spare)])
    sink, worlds, results, streams = io.StringIO(), [], [], []

    def factory(rep):
        worlds.append(build_world(sc, (500, rep), trace_sink=sink, keys=keys))
        return worlds[-1]

    def result(**fields):
        results.append(RepetitionResult(**fields))
        return results[-1]

    class Stream(SimRng):
        __slots__ = ()

        def __init__(self, keys, spawn_key):
            streams.append(spawn_key)
            super().__init__(keys, spawn_key)

    with patch.object(mda, "RepetitionResult", result), \
            patch.object(mda, "SimRng", Stream):
        try:
            outcome = run_softfail_case(factory, **kwargs)
            per_rep = [oracle_report(kwargs["rate_db_per_s"], [r], [])
                       for r in results]
        except TwinError as exc:
            outcome, per_rep = (type(exc), str(exc)), []
    return (outcome, per_rep) + world_outcomes(worlds, sink), streams


@st.composite
def episode_inputs(draw):
    period_s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    # multiples of half a period put the alert, the blocker rewrites and the
    # retune on sample instants; 0.3 of a period does not
    steps = st.sampled_from([0.5, 1, 2, 3, 0.3])
    doc = make_scenario(experiment="softfail", seed=draw(st.integers(0, 999)))
    # jittered deployments reach their first sample at different instants
    doc["service"]["jitter"] = draw(st.booleans())
    doc["service"]["phase_durations"] = {
        "alert_hop_s": period_s * draw(st.sampled_from([0, 0.5, 1, 1.5, 2, 0.3])),
        "control_messaging_s": period_s * draw(steps),
        "roadm_config_s": period_s * draw(steps),
        "retune_s": period_s * draw(st.sampled_from([0.5, 1, 2, 3, 5, 0.3])),
    }
    # the episode parameters below go to the runners directly; this section
    # only makes the document a valid softfail scenario
    doc["softfail"] = {"cases": [{"rate_db_per_s": 0.1}]}
    # log-uniform BER limits, met from about 15 dB (2e-8) down to about
    # -9.5 dB (0.37)
    model = SignalModel(fail_ber_above=10 ** draw(
        st.floats(math.log10(2e-8), math.log10(0.37))))
    kwargs = dict(
        rate_db_per_s=draw(st.floats(0.05, 3.0)),
        repetitions=draw(st.integers(1, 3)),
        noise_sigma_db=draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])),
        detector_cfg=DetectorConfig(
            sample_period_ns=round(period_s * SECOND),
            baseline_window=draw(st.integers(1, 40)),
            drop_threshold_db=draw(st.floats(0.1, 3.0)),
            consecutive_required=draw(st.integers(1, 5)),
            regression_window=draw(st.integers(2, 30))),
        model=model,
        snr_coupling=draw(st.floats(0.1, 1.5)),
        # r1-r2 is the monitored arc; a ramp on r2-r3 never reaches it
        ramp_link=draw(st.sampled_from([None, None, None, "r2-r3"])))
    # a ramp that episode_horizon rejects raises before any world is built
    try:
        episode_horizon(kwargs["detector_cfg"], model,
                        kwargs["rate_db_per_s"], kwargs["snr_coupling"])
    except TwinError:
        assume(False)
    return doc, kwargs


@settings(max_examples=80, deadline=None)
@given(inputs=episode_inputs())
def test_block_scan_matches_per_sample_oracle(inputs):
    doc, kwargs = inputs
    oracle, scan = run_both_episodes(doc, **kwargs)
    assert scan == oracle


@settings(max_examples=40, deadline=None)
@given(inputs=episode_inputs(), tie=st.sampled_from(["alert", "retune"]))
def test_block_scan_matches_oracle_when_restoration_ties_the_crossing(inputs,
                                                                      tie):
    # Detection and crossing indices do not depend on the phase timings, so
    # a first oracle run gives rep 0's crossing - detection gap; the timings
    # are then set so the alert, or the retune after the three blocker
    # rewrites, lands on the crossing instant itself.
    doc, kwargs = inputs
    kwargs["ramp_link"] = None
    sc = scenario_from_dict(doc)
    try:
        reps, _ = oracle_softfail_case(lambda rep: build_world(sc, (500, rep)),
                                       **kwargs)
    except TwinError:
        assume(False)
    gap = reps[0].anticipation_ns
    timings = {k: round(v * SECOND)
               for k, v in doc["service"]["phase_durations"].items()}
    if tie == "alert":
        alert_hop_ns = gap // 2
        assume(2 * alert_hop_ns == gap)
    else:
        alert_hop_ns = timings["alert_hop_s"]
    retune_ns = (gap - 2 * alert_hop_ns - timings["control_messaging_s"]
                 - 3 * timings["roadm_config_s"])
    if tie == "retune":
        assume(retune_ns > 0)
    else:
        retune_ns = timings["retune_s"]
    doc["service"]["phase_durations"].update(
        alert_hop_s=alert_hop_ns / SECOND, retune_s=retune_ns / SECOND)
    oracle, scan = run_both_episodes(doc, **kwargs)
    assert scan == oracle


def test_block_scan_matches_oracle_over_several_full_blocks():
    # a 0.01 dB/s ramp crosses about 1,300 samples in, past the first block
    doc = make_scenario(experiment="softfail", seed=3,
                        softfail={"cases": [{"rate_db_per_s": 0.01}]})
    oracle, scan = run_both_episodes(
        doc, rate_db_per_s=0.01, repetitions=2, noise_sigma_db=0.1,
        detector_cfg=DetectorConfig(regression_window=1500),
        model=SignalModel())
    assert len(oracle[0].trace) > 1024
    assert scan == oracle


@settings(max_examples=40, deadline=None)
@given(inputs=episode_inputs(), reps=st.integers(2, 6),
       spare=st.integers(0, 3),
       budget=st.sampled_from([mda._BLOCK_SAMPLES, 1, 700]))
def test_episodes_scanned_in_blocks_match_the_oracle(inputs, reps, spare,
                                                     budget):
    # worlds on one key table, as a runner's are, scan the first draws of an
    # episode and of those after it as one block, up to the case's last
    # repetition and the block's sample budget (one episode a block at 1)
    doc, kwargs = inputs
    kwargs["repetitions"] = reps
    oracle, scan = run_both_episodes(doc, **kwargs)
    with patch.object(mda, "_BLOCK_SAMPLES", budget):
        shared, streams = run_on_one_table(doc, spare, **kwargs)
    assert shared == scan == oracle
    if isinstance(oracle[0], SoftFailReport):
        assert streams == [(500, rep, mda.NOISE_STREAM) for rep in range(reps)]


def block_sizes(monkeypatch):
    """Record the rows of each block ``_scan_block`` scans."""
    sizes = []
    scan_block = mda._scan_block

    def spy(snr, *args):
        sizes.append(len(snr))
        return scan_block(snr, *args)

    monkeypatch.setattr(mda, "_scan_block", spy)
    return sizes


def test_noiseless_blocks_stop_at_the_case_end(monkeypatch):
    # a budget of two first draws splits five episodes into blocks of 2, 2
    # and 1: the table's three spare roots lie past the case's end
    kwargs = dict(rate_db_per_s=0.1, repetitions=5, noise_sigma_db=0.0,
                  detector_cfg=DetectorConfig(), model=SignalModel())
    doc = make_scenario(experiment="softfail", seed=4,
                        softfail={"cases": [{"rate_db_per_s": 0.1}]})
    oracle, scan = run_both_episodes(doc, **kwargs)
    first = episode_horizon(DetectorConfig(), SignalModel(), 0.1)[1] + 1
    monkeypatch.setattr(mda, "_BLOCK_SAMPLES", 2 * first)
    sizes = block_sizes(monkeypatch)
    shared, streams = run_on_one_table(doc, 3, **kwargs)
    assert shared == scan == oracle
    assert sizes == [2, 2, 1]
    assert streams == [(500, rep, mda.NOISE_STREAM) for rep in range(5)]


def test_a_second_draw_inside_a_block_matches_the_oracle(monkeypatch):
    # The first draw ends at the noiseless crossing, so most episodes cross
    # in it and the others, inside the block, draw the rest of their
    # horizon and are scanned as blocks of their own.
    horizon = episode_horizon
    monkeypatch.setattr(mda, "episode_horizon", lambda *args: (
        horizon(*args)[0], horizon(*args)[1] - 14))
    doc = make_scenario(experiment="softfail", seed=3,
                        softfail={"cases": [{"rate_db_per_s": 0.05}]})
    kwargs = dict(rate_db_per_s=0.05, repetitions=8, noise_sigma_db=0.1,
                  detector_cfg=DetectorConfig(), model=SignalModel())
    oracle, scan = run_both_episodes(doc, **kwargs)
    drawn, normal = [], SimRng.normal

    def spy(self, mu=0.0, sigma=1.0, size=None):
        drawn.append((self.spawn_key[1], size))
        return normal(self, mu, sigma, size)

    monkeypatch.setattr(SimRng, "normal", spy)
    sizes = block_sizes(monkeypatch)
    shared, _ = run_on_one_table(doc, **kwargs)
    assert shared == scan == oracle
    samples, crossing = horizon(DetectorConfig(), SignalModel(), 0.05)
    first = crossing - 14 + math.ceil(6 * 0.1 / 0.05) + 1
    assert drawn[:8] == [(rep, first) for rep in range(8)]
    second = [rep for rep, size in drawn[8:] if size == samples - first]
    assert len(drawn) == 8 + len(second)
    assert 0 < len(second) < 8 and max(second) > 0
    assert sizes == [8] + [1] * len(second)


def test_an_episode_inside_a_block_that_crosses_first_raises(monkeypatch):
    # 51 samples below the level reach the noiseless crossing exactly
    # (test_a_ramp_that_crosses_before_a_detection_raises_before_any_world),
    # so the noise of repetition 2 crosses before its run completes; the
    # samples of its row in the block past that crossing detect nothing
    doc = make_scenario(experiment="softfail", seed=1,
                        softfail={"cases": [{"rate_db_per_s": 0.25}]})
    kwargs = dict(rate_db_per_s=0.25, repetitions=4, noise_sigma_db=0.1,
                  detector_cfg=DetectorConfig(consecutive_required=51),
                  model=SignalModel())
    oracle, scan = run_both_episodes(doc, **kwargs)
    sizes = block_sizes(monkeypatch)
    shared, _ = run_on_one_table(doc, **kwargs)
    assert shared == scan == oracle
    assert oracle[0] == (TwinError, "repetition 2: episode ended without "
                                    "detection and crossing")
    assert sizes == [4]


def closed_form_event(times, snrs, ber_now, fail_snr_db):
    """The detection event with its fit summed whole for one window: the
    reference that the fit on shared time terms must equal, bit for bit."""
    ts = [(t - times[0]) / SECOND for t in times]
    t_bar, y_bar = math.fsum(ts) / len(ts), math.fsum(snrs) / len(snrs)
    slope = (math.fsum([(t - t_bar) * (y - y_bar) for t, y in zip(ts, snrs)])
             / math.fsum([(t - t_bar) * (t - t_bar) for t in ts]))
    t_now, snr_now = times[-1], snrs[-1]
    if snr_now <= fail_snr_db:
        predicted = t_now
    elif slope < 0.0:
        predicted = t_now + round((snr_now - fail_snr_db) / -slope * SECOND)
    else:
        predicted = None
    return (t_now, snr_now, ber_now, slope.hex(), predicted)


@settings(max_examples=200, deadline=None)
@given(snrs=st.lists(st.floats(-10.0, 30.0), min_size=2, max_size=60),
       t0=st.sampled_from([0, 2**62]) | st.integers(0, 2**62),
       period=st.sampled_from([SECOND, SECOND // 2, 2 * SECOND])
       | st.integers(1, 10**13))
def test_a_fit_on_shared_time_terms_is_the_closed_form(snrs, t0, period):
    # a block computes a window length's time terms once, from instants
    # that start at 0; every window of that length has the same terms
    times = range(t0, t0 + period * len(snrs), period)
    terms = _fit_terms(range(0, period * len(snrs), period))
    assert terms == _fit_terms(times)
    event = _degradation_event(times, snrs, 1e-3, FAIL_SNR, terms)
    assert event == _degradation_event(list(times), snrs, 1e-3, FAIL_SNR)
    assert (event.t_detect, event.snr_at_detect_db, event.ber_at_detect,
            event.fitted_slope_db_per_s.hex(), event.predicted_t_fail) == \
        closed_form_event(list(times), snrs, 1e-3, FAIL_SNR)


def test_a_window_shorter_than_regression_window_matches_the_oracle():
    # 5 baseline samples and 1 below the level take fewer than the 30 of
    # the regression window: a detection's window is every sample so far
    cfg = DetectorConfig(baseline_window=5, consecutive_required=1,
                         regression_window=30)
    doc = make_scenario(experiment="softfail", seed=6,
                        softfail={"cases": [{"rate_db_per_s": 0.25}]})
    kwargs = dict(rate_db_per_s=0.25, repetitions=4, noise_sigma_db=0.05,
                  detector_cfg=cfg, model=SignalModel())
    oracle, scan = run_both_episodes(doc, **kwargs)
    shared, _ = run_on_one_table(doc, **kwargs)
    assert shared == scan == oracle
    # the detection sample's index: the ramp starts at the window's last
    detect = [4 + round(r.detection_time_s) for r in oracle[1]]
    assert len(detect) == 4 and max(detect) + 1 < 30


def test_sample_instants_past_the_64_bit_clock_raise():
    sc = scenario_from_dict(make_scenario(
        experiment="softfail", seed=3,
        softfail={"cases": [{"rate_db_per_s": 0.5}]}))
    with pytest.raises(TwinError, match="64-bit clock"):
        run_softfail_case(lambda rep: build_world(sc, (0, rep)),
                          rate_db_per_s=0.5, repetitions=1, noise_sigma_db=0.0,
                          detector_cfg=DetectorConfig(sample_period_ns=10**18),
                          model=SignalModel())


def test_horizon_past_the_ceiling_raises_before_any_world():
    # twice the ramp to the fail threshold alone takes 2**20 samples, so
    # the horizon passes the ceiling by the baseline window and 1,000 more
    model = SignalModel()
    built = []
    with pytest.raises(TwinError, match="samples, more than the 1048576"):
        run_softfail_case(built.append,
                          rate_db_per_s=2 * (model.snr0_db - FAIL_SNR) / 2**20,
                          repetitions=1, noise_sigma_db=0.0,
                          detector_cfg=DetectorConfig(), model=model,
                          keep_trace=False)
    assert built == []


@pytest.mark.parametrize("period_s", [0.5, 1.0, 2.0])
def test_a_ramp_that_takes_the_span_in_one_period_raises_before_any_world(
        period_s):
    model = SignalModel()
    span = model.snr0_db - FAIL_SNR
    cfg = DetectorConfig(sample_period_ns=round(period_s * SECOND),
                         consecutive_required=1)
    built = []
    with pytest.raises(TwinError, match="in one sample period"):
        run_softfail_case(built.append, rate_db_per_s=span / period_s,
                          repetitions=1, noise_sigma_db=0.0,
                          detector_cfg=cfg, model=model, keep_trace=False)
    assert built == []
    # a little slower, and the ramp takes two periods; one sample below the
    # level detects it
    assert episode_horizon(cfg, model, 0.99 * span / period_s)[0] == \
        cfg.baseline_window + 1002


def test_a_ramp_that_crosses_before_a_detection_raises_before_any_world():
    # at 0.25 dB a sample the ramp is more than 0.5 dB below the baseline
    # from its 3rd sample on and reaches the fail SNR at its 53rd: 51 samples
    built = []
    with pytest.raises(TwinError, match="than consecutive_required = 52"):
        run_softfail_case(built.append, rate_db_per_s=0.25, repetitions=1,
                          noise_sigma_db=0.0,
                          detector_cfg=DetectorConfig(consecutive_required=52),
                          model=SignalModel(), keep_trace=False)
    assert built == []
    # one fewer, and detection comes at the crossing sample itself
    report = run_softfail_case(
        softfail_world_factory(), rate_db_per_s=0.25, repetitions=1,
        noise_sigma_db=0.0, model=SignalModel(),
        detector_cfg=DetectorConfig(consecutive_required=51))
    assert report.anticipation_s == 0.0
    # a ramp of 10 dB a sample passes 31.9 dB at its 4th sample, where it
    # reaches the fail SNR of -9.3 dB; but a level 31.9 dB below 21.84 dB
    # lies under the LOS floor, which the clamped SNR never falls below
    with pytest.raises(TwinError, match="with 0 of its samples"):
        episode_horizon(DetectorConfig(drop_threshold_db=31.9,
                                       consecutive_required=1),
                        SignalModel(fail_ber_above=0.37), 10.0)


def test_deployment_time_can_push_the_samples_past_the_64_bit_clock():
    # 1,063 samples 8e6 s apart fit the clock from time 0, so the horizon
    # passes; after VNFs that take 1e9 s to instantiate they do not.  The
    # ramp lowers the SNR by 8 dB a sample, less than the 13 dB to failure,
    # and one sample below the level detects it.
    doc = make_scenario(experiment="softfail", seed=3,
                        softfail={"cases": [{"rate_db_per_s": 0.5}]})
    for vnf in doc["service"]["vnfs"]:
        vnf["instantiation_mean_s"] = 1e9
    sc = scenario_from_dict(doc)
    with pytest.raises(TwinError, match="telemetry stream ran past the 64-bit"):
        run_softfail_case(lambda rep: build_world(sc, (0, rep)),
                          rate_db_per_s=1e-6, repetitions=1, noise_sigma_db=0.0,
                          detector_cfg=DetectorConfig(
                              sample_period_ns=8 * 10**15,
                              consecutive_required=1),
                          model=SignalModel())


def noise_draw_sizes(monkeypatch):
    """Record the size of each array of noise draws an episode takes."""
    sizes = []
    normal = SimRng.normal

    def spy(self, mu=0.0, sigma=1.0, size=None):
        if size is not None:
            sizes.append(size)
        return normal(self, mu, sigma, size)

    monkeypatch.setattr(SimRng, "normal", spy)
    return sizes


def test_a_crossing_past_the_first_draw_matches_the_oracle(monkeypatch):
    # The first draw ends 6 sigma of ramp past the noiseless crossing, which
    # noise almost never outlasts; a crossing reported at half its index
    # ends it before the noisy crossing, so the second draw holds that.
    horizon = episode_horizon
    monkeypatch.setattr(mda, "episode_horizon", lambda *args: (
        horizon(*args)[0], horizon(*args)[1] // 2))
    sizes = noise_draw_sizes(monkeypatch)
    doc = make_scenario(experiment="softfail", seed=3,
                        softfail={"cases": [{"rate_db_per_s": 0.05}]})
    kwargs = dict(rate_db_per_s=0.05, repetitions=2, noise_sigma_db=0.1,
                  detector_cfg=DetectorConfig(), model=SignalModel())
    oracle, scan = run_both_episodes(doc, **kwargs)
    assert scan == oracle
    samples, crossing = horizon(DetectorConfig(), SignalModel(), 0.05)
    first = crossing // 2 + math.ceil(6 * 0.1 / 0.05) + 1
    assert len(oracle[0].trace) > first
    assert sizes.count(first) == sizes.count(samples - first) == 4


def test_an_episode_that_never_crosses_draws_its_horizon_and_raises(
        monkeypatch):
    # r2-r3 is off the monitored r1-r2, so no sample crosses: the rest of
    # the horizon is drawn and the episode ends without a crossing
    sizes = noise_draw_sizes(monkeypatch)
    doc = make_scenario(experiment="softfail", seed=3,
                        softfail={"cases": [{"rate_db_per_s": 0.1}]})
    oracle, scan = run_both_episodes(
        doc, rate_db_per_s=0.1, repetitions=1, noise_sigma_db=0.1,
        detector_cfg=DetectorConfig(), model=SignalModel(), ramp_link="r2-r3")
    assert scan == oracle
    assert oracle[0] == (TwinError,
                         "telemetry stream ran past its expected horizon")
    samples, crossing = episode_horizon(DetectorConfig(), SignalModel(), 0.1)
    first = crossing + math.ceil(6 * 0.1 / 0.1) + 1
    assert sizes == [first, samples - first]


def snr_series_calls(monkeypatch):
    """Record each noiseless series an episode computes, by its sample
    count: each ``ramped_snr`` call of ``mda`` but ``episode_horizon``'s,
    whose ramp lies on no link."""
    calls = []
    ramped_snr = mda.ramped_snr

    def spy(model, times, ramps):
        if all(ramp.link_id for ramp in ramps):
            calls.append(len(times))
        return ramped_snr(model, times, ramps)

    monkeypatch.setattr(mda, "ramped_snr", spy)
    return calls


def test_a_case_computes_its_noiseless_ramp_once(monkeypatch):
    doc = shipped("paper_softfail.json")
    doc["softfail"]["repetitions"] = 100
    sc = scenario_from_dict(doc)
    calls = snr_series_calls(monkeypatch)
    run_scenario(sc)
    # one call for each of the two cases, not one for each repetition
    assert len(calls) == 2


def test_a_ramp_on_an_unknown_link_raises_before_its_episode():
    worlds = []
    factory = softfail_world_factory()

    def recording(rep):
        worlds.append(factory(rep))
        return worlds[-1]

    with pytest.raises(TwinError, match="ramp_link: no link 'nope'"):
        run_softfail_case(recording, rate_db_per_s=0.1, repetitions=3,
                          noise_sigma_db=0.1, detector_cfg=DetectorConfig(),
                          model=SignalModel(), ramp_link="nope")
    # the first world is deployed, and its episode never starts
    world, = worlds
    assert world.kernel.idle()
    assert world.kernel.now == world.record.timestamps.t_monitoring_active


@pytest.mark.parametrize("ramp_link,calls", [(None, 2), ("r1-r2", 3)])
def test_repetitions_on_other_paths_match_the_oracle(monkeypatch, ramp_link,
                                                     calls):
    # odd repetitions end the service at roadm3, so it runs over r3-r1 and
    # not r1-r2: with ramp_link r1-r2, their ramp never reaches it, and the
    # first of them draws both pieces and raises as the oracle does
    doc = make_scenario(seed=5)
    doc["topology"]["transponders"][1]["roadm"] = "roadm3"
    worlds = (scenario_from_dict(make_scenario(seed=5)),
              scenario_from_dict(doc))

    def factory(rep):
        return build_world(worlds[rep % 2], (500, rep))

    def outcome(run):
        try:
            return run()
        except TwinError as exc:
            return type(exc), str(exc)

    kwargs = dict(rate_db_per_s=0.1, repetitions=4, noise_sigma_db=0.1,
                  detector_cfg=DetectorConfig(), model=SignalModel(),
                  ramp_link=ramp_link)
    oracle = outcome(lambda: oracle_report(
        0.1, *oracle_softfail_case(factory, **kwargs)))
    assert factory(1).record.path.links == ("r3-r1",)
    spied = snr_series_calls(monkeypatch)
    assert outcome(lambda: run_softfail_case(factory, **kwargs)) == oracle
    assert len(spied) == calls
    if ramp_link is None:
        assert isinstance(oracle, SoftFailReport)


@settings(max_examples=200, deadline=None)
@given(a=arrays(np.float64, st.integers(1, 600),
                elements=st.floats(-1e300, 1e300)),
       data=st.data())
def test_a_sum_over_the_window_size_is_np_mean(a, data):
    # the scan takes the baseline as sum / w, numpy's own mean without its
    # Python frames
    w = data.draw(st.integers(1, a.size))
    assert a[:w].sum() / w == np.mean(a[:w])
