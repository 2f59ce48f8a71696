"""Telemetry analytics: soft-failure detection and anticipation accounting.

The detector watches a once-per-period SNR stream from the monitored path.
It learns a baseline from the first window of samples, then fires when a run
of consecutive samples sits below baseline minus a drop threshold.  At
detection it fits a linear SNR trend and extrapolates the time the signal
will cross the fail criterion.  ``run_softfail_case`` replays the whole
episode (ramp, detection, alert, restoration race) over fresh worlds and
aggregates per-repetition results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .controlplane import OrchestrationStack, ServiceRecord, ServiceStatus
from .errors import DetectionTooLate, OutOfOrderSample, TwinError
from .optics import (LOS_FLOOR_DB, AttenuationRamp, OpticalPlant,
                     SignalModel, TelemetrySample, ber_from_snr)
from .simkernel import Kernel, SECOND, SimRng, SimTime
from .topology import OpticalPath


@dataclass(frozen=True)
class DetectorConfig:
    sample_period_ns: int = SECOND
    baseline_window: int = 60
    drop_threshold_db: float = 0.5
    consecutive_required: int = 3
    regression_window: int = 30

    def __post_init__(self) -> None:
        for name, least in (("sample_period_ns", 1), ("baseline_window", 1),
                            ("consecutive_required", 1),
                            ("regression_window", 2)):
            value = getattr(self, name)
            if not value >= least:
                raise ValueError(f"{name} must be >= {least}; got {value!r}")


@dataclass(frozen=True)
class DegradationEvent:
    t_detect: SimTime
    snr_at_detect_db: float
    ber_at_detect: float
    fitted_slope_db_per_s: float
    predicted_t_fail: Optional[SimTime]


class DegradationDetector:
    """Baseline-and-threshold detector with trend extrapolation.

    Fires at most once per episode, on the sample that completes the
    configured run of below-threshold readings.
    """

    def __init__(self, cfg: DetectorConfig, fail_snr_db: float) -> None:
        self.cfg = cfg
        self.fail_snr_db = fail_snr_db
        self._times: list[SimTime] = []
        self._snrs: list[float] = []
        self._bers: list[float] = []
        self.baseline_db: Optional[float] = None
        self._run = 0
        self._fired = False

    def ingest_sample(self, s: TelemetrySample) -> None:
        if self._times and s.t <= self._times[-1]:
            raise OutOfOrderSample(
                f"sample at {s.t} after one at {self._times[-1]}")
        self._times.append(s.t)
        self._snrs.append(s.snr_db)
        self._bers.append(s.pre_fec_ber)
        n = len(self._times)
        if n == self.cfg.baseline_window:
            self.baseline_db = float(np.mean(self._snrs))
        elif self.baseline_db is not None and n > self.cfg.baseline_window:
            if s.snr_db < self.baseline_db - self.cfg.drop_threshold_db:
                self._run += 1
            else:
                self._run = 0

    def detect_degradation(self) -> Optional[DegradationEvent]:
        if self._fired or self.baseline_db is None:
            return None
        if self._run < self.cfg.consecutive_required:
            return None
        self._fired = True
        w = self.cfg.regression_window
        return _degradation_event(self._times[-w:], self._snrs[-w:],
                                 self._bers[-1], self.fail_snr_db)


def _degradation_event(times, snrs, ber_now: float,
                      fail_snr_db: float) -> DegradationEvent:
    """Detection at the last of ``times``, with trend and predicted fail time.

    ``times`` and ``snrs`` are the regression window that ends at the
    detection sample.  A line fitted over it extrapolates the instant the
    SNR reaches ``fail_snr_db``; a flat or rising trend predicts none.
    """
    ts = np.array(times, dtype=float)
    ts = (ts - ts[0]) / SECOND
    slope = float(np.polyfit(ts, np.array(snrs, dtype=float), 1)[0])
    t_now = int(times[-1])
    snr_now = float(snrs[-1])
    predicted: Optional[SimTime]
    if snr_now <= fail_snr_db:
        predicted = t_now
    elif slope < 0.0:
        predicted = t_now + round((snr_now - fail_snr_db) / -slope * SECOND)
    else:
        predicted = None
    return DegradationEvent(t_detect=t_now, snr_at_detect_db=snr_now,
                            ber_at_detect=ber_now,
                            fitted_slope_db_per_s=slope,
                            predicted_t_fail=predicted)


def anticipation_time(detection: DegradationEvent, t_cross: SimTime) -> SimTime:
    """Margin between detection and the actual fail-criterion crossing."""
    margin = t_cross - detection.t_detect
    if margin < 0:
        raise DetectionTooLate(
            f"crossed at {t_cross} ns, detected only at {detection.t_detect} ns")
    return margin


@dataclass
class SoftFailWorld:
    """One freshly provisioned repetition: kernel, plant and an active service."""
    kernel: Kernel
    plant: OpticalPlant
    stack: OrchestrationStack
    record: ServiceRecord
    rng: SimRng


@dataclass
class RepetitionResult:
    detection_time_ns: SimTime
    anticipation_ns: SimTime
    predicted_anticipation_ns: Optional[SimTime]
    snr_at_detect_db: float
    ber_at_detect: float
    restored: bool


@dataclass
class SoftFailReport:
    rate_db_per_s: float
    repetitions: int
    detection_time_s: float
    anticipation_s: float
    predicted_anticipation_s: float
    mean_detection_snr_db: float
    mean_detection_ber: float
    restored_count: int
    failed_count: int
    # (seconds since ramp start, snr_db, pre_fec_ber) for the first repetition
    trace: list[tuple[float, float, float]] = field(default_factory=list)


NOISE_STREAM = 11  # a soft-failure world's telemetry noise, below its root

# The longest episode horizon in samples, about 12 days at the 1 s default
# period.  An episode's telemetry is one array of its horizon.
_MAX_EPISODE_SAMPLES = 2**20

# Sample instants are int64 nanoseconds.
_CLOCK_MAX = int(np.iinfo(np.int64).max)


def episode_horizon(cfg: DetectorConfig, model: SignalModel,
                    rate_db_per_s: float, snr_coupling: float = 1.0) -> int:
    """Samples an episode may take: the baseline window, 1,000 more, and
    twice the samples the ramp takes to lower the SNR from ``model``'s
    baseline to its fail SNR.  Raises TwinError past
    ``_MAX_EPISODE_SAMPLES``; when the last sample of an episode starting at
    time 0 passes the 64-bit clock; when one sample period of ramp takes the
    whole span, which leaves no degradation to detect before the failure;
    or when the noiseless ramp reaches the fail SNR before
    ``consecutive_required`` of its samples fall more than
    ``drop_threshold_db`` below the baseline."""
    fail_snr = model.fail_snr_db()
    span_db = model.snr0_db - fail_snr
    period = cfg.sample_period_ns
    drop = rate_db_per_s * snr_coupling  # dB/s at the receiver
    ramp = 2 * span_db / drop / (period / SECOND) if drop else math.inf
    fixed = cfg.baseline_window + 1000
    samples = fixed + int(min(ramp, _MAX_EPISODE_SAMPLES))
    if samples > _MAX_EPISODE_SAMPLES:
        raise TwinError(f"an episode needs {fixed + ramp:.4g} samples, more "
                        f"than the {_MAX_EPISODE_SAMPLES} allowed")
    if period * samples > _CLOCK_MAX:
        raise TwinError(f"an episode's {samples} samples, {period} ns apart, "
                        f"run past the 64-bit clock")
    step = drop * (period / SECOND)
    if step >= span_db:
        raise TwinError(f"the ramp lowers the SNR by {step:.4g} dB in one "
                        f"sample period, all of the {span_db:.4g} dB to the "
                        f"fail criterion")
    # the noiseless samples from one period past the ramp start, up to one
    # past where the span ends, and their level, as _scan_telemetry
    # computes them: detection needs consecutive_required of them below the
    # level by the first at or below the fail SNR
    after = period * np.arange(1, math.ceil(span_db / step) + 2,
                               dtype=np.int64)
    added = AttenuationRamp("", rate_db_per_s, 0, snr_coupling).added_db(after)
    snr = np.maximum(model.snr0_db - snr_coupling * added, LOS_FLOOR_DB)
    cross = int(np.argmax(snr <= fail_snr))
    level = float(np.mean(np.full(cfg.baseline_window, model.snr0_db))) \
        - cfg.drop_threshold_db
    below = int(np.count_nonzero(snr[:cross + 1] < level))
    if below < cfg.consecutive_required:
        raise TwinError(f"the ramp reaches the fail SNR with {below} of its "
                        f"samples more than drop_threshold_db = "
                        f"{cfg.drop_threshold_db:g} dB below the baseline, "
                        f"fewer than consecutive_required = "
                        f"{cfg.consecutive_required}")
    return samples


def _scan_telemetry(plant: OpticalPlant, path: OpticalPath, model: SignalModel,
                    cfg: DetectorConfig, fail_snr_db: float,
                    first_sample: SimTime, noise_sigma_db: float,
                    noise_rng: SimRng, samples: int,
                    trace: Optional[list[tuple[float, float, float]]],
                    ramp_start: SimTime
                    ) -> tuple[Optional[DegradationEvent], Optional[int]]:
    """Detection and fail-crossing index of one episode, or None for either.

    Sample i is the noiseless SNR at ``first_sample + i * period`` plus one
    draw of ``noise_rng``.  The crossing is the first sample whose BER is
    above the fail limit, that is whose SNR is at or below ``fail_snr_db``;
    detection is as in ``DegradationDetector``, up to the crossing.
    ``trace``, when given, receives (seconds since ramp start, SNR, BER) of
    each sample up to the crossing.
    """
    period = cfg.sample_period_ns
    if first_sample + period * (samples - 1) > _CLOCK_MAX:
        raise TwinError("telemetry stream ran past the 64-bit clock")
    times = first_sample + period * np.arange(samples, dtype=np.int64)
    snr = plant.snr_series(path, times, model)
    snr += noise_rng.normal(0.0, noise_sigma_db, size=samples)
    crossed = np.flatnonzero(snr <= fail_snr_db)
    cross = int(crossed[0]) if crossed.size else None
    end = samples if cross is None else cross + 1
    w = cfg.baseline_window
    below = snr[w:end] < float(np.mean(snr[:w])) - cfg.drop_threshold_db
    # a run's length: each position minus the last one not below
    pos = np.arange(below.size)
    runs = pos - np.maximum.accumulate(np.where(below, -1, pos))
    hits = np.flatnonzero(runs >= cfg.consecutive_required)
    event = None
    if hits.size:
        i = w + int(hits[0])
        lo = max(i + 1 - cfg.regression_window, 0)
        event = _degradation_event(times[lo:i + 1], snr[lo:i + 1],
                                   ber_from_snr(float(snr[i]), model),
                                   fail_snr_db)
    if trace is not None:
        trace.extend(((t - ramp_start) / SECOND, v, ber_from_snr(v, model))
                     for t, v in zip(times[:end].tolist(), snr[:end].tolist()))
    return event, cross


def run_softfail_case(world_factory: Callable[[int], SoftFailWorld],
                      rate_db_per_s: float,
                      repetitions: int,
                      noise_sigma_db: float,
                      detector_cfg: DetectorConfig,
                      model: SignalModel,
                      snr_coupling: float = 1.0,
                      ramp_link: Optional[str] = None,
                      keep_trace: bool = True) -> SoftFailReport:
    """Run one degradation scenario over independent repetitions.

    Each repetition provisions its own world, starts an attenuation ramp one
    period after the baseline window fills, and lets detection, alerting and
    restoration race the fail-criterion crossing.

    The telemetry of a repetition is computed up front (``_scan_telemetry``),
    so the kernel carries only the events that can change its outcome: the
    detection, which raises the alert; one event per sample instant while
    any other event is queued, so same-instant ties break by sequence
    number exactly as for one event per sample; and the crossing.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    reps: list[RepetitionResult] = []
    trace: list[tuple[float, float, float]] = []
    fail_snr = model.fail_snr_db()
    period = detector_cfg.sample_period_ns
    samples = episode_horizon(detector_cfg, model, rate_db_per_s, snr_coupling)

    for rep in range(repetitions):
        world = world_factory(rep)
        kernel, plant, stack, rec = (world.kernel, world.plant, world.stack,
                                     world.record)
        if rec.status is not ServiceStatus.ACTIVE or rec.path is None:
            raise TwinError(f"repetition {rep}: service not active before episode")
        monitored_path = rec.path  # crossing is tracked on the original arc
        link_id = ramp_link or monitored_path.links[0]
        first_sample = kernel.now() + period
        ramp_start = first_sample + (detector_cfg.baseline_window - 1) * period
        plant.apply_attenuation_ramp(AttenuationRamp(
            link_id=link_id, rate_db_per_s=rate_db_per_s,
            start_time=ramp_start, snr_coupling=snr_coupling))
        ev, cross = _scan_telemetry(
            plant, monitored_path, model, detector_cfg, fail_snr,
            first_sample, noise_sigma_db, world.rng.split(NOISE_STREAM), samples,
            trace if keep_trace and rep == 0 else None, ramp_start)
        t_last = first_sample + period * (
            samples - 1 if cross is None else cross)
        t_detect = None if ev is None else ev.t_detect

        def at_sample(t: SimTime) -> None:
            if t == t_detect:
                # detector -> parent controller, two control hops
                kernel.schedule_in(
                    2 * stack.timings.alert_hop_ns,
                    lambda: stack.handle_degradation_alert(rec, kernel.now()),
                    kind=f"{rec.request_id}:alert")
            if t == t_last:
                if cross is None:
                    raise TwinError(
                        "telemetry stream ran past its expected horizon")
                stack.notify_fail_crossing(rec, t)
                return  # stream ends once the old arc would have failed
            schedule_after(t)

        def schedule_after(t: SimTime) -> None:
            if not kernel.idle():
                nxt = t + period
            elif t_detect is not None and t_detect > t:
                nxt = t_detect
            else:
                nxt = t_last
            kernel.schedule(lambda: at_sample(nxt), nxt,
                            kind="telemetry_sample")

        schedule_after(first_sample - period)
        kernel.run_to_end()

        if ev is None:
            raise TwinError(f"repetition {rep}: episode ended without "
                            f"detection and crossing")
        predicted = (None if ev.predicted_t_fail is None
                     else ev.predicted_t_fail - ev.t_detect)
        reps.append(RepetitionResult(
            detection_time_ns=ev.t_detect - ramp_start,
            anticipation_ns=anticipation_time(ev, t_last),
            predicted_anticipation_ns=predicted,
            snr_at_detect_db=ev.snr_at_detect_db,
            ber_at_detect=ev.ber_at_detect,
            restored=rec.status is ServiceStatus.RESTORED))

    n = len(reps)
    predicted_vals = [r.predicted_anticipation_ns for r in reps
                      if r.predicted_anticipation_ns is not None]
    return SoftFailReport(
        rate_db_per_s=rate_db_per_s,
        repetitions=n,
        detection_time_s=sum(r.detection_time_ns for r in reps) / n / SECOND,
        anticipation_s=sum(r.anticipation_ns for r in reps) / n / SECOND,
        predicted_anticipation_s=(sum(predicted_vals) / len(predicted_vals)
                                  / SECOND if predicted_vals else 0.0),
        mean_detection_snr_db=sum(r.snr_at_detect_db for r in reps) / n,
        mean_detection_ber=sum(r.ber_at_detect for r in reps) / n,
        restored_count=sum(1 for r in reps if r.restored),
        failed_count=sum(1 for r in reps if not r.restored),
        trace=trace)
