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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .controlplane import OrchestrationStack, ServiceRecord, ServiceStatus
from .errors import DetectionTooLate, OutOfOrderSample, TwinError
from .optics import (AttenuationRamp, OpticalPlant, SignalModel,
                     TelemetrySample, ber_from_snr, snr_from_ber)
from .simkernel import Kernel, SECOND, SimRng, SimTime
from .topology import OpticalPath, RingTopology


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

    def reset_episode(self) -> None:
        """Forget everything; the next episode relearns its baseline."""
        self._times.clear()
        self._snrs.clear()
        self._bers.clear()
        self.baseline_db = None
        self._run = 0
        self._fired = False


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
    topo: RingTopology
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
    per_rep: list[RepetitionResult] = field(default_factory=list)
    # (seconds since ramp start, snr_db, pre_fec_ber) for the first repetition
    trace: list[tuple[float, float, float]] = field(default_factory=list)


# Samples computed per numpy block.  A scan stops at the block that holds
# the crossing, so a slow ramp never allocates its whole horizon at once.
_BLOCK = 1024

# Samples up to this far above the highest SNR that meets a fail criterion
# are tested with the exact fail predicate.  BER falls as SNR rises, and
# snr_from_ber inverts ber_from_snr to within 2e-14 dB (a sweep of
# fail_ber_above from 1e-299 up to the LOS floor limit, penalties 0 to
# 10 dB), so a sample beyond the margin cannot meet the BER criterion.
_CROSS_MARGIN_DB = 1e-6

# Sample instants are int64 nanoseconds.
_CLOCK_MAX = int(np.iinfo(np.int64).max)


def _crossed(snr_db: float, fail_snr_db: float, model: SignalModel) -> bool:
    return (snr_db <= fail_snr_db
            or (model.fail_ber_above is not None
                and ber_from_snr(snr_db, model) >= model.fail_ber_above))


def _scan_telemetry(plant: OpticalPlant, path: OpticalPath, model: SignalModel,
                    cfg: DetectorConfig, fail_snr_db: float, cross_snr_db: float,
                    first_sample: SimTime, noise_sigma_db: float,
                    noise_rng: SimRng, sample_cap: int,
                    trace: Optional[list[tuple[float, float, float]]],
                    ramp_start: SimTime
                    ) -> tuple[Optional[DegradationEvent], Optional[int]]:
    """Detection and fail crossing of one episode's telemetry.

    Sample i is taken at ``first_sample + i * period``: the noiseless SNR
    plus one draw of ``noise_rng``.  Detection follows
    ``DegradationDetector``: the baseline is the mean of the first
    ``baseline_window`` samples, and the detector fires on the first later
    sample that completes ``consecutive_required`` consecutive readings
    below baseline minus threshold.  The crossing is the first sample that
    meets the fail criterion, which no sample above ``cross_snr_db`` can;
    the scan ends there, or after ``sample_cap`` samples.  Returns the
    detection, unless it comes after the crossing, and the crossing's
    sample index.  ``trace``, when given, receives
    (seconds since ramp start, SNR, BER) of each sample up to the end.
    """
    period = cfg.sample_period_ns
    head: list[np.ndarray] = []  # blocks until the baseline window is full
    tail = np.empty(0)           # the samples before this block, for the fit
    level: Optional[float] = None
    run = 0                      # below-level readings ending the last block
    event: Optional[DegradationEvent] = None
    cross: Optional[int] = None
    n = 0
    while cross is None and n < sample_cap:
        k = min(_BLOCK, sample_cap - n)
        if first_sample + period * (n + k - 1) > _CLOCK_MAX:
            raise TwinError("telemetry stream ran past the 64-bit clock")
        snr = plant.snr_series(
            path, first_sample + period * np.arange(n, n + k, dtype=np.int64),
            model)
        snr += noise_rng.normal(0.0, noise_sigma_db, size=k)
        for j in np.flatnonzero(snr <= cross_snr_db + _CROSS_MARGIN_DB):
            if _crossed(float(snr[j]), fail_snr_db, model):
                cross = n + int(j)
                break
        if level is None:
            head.append(snr)
            if n + k >= cfg.baseline_window:
                baseline = float(np.mean(
                    np.concatenate(head)[:cfg.baseline_window]))
                level = baseline - cfg.drop_threshold_db
        if event is None and level is not None:
            lo = max(cfg.baseline_window - n, 0)
            below = snr[lo:] < level
            pos = np.arange(below.size)
            runs = pos - np.maximum.accumulate(np.where(below, -1 - run, pos))
            hits = np.flatnonzero(runs >= cfg.consecutive_required)
            if hits.size:
                j = lo + int(hits[0])
                if cross is None or n + j <= cross:
                    window = np.concatenate(
                        (tail, snr[:j + 1]))[-cfg.regression_window:]
                    times = first_sample + period * np.arange(
                        n + j + 1 - window.size, n + j + 1, dtype=np.int64)
                    event = _degradation_event(
                        times, window, ber_from_snr(float(snr[j]), model),
                        fail_snr_db)
            elif runs.size:
                run = int(runs[-1])
        if event is None:
            tail = np.concatenate((tail, snr))[-cfg.regression_window:]
        if trace is not None:
            scanned = snr[:k if cross is None else cross - n + 1].tolist()
            trace.extend(((first_sample + (n + i) * period - ramp_start)
                          / SECOND, v, ber_from_snr(v, model))
                         for i, v in enumerate(scanned))
        n += k
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
    # with both criteria set, the BER limit may be met above fail_snr
    cross_snr = fail_snr if model.fail_ber_above is None else max(
        fail_snr, snr_from_ber(model.fail_ber_above, model))
    span_db = model.snr0_db - fail_snr
    period = detector_cfg.sample_period_ns

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
        sample_cap = detector_cfg.baseline_window + 1000 + int(
            2 * span_db / (rate_db_per_s * max(snr_coupling, 1e-9))
            / (period / SECOND))
        ev, cross = _scan_telemetry(
            plant, monitored_path, model, detector_cfg, fail_snr, cross_snr,
            first_sample, noise_sigma_db, world.rng.split(11), sample_cap,
            trace if keep_trace and rep == 0 else None, ramp_start)
        t_last = first_sample + period * (
            sample_cap - 1 if cross is None else cross)
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
        per_rep=reps,
        trace=trace)
