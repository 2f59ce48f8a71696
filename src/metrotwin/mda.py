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
from .optics import AttenuationRamp, OpticalPlant, SignalModel, TelemetrySample
from .simkernel import Kernel, SECOND, SimRng, SimTime
from .topology import RingTopology


@dataclass(frozen=True)
class DetectorConfig:
    sample_period_ns: int = SECOND
    baseline_window: int = 60
    drop_threshold_db: float = 0.5
    consecutive_required: int = 3
    regression_window: int = 30


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
        w = min(self.cfg.regression_window, len(self._times))
        ts = np.array(self._times[-w:], dtype=float)
        ts = (ts - ts[0]) / SECOND
        snrs = np.array(self._snrs[-w:], dtype=float)
        slope = float(np.polyfit(ts, snrs, 1)[0])
        t_now = self._times[-1]
        snr_now = self._snrs[-1]
        predicted: Optional[SimTime]
        if snr_now <= self.fail_snr_db:
            predicted = t_now
        elif slope < 0.0:
            predicted = t_now + round((snr_now - self.fail_snr_db) / -slope * SECOND)
        else:
            predicted = None
        return DegradationEvent(t_detect=t_now, snr_at_detect_db=snr_now,
                                ber_at_detect=self._bers[-1],
                                fitted_slope_db_per_s=slope,
                                predicted_t_fail=predicted)

    def reset_episode(self) -> None:
        """Forget everything; the next episode relearns its baseline."""
        self._times.clear()
        self._snrs.clear()
        self._bers.clear()
        self.baseline_db = None
        self._run = 0
        self._fired = False


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
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    reps: list[RepetitionResult] = []
    trace: list[tuple[float, float, float]] = []

    for rep in range(repetitions):
        world = world_factory(rep)
        kernel, plant, stack, rec = (world.kernel, world.plant, world.stack,
                                     world.record)
        if rec.status is not ServiceStatus.ACTIVE or rec.path is None:
            raise TwinError(f"repetition {rep}: service not active before episode")
        monitored_path = rec.path  # crossing is tracked on the original arc
        link_id = ramp_link or monitored_path.links[0]
        period = detector_cfg.sample_period_ns
        first_sample = kernel.now() + period
        ramp_start = first_sample + (detector_cfg.baseline_window - 1) * period
        plant.apply_attenuation_ramp(AttenuationRamp(
            link_id=link_id, rate_db_per_s=rate_db_per_s,
            start_time=ramp_start, snr_coupling=snr_coupling))

        fail_snr = model.fail_snr_db()
        detector = DegradationDetector(detector_cfg, fail_snr)
        noise_rng = world.rng.split(11)
        state: dict = {"event": None, "t_cross": None}
        span_db = model.snr0_db - fail_snr
        sample_cap = detector_cfg.baseline_window + 1000 + int(
            2 * span_db / (rate_db_per_s * max(snr_coupling, 1e-9))
            / (period / SECOND))

        def take_sample(count: int = 0) -> None:
            t = kernel.now()
            s = plant.sample_telemetry(monitored_path, t, model,
                                       noise_sigma_db, noise_rng)
            if keep_trace and rep == 0:
                trace.append(((t - ramp_start) / SECOND, s.snr_db, s.pre_fec_ber))
            detector.ingest_sample(s)
            if state["event"] is None:
                ev = detector.detect_degradation()
                if ev is not None:
                    state["event"] = ev
                    # detector -> parent controller, two control hops
                    kernel.schedule_in(
                        2 * stack.timings.alert_hop_ns,
                        lambda: stack.handle_degradation_alert(rec, kernel.now()),
                        kind=f"{rec.request_id}:alert")
            crossed = (s.snr_db <= fail_snr
                       or (model.fail_ber_above is not None
                           and s.pre_fec_ber >= model.fail_ber_above))
            if state["t_cross"] is None and crossed:
                state["t_cross"] = t
                stack.notify_fail_crossing(rec, t)
                return  # stream ends once the old arc would have failed
            if count + 1 >= sample_cap:
                raise TwinError("telemetry stream ran past its expected horizon")
            kernel.schedule_in(period, lambda: take_sample(count + 1),
                               kind="telemetry_sample")

        kernel.schedule(lambda: take_sample(0), first_sample,
                        kind="telemetry_sample")
        kernel.run_to_end()

        ev = state["event"]
        t_cross = state["t_cross"]
        if ev is None or t_cross is None:
            raise TwinError(f"repetition {rep}: episode ended without "
                            f"detection and crossing")
        predicted = (None if ev.predicted_t_fail is None
                     else ev.predicted_t_fail - ev.t_detect)
        reps.append(RepetitionResult(
            detection_time_ns=ev.t_detect - ramp_start,
            anticipation_ns=anticipation_time(ev, t_cross),
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
