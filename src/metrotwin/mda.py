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
from collections.abc import Sequence
from typing import Callable, NamedTuple, Optional

import numpy as np

from .controlplane import OrchestrationStack, ServiceRecord, ServiceStatus
from .errors import OutOfOrderSample, TwinError
from .optics import (AttenuationRamp, SignalModel, SNR_COUPLING,
                     TelemetrySample, ber_from_snr, ramped_snr)
from .simkernel import Kernel, SECOND, SimRng, SimTime
from .topology import Frozen


class DetectorConfig(Frozen):
    __slots__ = ("sample_period_ns", "baseline_window", "drop_threshold_db",
                 "consecutive_required", "regression_window")

    def __init__(self, sample_period_ns: int = SECOND,
                 baseline_window: int = 60, drop_threshold_db: float = 0.5,
                 consecutive_required: int = 3,
                 regression_window: int = 30) -> None:
        self._set(sample_period_ns=sample_period_ns,
                  baseline_window=baseline_window,
                  drop_threshold_db=drop_threshold_db,
                  consecutive_required=consecutive_required,
                  regression_window=regression_window)
        for name, least in (("sample_period_ns", 1), ("baseline_window", 1),
                            ("consecutive_required", 1),
                            ("regression_window", 2)):
            value = getattr(self, name)
            if not value >= least:
                raise ValueError(f"{name} must be >= {least}; got {value!r}")


class DegradationEvent(NamedTuple):
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
        elif n > self.cfg.baseline_window:
            below = s.snr_db < self.baseline_db - self.cfg.drop_threshold_db
            self._run = self._run + 1 if below else 0

    def detect_degradation(self) -> Optional[DegradationEvent]:
        # the run stays 0 until the baseline is known
        if self._fired or self._run < self.cfg.consecutive_required:
            return None
        self._fired = True
        w = self.cfg.regression_window
        return _degradation_event(self._times[-w:], self._snrs[-w:],
                                 self._bers[-1], self.fail_snr_db)


def _degradation_event(times, snrs, ber_now: float,
                      fail_snr_db: float) -> DegradationEvent:
    """Detection at the last of ``times``, with trend and predicted fail time.

    ``times`` (int ns) and ``snrs`` are the regression window, sequences of
    at least two samples that end at the detection sample.  Their least-squares
    line, in exactly rounded float sums, extrapolates the instant the SNR
    reaches ``fail_snr_db``; a flat or rising trend predicts none.
    """
    ts = [(t - times[0]) / SECOND for t in times]
    t_bar, y_bar = math.fsum(ts) / len(ts), math.fsum(snrs) / len(snrs)
    slope = (math.fsum([(t - t_bar) * (y - y_bar) for t, y in zip(ts, snrs)])
             / math.fsum([(t - t_bar) * (t - t_bar) for t in ts]))
    t_now, snr_now = int(times[-1]), float(snrs[-1])
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
    return t_cross - detection.t_detect


class SoftFailWorld(NamedTuple):
    """One freshly provisioned repetition: its kernel, and the stack and
    record of its active service; the stack holds the world's key table
    and root, below which its noise stream lies."""
    kernel: Kernel
    stack: OrchestrationStack
    record: ServiceRecord


class RepetitionResult(NamedTuple):
    detection_time_ns: SimTime
    anticipation_ns: SimTime
    predicted_anticipation_ns: Optional[SimTime]
    snr_at_detect_db: float
    ber_at_detect: float
    restored: bool


class SoftFailReport(NamedTuple):
    rate_db_per_s: float
    repetitions: int
    detection_time_s: float
    anticipation_s: float
    predicted_anticipation_s: float
    mean_detection_snr_db: float
    mean_detection_ber: float
    restored_count: int
    failed_count: int
    # the first repetition's EpisodeTrace, when kept
    trace: Sequence[tuple[float, float, float]]


class EpisodeTrace(Sequence):
    """(seconds since ramp start, SNR in dB, pre-FEC BER) of each sample of
    an episode up to its crossing.

    It keeps the sample instants and SNR values as the scan computed them;
    a row, and its BER, is built only when it is read.
    """

    def __init__(self, times: range, snr: np.ndarray, ramp_start: SimTime,
                 model: SignalModel) -> None:
        self.times, self.snr = times, snr
        self.ramp_start, self.model = ramp_start, model

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> tuple[float, float, float]:
        snr = float(self.snr[i])
        return ((self.times[i] - self.ramp_start) / SECOND, snr,
                ber_from_snr(snr, self.model))

    def __iter__(self):
        ramp_start, model = self.ramp_start, self.model
        for t, snr in zip(self.times, self.snr.tolist()):
            yield (t - ramp_start) / SECOND, snr, ber_from_snr(snr, model)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


NOISE_STREAM = 11  # a soft-failure world's telemetry noise, below its root

# The longest episode horizon in samples, about 12 days at the 1 s default
# period.  An episode's telemetry is at most one array of its horizon.
_MAX_EPISODE_SAMPLES = 2**20

# Sample instants are int64 nanoseconds.
_CLOCK_MAX = int(np.iinfo(np.int64).max)


def episode_horizon(cfg: DetectorConfig, model: SignalModel,
                    rate_db_per_s: float, snr_coupling: float = SNR_COUPLING
                    ) -> tuple[int, int]:
    """Samples an episode may take, and the index of its first noiseless
    sample at or below the fail SNR.  The samples are the baseline window,
    1,000 more, and twice the samples the ramp takes to lower the SNR from
    ``model``'s baseline to its fail SNR.  Raises TwinError past
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
    snr = ramped_snr(model, after,
                     [AttenuationRamp("", rate_db_per_s, 0, snr_coupling)])
    cross = int(np.argmax(snr <= fail_snr))
    w = cfg.baseline_window
    level = np.full(w, model.snr0_db).sum() / w - cfg.drop_threshold_db
    below = int(np.count_nonzero(snr[:cross + 1] < level))
    if below < cfg.consecutive_required:
        raise TwinError(f"the ramp reaches the fail SNR with {below} of its "
                        f"samples more than drop_threshold_db = "
                        f"{cfg.drop_threshold_db:g} dB below the baseline, "
                        f"fewer than consecutive_required = "
                        f"{cfg.consecutive_required}")
    return samples, cfg.baseline_window + cross


def _scan_telemetry(ramps: list[AttenuationRamp], model: SignalModel,
                    cfg: DetectorConfig, fail_snr_db: float,
                    first_sample: SimTime, noise_sigma_db: float,
                    noise_rng: SimRng, samples: int, first: int,
                    noiseless: list[np.ndarray]
                    ) -> tuple[Optional[DegradationEvent], Optional[int],
                               range, np.ndarray]:
    """Detection and fail-crossing index of one episode, or None for either,
    and the instants and SNR values of its samples up to the crossing.

    Sample i is the noiseless SNR at ``first_sample + i * period`` under
    ``ramps``, the ramps on the monitored path (``ramped_snr``), plus one
    draw of ``noise_rng``.  The crossing is the first sample whose BER is
    above the fail limit, that is whose SNR is at or below ``fail_snr_db``;
    detection is as in ``DegradationDetector``, up to the crossing.  The
    first ``first`` samples are drawn, and the rest of the ``samples`` only
    when none of those crosses.  ``noiseless`` holds the pieces' noiseless
    SNR that earlier episodes computed; this one adds what it lacks.
    """
    period = cfg.sample_period_ns
    if first_sample + period * (samples - 1) > _CLOCK_MAX:
        raise TwinError("telemetry stream ran past the 64-bit clock")

    def draw(piece: int, lo: int, hi: int) -> np.ndarray:
        if len(noiseless) == piece:  # no earlier episode needed it
            times = first_sample + period * np.arange(lo, hi, dtype=np.int64)
            noiseless.append(ramped_snr(model, times, ramps))
        return noiseless[piece] + noise_rng.normal(0.0, noise_sigma_db,
                                                   size=hi - lo)

    snr = draw(0, 0, first)
    low = snr <= fail_snr_db
    if first < samples and not low[low.argmax()]:
        snr = np.concatenate((snr, draw(1, first, samples)))
        low = snr <= fail_snr_db
    cross = int(low.argmax())  # the first crossing, or 0 when there is none
    end = cross + 1 if low[cross] else samples
    times = range(first_sample, first_sample + period * end, period)
    w = cfg.baseline_window
    below = snr[w:end] < snr[:w].sum() / w - cfg.drop_threshold_db
    # run[j]: the span samples from j on are all below; span doubles up to k
    run, span, k = below, 1, cfg.consecutive_required
    while span < k:
        step = min(span, k - span)
        run, span = run[:-step] & run[step:], span + step
    hits = np.flatnonzero(run)
    event = None
    if hits.size:
        i = w + int(hits[0]) + k - 1
        lo = max(i + 1 - cfg.regression_window, 0)
        event = _degradation_event(times[lo:i + 1], snr[lo:i + 1].tolist(),
                                   ber_from_snr(float(snr[i]), model),
                                   fail_snr_db)
    return event, cross if low[cross] else None, times, snr[:end]


def run_softfail_case(world_factory: Callable[[int], SoftFailWorld],
                      rate_db_per_s: float,
                      repetitions: int,
                      noise_sigma_db: float,
                      detector_cfg: DetectorConfig,
                      model: SignalModel,
                      snr_coupling: float = SNR_COUPLING,
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
    trace: Sequence[tuple[float, float, float]] = []
    fail_snr = model.fail_snr_db()
    period = detector_cfg.sample_period_ns
    samples, crossing = episode_horizon(detector_cfg, model, rate_db_per_s,
                                        snr_coupling)
    # noise lifts a sample by more than 6 sigma about once in 1e9 draws: the
    # first draw ends where the ramp has fallen that far past the crossing
    step = rate_db_per_s * snr_coupling * period / SECOND  # dB a sample
    first = min(samples, crossing + math.ceil(6 * noise_sigma_db / step) + 1)
    # a ramp starts baseline_window - 1 periods in, on ramp_link or the path's
    # first: sample i's noiseless SNR depends on the monitored path alone
    noiseless: dict[tuple[str, ...], list[np.ndarray]] = {}

    for rep in range(repetitions):
        kernel, stack, rec = world_factory(rep)
        if rec.status is not ServiceStatus.ACTIVE or rec.path is None:
            raise TwinError(f"repetition {rep}: service not active before episode")
        monitored_path = rec.path  # crossing is tracked on the original arc
        first_sample = kernel.now() + period
        ramp_start = first_sample + (detector_cfg.baseline_window - 1) * period
        ramp = AttenuationRamp(ramp_link or monitored_path.links[0],
                               rate_db_per_s, ramp_start, snr_coupling)
        if ramp.link_id not in stack.ring.links:
            raise TwinError(f"ramp_link: no link {ramp.link_id!r} in the ring")
        ev, cross, times, snr = _scan_telemetry(
            [ramp] if ramp.link_id in monitored_path.links else [], model,
            detector_cfg, fail_snr, first_sample, noise_sigma_db,
            SimRng(stack.keys, stack.root + (NOISE_STREAM,)), samples, first,
            noiseless.setdefault(monitored_path.links, []))
        if keep_trace and rep == 0:
            trace = EpisodeTrace(times, snr, ramp_start, model)
        t_last = first_sample + period * (
            samples - 1 if cross is None else cross)
        t_detect = None if ev is None else ev.t_detect

        def at_sample(t: SimTime) -> None:
            if t == t_detect:
                # detector -> parent controller, two control hops
                kernel.schedule_in(
                    2 * stack.timings.alert_hop_ns,
                    lambda: stack.handle_degradation_alert(rec, kernel.now()),
                    kind=(rec.request_id, "alert"))
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
