"""Telemetry analytics: soft-failure detection and anticipation accounting.

The detector watches a once-per-period SNR stream from the monitored path.
It learns a baseline from the first window of samples, then fires when a run
of consecutive samples sits below baseline minus a drop threshold.  At
detection it fits a linear SNR trend and extrapolates the time the signal
will cross the fail criterion.  ``run_softfail_case`` replays the whole
episode (ramp, detection, alert, restoration race) over fresh worlds,
scanning their telemetry in blocks of one row an episode, and aggregates
per-repetition results.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from typing import Callable, NamedTuple, Optional

import numpy as np

from .controlplane import OrchestrationStack, ServiceRecord, ServiceStatus
from .errors import OutOfOrderSample, TwinError
from .optics import (AttenuationRamp, SignalModel, SNR_COUPLING,
                     TelemetrySample, ber_from_snr, ramped_snr)
from .simkernel import Kernel, KeyTable, SECOND, SimRng, SimTime
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


def _fit_terms(times) -> tuple[list[float], float]:
    """Each of ``times`` (int ns) in seconds since the first, less their mean,
    and the sum of their squares: alike for windows of one length and period."""
    ts = [(t - times[0]) / SECOND for t in times]
    t_bar = math.fsum(ts) / len(ts)
    dts = [t - t_bar for t in ts]
    return dts, math.fsum([d * d for d in dts])


def _degradation_event(times, snrs, ber_now: float, fail_snr_db: float,
                       terms=None) -> DegradationEvent:
    """Detection at the last of ``times``, with trend and predicted fail time.

    ``times`` (int ns) and ``snrs`` are the regression window, sequences of
    at least two samples that end at the detection sample, and ``terms``
    their ``_fit_terms``, computed here if not given.  Their least-squares
    line, in exactly rounded float sums, extrapolates the instant the SNR
    reaches ``fail_snr_db``; a flat or rising trend predicts none.
    """
    dts, sxx = terms or _fit_terms(times)
    y_bar = math.fsum(snrs) / len(snrs)
    slope = math.fsum([d * (y - y_bar) for d, y in zip(dts, snrs)]) / sxx
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
    # the first repetition's trace, when kept: a Table of each sample's
    # seconds since ramp start, SNR in dB and pre-FEC BER up to the crossing
    trace: Sequence[list[float]]


class Table(Sequence):
    """Report rows kept as numeric ``columns``, a row the numbers at one
    index of each.  ``cells`` gives each column's conversion spec, such as
    ".3f": its cells are written quoted, as ``"%" + spec`` formats them, or,
    where the spec is None, as the number itself, bare (an int's).  With
    ``keys``, plain names, a row is an object of them.  A row reads as
    exactly the JSON value a report writes for it, a dict or a list, and a
    slice as a list of rows."""

    def __init__(self, columns: Sequence[Sequence[float]],
                 cells: Sequence[Optional[str]],
                 keys: Optional[Sequence[str]] = None) -> None:
        self.columns, self.cells, self.keys = columns, cells, keys

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self._row([column[i] for column in self.columns])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def _row(self, values) -> list | dict:
        row = [x if spec is None else ("%" + spec) % x
               for spec, x in zip(self.cells, values)]
        return row if self.keys is None else dict(zip(self.keys, row))


NOISE_STREAM = 11  # a soft-failure world's telemetry noise, below its root

# The longest episode horizon in samples, about 12 days at the 1 s default
# period.  An episode's telemetry is at most one array of its horizon.
_MAX_EPISODE_SAMPLES = 2**20

# The samples of a block of episodes' first draws, scanned together: enough
# to share numpy's cost per call among dozens of episodes, and no more.
_BLOCK_SAMPLES = 8192

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
    # past where the span ends, and their level, as _scan_block computes
    # them: detection needs consecutive_required of them below the
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


def _scan_block(snr: np.ndarray, cfg: DetectorConfig, fail_snr_db: float
                ) -> list[tuple[Optional[int], Optional[int]]]:
    """Each row's crossing, its first sample at or below ``fail_snr_db``
    (whose BER is above the fail limit), and its detection as in
    ``DegradationDetector`` up to the crossing: indices, or None."""
    rows = np.arange(len(snr))
    cross = (snr <= fail_snr_db).argmax(axis=1)  # 0 where none crosses
    crossed = snr[rows, cross] <= fail_snr_db
    w, k = cfg.baseline_window, cfg.consecutive_required
    below = snr[:, w:] < (snr[:, :w].sum(axis=1) / w
                          - cfg.drop_threshold_db)[:, None]
    for r in np.flatnonzero(crossed).tolist():  # no sample past it counts
        below[r, max(int(cross[r]) + 1 - w, 0):] = False
    # run[:, j]: the span samples from j on are all below; span doubles up
    # to k.  episode_horizon leaves k samples past the window, so run has one
    run, span = below, 1
    while span < k:
        step = min(span, k - span)
        run, span = run[:, :-step] & run[:, step:], span + step
    hit = run.argmax(axis=1)
    return [(c if x else None, w + h + k - 1 if f else None)
            for c, x, h, f in zip(cross.tolist(), crossed.tolist(),
                                  hit.tolist(), run[rows, hit].tolist())]


def _scan_episodes(keys: KeyTable, roots: list[tuple[int, ...]],
                   noiseless: Callable[[int], np.ndarray], cfg: DetectorConfig,
                   fail_snr_db: float, noise_sigma_db: float, samples: int,
                   first: int) -> dict:
    """By (``keys``, root), each root's episode: its SNR samples up to its
    crossing, or all ``samples``, and its ``_scan_block`` indices.  Sample i
    is ``noiseless(0)[i]``, or ``noiseless(1)[i - first]`` from ``first`` on,
    plus the root's noise stream's i-th draw; an episode that does not cross
    by ``first`` draws the rest and is scanned as a block of its own."""
    rngs = [SimRng(keys, root + (NOISE_STREAM,)) for root in roots]
    block = np.empty((len(roots), first))
    for row, rng in zip(block, rngs):
        row[:] = rng.normal(0.0, noise_sigma_db, size=first)
    block += noiseless(0)
    episodes = {}
    for root, rng, snr, (cross, detect) in zip(
            roots, rngs, block, _scan_block(block, cfg, fail_snr_db)):
        if cross is None and first < samples:
            snr = np.concatenate((snr, noiseless(1) + rng.normal(
                0.0, noise_sigma_db, size=samples - first)))
            (cross, detect), = _scan_block(snr[None], cfg, fail_snr_db)
        end = samples if cross is None else cross + 1
        episodes[keys, root] = snr[:end], cross, detect
    return episodes


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

    The telemetry of a repetition is computed up front, so the kernel
    carries only the events that can change its outcome: the detection,
    which raises the alert; one event per sample instant while any other
    event is queued, so same-instant ties break by sequence number exactly
    as for one event per sample; and the crossing.  A world whose root has
    no scanned episode scans it with those of the next roots of its key
    table, up to the case's end and ``_BLOCK_SAMPLES`` first-draw samples.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    reps: list[RepetitionResult] = []
    trace: Sequence[list[float]] = []
    fail_snr = model.fail_snr_db()
    period = detector_cfg.sample_period_ns
    samples, crossing = episode_horizon(detector_cfg, model, rate_db_per_s,
                                        snr_coupling)
    # noise lifts a sample by more than 6 sigma about once in 1e9 draws: the
    # first draw ends where the ramp has fallen that far past the crossing
    step = rate_db_per_s * snr_coupling * period / SECOND  # dB a sample
    first = min(samples, crossing + math.ceil(6 * noise_sigma_db / step) + 1)
    # a ramp starts baseline_window - 1 periods in, on ramp_link or the path's
    # first: sample i's noiseless SNR depends on the monitored path alone.
    # By path: its noiseless pieces, and the episodes scanned but not run
    paths: dict[tuple[str, ...], tuple[list[np.ndarray], dict]] = {}
    # the _fit_terms of every window of regression_window samples
    full = _fit_terms(range(0, detector_cfg.regression_window * period, period))

    active, restored = ServiceStatus.ACTIVE, ServiceStatus.RESTORED
    lead = (detector_cfg.baseline_window - 1) * period  # to the ramp start
    for rep in range(repetitions):
        kernel, stack, rec = world_factory(rep)
        if rec.status is not active or rec.path is None:
            raise TwinError(f"repetition {rep}: service not active before episode")
        monitored = rec.path.links  # crossing is tracked on the original arc
        first_sample = kernel.now + period
        ramp_start = first_sample + lead
        link = ramp_link or monitored[0]
        if link not in stack.ring.links:
            raise TwinError(f"ramp_link: no link {link!r} in the ring")
        if first_sample + period * (samples - 1) > _CLOCK_MAX:
            raise TwinError("telemetry stream ran past the 64-bit clock")
        by_path = paths.get(monitored)
        if by_path is None:
            by_path = paths[monitored] = ([], {})
        pieces, scanned = by_path
        key = stack.keys, stack.root
        if key not in scanned:  # the first of a block: scan it and those after
            ramps = [AttenuationRamp(link, rate_db_per_s, ramp_start,
                                     snr_coupling)] if link in monitored else []

            def noiseless(piece: int) -> np.ndarray:  # once for each path
                if len(pieces) == piece:
                    pieces.append(ramped_snr(model, first_sample + period * (
                        np.arange(*((0, first), (first, samples))[piece],
                                  dtype=np.int64)), ramps))
                return pieces[piece]

            at = stack.keys.row[stack.root]
            scanned.update(_scan_episodes(
                stack.keys, stack.keys.roots[at:at + min(
                    max(1, _BLOCK_SAMPLES // first), repetitions - rep)],
                noiseless, detector_cfg, fail_snr, noise_sigma_db, samples,
                first))
        snr, cross, i = scanned.pop(key)
        times = range(first_sample, first_sample + period * len(snr), period)
        ev = None
        if i is not None:
            lo = max(i + 1 - detector_cfg.regression_window, 0)
            ev = _degradation_event(times[lo:i + 1], snr[lo:i + 1].tolist(),
                                    ber_from_snr(float(snr[i]), model),
                                    fail_snr, full if lo else None)
        if keep_trace and rep == 0:
            # BER on Python floats: numpy's power rounds some values apart
            snrs = array("d", snr.tobytes())
            trace = Table([array("d", [(t - ramp_start) / SECOND
                                       for t in times]), snrs,
                           array("d", [ber_from_snr(x, model) for x in snrs])],
                          (None,) * 3)
        t_last = first_sample + period * (
            samples - 1 if cross is None else cross)
        t_detect = None if ev is None else ev.t_detect

        schedule, idle = kernel.schedule, kernel.idle

        def tick() -> None:
            t = kernel.now  # the sample instant
            if t == t_detect:
                # detector -> parent controller, two control hops
                schedule(
                    lambda: stack.handle_degradation_alert(rec, kernel.now),
                    t + 2 * stack.timings.alert_hop_ns,
                    stack.plan.labels["alert"])
            if t == t_last:
                if cross is None:
                    raise TwinError(
                        "telemetry stream ran past its expected horizon")
                stack.notify_fail_crossing(rec, t)
                return  # stream ends once the old arc would have failed
            if not idle():
                t += period
            elif t_detect is not None and t_detect > t:
                t = t_detect
            else:
                t = t_last
            schedule(tick, t, "telemetry_sample")

        # a world with events still queued is sampled from the first sample
        # on; an idle one, as a deployed world is, from the detection, or the
        # crossing if none: nothing before it can change the outcome
        schedule(tick, first_sample if not idle()
                 else t_last if t_detect is None else t_detect,
                 "telemetry_sample")
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
            restored=rec.status is restored))
    # the sample closure refers to itself: unbound, it no longer keeps the
    # last world and its key table alive until a collection
    del tick

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
