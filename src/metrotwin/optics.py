"""Physical-layer models.

Round-trip propagation follows 2*L*n/c with n the fiber group index.  The
receiver SNR starts from a configurable baseline and falls dB-for-dB (scaled
by a coupling factor) with attenuation added on the path; pre-FEC BER uses
the per-bit QPSK mapping

    BER = 1/2 * erfc( sqrt( 10^((SNR_dB - penalty_dB)/10) / 2 ) )

where the implementation penalty calibrates the ideal curve to hardware
SNR/BER operating points.  Attenuation ramps are linear in time and are
evaluated in closed form at any instant; the ring's links are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfcinv

from .errors import IllegalTransition, PathNotOperational, RampConflict
from .simkernel import Kernel, SECOND, SimRng, SimTime
from .topology import (
    OpticalPath,
    RingTopology,
    TransponderNode,
    TransponderState,
)

SPEED_OF_LIGHT_M_PER_S = 299792458.0

# Receiver SNR is clamped here and treated as loss-of-signal below it.
LOS_FLOOR_DB = -10.0

BER_FLOOR = 1e-300
BER_CEIL = 0.5

# Jitter applied to transponder phase durations when sampling is enabled.
TRANSPONDER_JITTER_CV = 0.02


@dataclass
class AttenuationRamp:
    """Linear added-loss ramp on one link, e.g. a motorised attenuator."""

    link_id: str
    rate_db_per_s: float
    start_time: SimTime
    snr_coupling: float = 1.0  # dB of SNR lost per dB of added attenuation

    def __post_init__(self) -> None:
        if self.rate_db_per_s <= 0:
            raise ValueError("ramp rate must be positive")
        if not 0 < self.snr_coupling <= 1.5:
            raise ValueError("snr_coupling outside (0, 1.5]")

    def added_db(self, t: SimTime | np.ndarray) -> np.ndarray:
        """Added loss in dB at ``t``, a SimTime or an int64 array of them.

        Zero up to and including the ramp start.
        """
        return np.where(t > self.start_time,
                        self.rate_db_per_s * (t - self.start_time) / SECOND,
                        0.0)


@dataclass
class SignalModel:
    """Receiver baseline and fail criterion.

    The default baseline of 21.84 dB back-propagates the slow-ramp operating
    point to zero added loss; 0.25 dB of implementation penalty lines the
    ideal QPSK curve up with measured SNR/BER pairs.  The fail criterion
    defaults to the common HD-FEC pre-FEC BER limit.
    """

    snr0_db: float = 21.84
    implementation_penalty_db: float = 0.25
    fail_ber_above: Optional[float] = 3.8e-3
    fail_snr_below_db: Optional[float] = None

    def __post_init__(self) -> None:
        if self.implementation_penalty_db < 0:
            raise ValueError("implementation penalty must be >= 0")
        if self.fail_ber_above is None and self.fail_snr_below_db is None:
            raise ValueError("signal model needs a fail criterion")
        if self.fail_ber_above is not None \
                and not BER_FLOOR < self.fail_ber_above < BER_CEIL:
            raise ValueError(f"fail_ber_above must lie in ({BER_FLOOR}, "
                             f"{BER_CEIL}); got {self.fail_ber_above!r}")
        fail_snr = self.fail_snr_db()
        # below the LOS floor the receiver has lost the signal, and the
        # clamped SNR of a noiseless ramp never goes there
        if fail_snr < LOS_FLOOR_DB:
            raise ValueError(f"fail threshold {fail_snr!r} dB must not sit "
                             f"below the LOS floor of {LOS_FLOOR_DB} dB")
        if not self.snr0_db > fail_snr:
            raise ValueError("baseline SNR must sit above the fail threshold")

    def fail_snr_db(self) -> float:
        """SNR at which the fail criterion is crossed."""
        if self.fail_snr_below_db is not None:
            return self.fail_snr_below_db
        return snr_from_ber(self.fail_ber_above, self)


@dataclass(frozen=True)
class TelemetrySample:
    t: SimTime
    snr_db: float
    pre_fec_ber: float


def rt_propagation_delay(length_m: float, group_index: float) -> int:
    """Round-trip propagation delay in integer nanoseconds (nearest)."""
    if length_m < 0:
        raise ValueError("length must be >= 0")
    if not 1.0 <= group_index <= 2.0:
        raise ValueError("group index outside [1, 2]")
    return round(2.0 * length_m * group_index / SPEED_OF_LIGHT_M_PER_S * 1e9)


def ber_from_snr(snr_db: float, model: SignalModel) -> float:
    """Pre-FEC BER for a given receiver SNR, clamped to [1e-300, 0.5].

    Strictly decreasing in SNR until the floor clamp.
    """
    lin = 10.0 ** ((snr_db - model.implementation_penalty_db) / 10.0)
    ber = 0.5 * math.erfc(math.sqrt(lin / 2.0))
    return min(max(ber, BER_FLOOR), BER_CEIL)


def snr_from_ber(ber: float, model: SignalModel) -> float:
    """The SNR at which ``ber_from_snr`` gives ``ber``; its inverse."""
    x = float(erfcinv(2.0 * ber))
    return 10.0 * math.log10(2.0 * x * x) + model.implementation_penalty_db


def transponder_lifecycle(
    tp: TransponderNode,
    configure_at: SimTime,
    kernel: Kernel,
    rng: Optional[SimRng] = None,
) -> list[tuple[SimTime, TransponderState]]:
    """Drive a transponder Off -> Configuring -> LaserWarmup -> Operational.

    Durations come from the node's nominal config/warm-up times; when ``rng``
    is given they are lognormal draws with coefficient of variation
    ``TRANSPONDER_JITTER_CV``, otherwise exact.  Returns the planned (time,
    state) schedule; the state mutations happen as kernel events fire.
    """
    if tp.state is not TransponderState.OFF or tp.lifecycle_pending:
        raise IllegalTransition(
            f"transponder {tp.id} is {tp.state.value}, lifecycle needs Off")
    if rng is None:
        config_ns = tp.config_duration_ns
        warmup_ns = tp.warmup_duration_ns
    else:
        config_ns = round(rng.lognormal_mean_cv(
            tp.config_duration_ns / SECOND, TRANSPONDER_JITTER_CV) * SECOND)
        warmup_ns = round(rng.lognormal_mean_cv(
            tp.warmup_duration_ns / SECOND, TRANSPONDER_JITTER_CV) * SECOND)

    schedule = [
        (configure_at, TransponderState.CONFIGURING),
        (configure_at + config_ns, TransponderState.LASER_WARMUP),
        (configure_at + config_ns + warmup_ns, TransponderState.OPERATIONAL),
    ]
    tp.lifecycle_pending = True

    def make_setter(state: TransponderState):
        def setter() -> None:
            tp.state = state
        return setter

    for at, state in schedule:
        kernel.schedule(make_setter(state), at, kind=f"tp:{tp.id}:{state.value}")
    return schedule


def transponder_teardown(tp: TransponderNode) -> None:
    """Any state back to Off; releases the claim."""
    tp.state = TransponderState.OFF
    tp.lifecycle_pending = False
    tp.claimed_by = None


class OpticalPlant:
    """Time-varying physical state: ramps, receiver SNR, telemetry.

    Ramps are kept here, one per link, and the receiver SNR at any instant
    is computed from them; the ring's ``FiberLink`` objects stay unchanged.
    """

    def __init__(self, topo: RingTopology):
        self.topo = topo
        self._ramps: dict[str, AttenuationRamp] = {}  # link id -> ramp

    def apply_attenuation_ramp(self, ramp: AttenuationRamp) -> None:
        if ramp.link_id not in self.topo.links:
            raise KeyError(f"unknown link {ramp.link_id!r}")
        if ramp.link_id in self._ramps:
            raise RampConflict(f"link {ramp.link_id} already has an active ramp")
        self._ramps[ramp.link_id] = ramp

    def _require_operational(self, path: OpticalPath) -> None:
        if path.channel is None:
            raise PathNotOperational(f"path {path.source}->{path.destination} has no channel")
        for tp_id in (path.source, path.destination):
            tp = self.topo.transponders[tp_id]
            if tp.state is not TransponderState.OPERATIONAL:
                raise PathNotOperational(f"transponder {tp_id} is {tp.state.value}")

    def snr_series(self, path: OpticalPath, times: np.ndarray,
                   model: SignalModel) -> np.ndarray:
        """Noiseless receiver SNR at each of ``times`` (int64 ns).

        Baseline SNR minus the coupled added loss of each ramped link in
        path order, LOS-clamped.
        """
        self._require_operational(path)
        snr = np.full(times.shape, model.snr0_db)
        for link_id in path.links:
            ramp = self._ramps.get(link_id)
            if ramp is not None:
                snr -= ramp.snr_coupling * ramp.added_db(times)
        return np.maximum(snr, LOS_FLOOR_DB)

    def snr_at_receiver(self, path: OpticalPath, t: SimTime, model: SignalModel) -> float:
        """Noiseless receiver SNR at one instant; see ``snr_series``."""
        return float(self.snr_series(path, np.array([t], dtype=np.int64),
                                     model)[0])

    def sample_telemetry(self, path: OpticalPath, t: SimTime, model: SignalModel,
                         noise_sigma_db: float, rng: SimRng) -> TelemetrySample:
        snr = self.snr_at_receiver(path, t, model)
        if noise_sigma_db:
            snr += rng.normal(0.0, noise_sigma_db)
        return TelemetrySample(t=t, snr_db=snr, pre_fec_ber=ber_from_snr(snr, model))
