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
from typing import Iterable, NamedTuple

import numpy as np

from .errors import PathNotOperational, RampConflict
from .simkernel import SECOND, SimRng, SimTime
from .topology import Frozen, OpticalPath, Record, RingState, TransponderState

SPEED_OF_LIGHT_M_PER_S = 299792458.0

# Receiver SNR is clamped here and treated as loss-of-signal below it.
LOS_FLOOR_DB = -10.0

BER_FLOOR = 1e-300
BER_CEIL = 0.5
# dB of SNR over the penalty well past where the BER drops below BER_FLOOR
_FLOOR_ABOVE_PENALTY_DB = 40.0

# The coefficient of variation of a transponder phase's duration under jitter.
TRANSPONDER_JITTER_CV = 0.02

# The dB of SNR an attenuation ramp costs per dB of added loss, by default.
SNR_COUPLING = 1.0


class AttenuationRamp(Record):
    """Linear added-loss ramp on one link, e.g. a motorised attenuator;
    ``snr_coupling`` is the dB of SNR lost per dB of added attenuation."""

    __slots__ = ("link_id", "rate_db_per_s", "start_time", "snr_coupling")

    def __init__(self, link_id: str, rate_db_per_s: float,
                 start_time: SimTime,
                 snr_coupling: float = SNR_COUPLING) -> None:
        if rate_db_per_s <= 0:
            raise ValueError("ramp rate must be positive")
        if not 0 < snr_coupling <= 1.5:
            raise ValueError("snr_coupling outside (0, 1.5]")
        self.link_id, self.rate_db_per_s = link_id, rate_db_per_s
        self.start_time, self.snr_coupling = start_time, snr_coupling

    def added_db(self, t: SimTime | np.ndarray) -> np.ndarray:
        """Added loss in dB at ``t``, a SimTime or an int64 array of them.

        Zero up to and including the ramp start.
        """
        return np.where(t > self.start_time,
                        self.rate_db_per_s * (t - self.start_time) / SECOND,
                        0.0)


class SignalModel(Frozen):
    """Receiver baseline and fail criterion.

    The default baseline of 21.84 dB back-propagates the slow-ramp operating
    point to zero added loss; 0.25 dB of implementation penalty lines the
    ideal QPSK curve up with measured SNR/BER pairs.  A sample fails when its
    pre-FEC BER is above ``fail_ber_above``, by default the common HD-FEC
    limit.
    """

    __slots__ = ("snr0_db", "implementation_penalty_db", "fail_ber_above",
                 "_fail_snr_db")

    def __init__(self, snr0_db: float = 21.84,
                 implementation_penalty_db: float = 0.25,
                 fail_ber_above: float = 3.8e-3) -> None:
        if implementation_penalty_db < 0:
            raise ValueError("implementation penalty must be >= 0")
        if not BER_FLOOR < fail_ber_above < BER_CEIL:
            raise ValueError(f"fail_ber_above must lie in ({BER_FLOOR}, "
                             f"{BER_CEIL}); got {fail_ber_above!r}")
        self._set(snr0_db=snr0_db,
                  implementation_penalty_db=implementation_penalty_db,
                  fail_ber_above=fail_ber_above)
        # bisected once: the model is frozen
        self._set(_fail_snr_db=snr_from_ber(fail_ber_above, self))
        fail_snr = self.fail_snr_db()
        # below the LOS floor the receiver has lost the signal, and the
        # clamped SNR of a noiseless ramp never goes there
        if fail_snr < LOS_FLOOR_DB:
            raise ValueError(f"fail threshold {fail_snr!r} dB must not sit "
                             f"below the LOS floor of {LOS_FLOOR_DB} dB")
        if not self.snr0_db > fail_snr:
            raise ValueError("baseline SNR must sit above the fail threshold")

    def fail_snr_db(self) -> float:
        """The largest SNR whose BER is above ``fail_ber_above``: a sample
        fails exactly when its SNR is at or below it."""
        return self._fail_snr_db


class TelemetrySample(NamedTuple):
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

    Strictly decreasing in SNR until the floor clamp; capping the SNR where
    the floor holds keeps it finite for every finite SNR.
    """
    # the comparisons pick what min and max would, for a NaN too; a report's
    # trace calls this once per row, and the two builtins cost as much as
    # the rest of the body
    above = snr_db - model.implementation_penalty_db
    if _FLOOR_ABOVE_PENALTY_DB < above:
        above = _FLOOR_ABOVE_PENALTY_DB
    ber = 0.5 * math.erfc(math.sqrt(10.0 ** (above / 10.0) / 2.0))
    if BER_FLOOR > ber:
        return BER_FLOOR
    return BER_CEIL if BER_CEIL < ber else ber


def snr_from_ber(ber: float, model: SignalModel) -> float:
    """The inverse of ``ber_from_snr``: the largest float SNR at which it
    gives more than ``ber``, for ``ber`` in (BER_FLOOR, BER_CEIL).

    Bisects over floats.  The BER depends on SNR minus the penalty only; it
    rounds to BER_CEIL 400 dB below the penalty and is clamped to BER_FLOOR
    ``_FLOOR_ABOVE_PENALTY_DB`` above it, which brackets every such ``ber``.
    """
    lo = model.implementation_penalty_db - 400.0
    hi = model.implementation_penalty_db + _FLOOR_ABOVE_PENALTY_DB
    while True:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            return lo
        if ber_from_snr(mid, model) > ber:
            lo = mid
        else:
            hi = mid


def ramped_snr(model: SignalModel, times: np.ndarray,
               ramps: Iterable[AttenuationRamp]) -> np.ndarray:
    """Noiseless receiver SNR at each of ``times`` (int64 ns): ``model``'s
    baseline minus the coupled added loss of each of ``ramps`` in turn,
    LOS-clamped."""
    snr = np.full(times.shape, model.snr0_db, dtype=float)
    for ramp in ramps:
        snr -= ramp.snr_coupling * ramp.added_db(times)
    return np.maximum(snr, LOS_FLOOR_DB)


class OpticalPlant:
    """Time-varying physical state: ramps, receiver SNR, telemetry.

    Ramps are kept here, one per link, and the receiver SNR at any instant
    is computed from them; the shared ring is never written.  No world
    builds one: an episode's scan computes its series with ``ramped_snr``,
    and the plant samples one instant at a time for the per-sample oracle.
    """

    def __init__(self, state: RingState):
        self.state = state
        self._ramps: dict[str, AttenuationRamp] = {}  # link id -> ramp

    def apply_attenuation_ramp(self, ramp: AttenuationRamp) -> None:
        if ramp.link_id not in self.state.ring.links:
            raise KeyError(f"unknown link {ramp.link_id!r}")
        if ramp.link_id in self._ramps:
            raise RampConflict(f"link {ramp.link_id} already has an active ramp")
        self._ramps[ramp.link_id] = ramp

    def _require_operational(self, path: OpticalPath) -> None:
        if path.channel is None:
            raise PathNotOperational(f"path {path.source}->{path.destination} has no channel")
        for tp_id in (path.source, path.destination):
            tp = self.state.transponders[tp_id]
            if tp.state is not TransponderState.OPERATIONAL:
                raise PathNotOperational(f"transponder {tp_id} is {tp.state.value}")

    def snr_series(self, path: OpticalPath, times: np.ndarray,
                   model: SignalModel) -> np.ndarray:
        """``ramped_snr`` at each of ``times`` of the ramps on ``path``'s
        links, in path order."""
        self._require_operational(path)
        return ramped_snr(model, times, [
            self._ramps[link_id] for link_id in path.links
            if link_id in self._ramps])

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
