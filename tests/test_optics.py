import math
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ring_section, tabled
from metrotwin.errors import PathNotOperational, RampConflict
from metrotwin.optics import (AttenuationRamp, BER_CEIL, BER_FLOOR,
                              LOS_FLOOR_DB, OpticalPlant, SignalModel,
                              ber_from_snr, rt_propagation_delay,
                              snr_from_ber)
from metrotwin.simkernel import SECOND
from metrotwin.topology import RingState, TransponderState, build_ring

mpmath.mp.dps = 60


def oracle_ber(snr_db, penalty_db=0.25):
    lin = mpmath.mpf(10) ** ((mpmath.mpf(snr_db) - penalty_db) / 10)
    return float(mpmath.erfc(mpmath.sqrt(lin / 2)) / 2)


def test_propagation_rounding():
    # 2.1 m at n=1.4680: 2 * 2.1 * 1.4680 / c = 20.566 ns -> 21
    assert rt_propagation_delay(2.1, 1.4680) == 21
    assert rt_propagation_delay(0.0, 1.4680) == 0
    # scales linearly with both length and index
    base = rt_propagation_delay(10_000.0, 1.0)
    assert rt_propagation_delay(20_000.0, 1.0) == pytest.approx(2 * base, abs=1)
    assert rt_propagation_delay(10_000.0, 1.5) == pytest.approx(1.5 * base, abs=1)


def test_ber_matches_high_precision_oracle():
    model = SignalModel()
    for snr in (0.0, 5.0, 8.78, 12.0, 15.15, 14.28, 20.0, 25.0):
        got = ber_from_snr(snr, model)
        want = oracle_ber(snr)
        assert abs(got - want) <= 1e-9 * want


def test_ber_clamps():
    model = SignalModel()
    # 0.5 is an asymptote from below; the guard just keeps it a hard ceiling
    assert ber_from_snr(-200.0, model) == pytest.approx(BER_CEIL, abs=1e-9)
    assert ber_from_snr(-200.0, model) <= BER_CEIL
    assert ber_from_snr(80.0, model) == BER_FLOOR


def uncapped_ber(snr_db, penalty_db):
    """ber_from_snr without its cap; it overflows past about 3,080 dB."""
    lin = 10.0 ** ((snr_db - penalty_db) / 10.0)
    return min(max(0.5 * math.erfc(math.sqrt(lin / 2.0)), BER_FLOOR),
               BER_CEIL)


@settings(max_examples=300, deadline=None)
@example(5000.0, 0.25)
@example(31.5, 0.0)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, allow_infinity=False))
def test_ber_is_total_over_finite_snr(snr, penalty):
    # ber_from_snr and snr_from_ber read only the penalty
    model = SimpleNamespace(implementation_penalty_db=penalty)
    try:
        want = uncapped_ber(snr, penalty)
    except OverflowError:
        want = BER_FLOOR
    assert ber_from_snr(snr, model) == want


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-5.0, max_value=24.0),
       st.floats(min_value=0.01, max_value=3.0))
def test_ber_strictly_decreasing(snr, step):
    model = SignalModel()
    lo = ber_from_snr(snr, model)
    hi = ber_from_snr(snr + step, model)
    assert hi <= lo


def test_fail_snr_inverts_fail_ber():
    model = SignalModel()
    fail_snr = model.fail_snr_db()
    assert ber_from_snr(fail_snr, model) == pytest.approx(model.fail_ber_above,
                                                          rel=1e-9)
    # one grid step above the threshold must be healthy
    assert ber_from_snr(fail_snr + 0.01, model) < model.fail_ber_above


def test_signal_model_rejects_unworkable_baseline():
    with pytest.raises(ValueError):
        SignalModel(snr0_db=5.0)  # below the fail threshold, nothing to monitor


@pytest.mark.parametrize("kwargs", [
    {"fail_ber_above": 0.0},
    {"fail_ber_above": -0.1},
    {"fail_ber_above": 0.6},
    {"fail_ber_above": float("nan")},
    # a threshold below the LOS floor, which a clamped SNR never reaches
    {"fail_ber_above": 0.45},
], ids=["ber-0", "ber-negative", "ber-above-half", "ber-nan", "ber-below-los"])
def test_signal_model_rejects_unreachable_fail_criterion(kwargs):
    with pytest.raises(ValueError):
        SignalModel(**kwargs)


def test_snr_from_ber_inverts_ber_from_snr():
    model = SignalModel(implementation_penalty_db=1.5)
    for ber in (1e-200, 1e-5, 3.8e-3, 0.3):
        snr = snr_from_ber(ber, model)
        assert ber_from_snr(snr, model) == pytest.approx(ber, rel=1e-9)


@settings(max_examples=300, deadline=None)
@example(3.8e-3, 0.25)
@given(st.floats(min_value=1e-299, max_value=BER_CEIL, exclude_max=True),
       st.floats(min_value=0.0, max_value=10.0))
def test_snr_from_ber_is_the_float_boundary(ber, penalty):
    # ber_from_snr and snr_from_ber read only the penalty
    model = SimpleNamespace(implementation_penalty_db=penalty)
    snr = snr_from_ber(ber, model)
    assert ber_from_snr(snr, model) > ber
    assert not ber_from_snr(math.nextafter(snr, math.inf), model) > ber


def test_ramp_added_db():
    ramp = AttenuationRamp(link_id="r1-r2", rate_db_per_s=0.25,
                           start_time=10 * SECOND)
    assert ramp.added_db(5 * SECOND) == 0.0
    assert ramp.added_db(10 * SECOND) == 0.0
    assert ramp.added_db(14 * SECOND) == pytest.approx(1.0)


def test_ramp_validation():
    with pytest.raises(ValueError):
        AttenuationRamp(link_id="x", rate_db_per_s=0.0, start_time=0)
    with pytest.raises(ValueError):
        AttenuationRamp(link_id="x", rate_db_per_s=0.1, start_time=0,
                        snr_coupling=2.0)


def _operational_world():
    state = RingState(build_ring(ring_section()))
    paths = state.ring.arcs[("tp1", "tp2")]
    direct = [p for p in paths if p.links == ("r1-r2",)][0]
    path = type(direct)(direct.source, direct.destination, direct.links,
                        direct.roadms, direct.direction, 0)
    for tp in state.transponders.values():
        tp.state = TransponderState.OPERATIONAL
    return state, path


def test_snr_with_ramp_and_coupling():
    state, path = _operational_world()
    plant = OpticalPlant(state)
    model = SignalModel()
    t0 = 100 * SECOND
    plant.apply_attenuation_ramp(AttenuationRamp(
        link_id="r1-r2", rate_db_per_s=0.5, start_time=t0, snr_coupling=0.4))
    assert plant.snr_at_receiver(path, t0, model) == pytest.approx(21.84)
    # 10 s in: 5 dB added, coupled at 0.4 -> 2 dB off the baseline
    assert plant.snr_at_receiver(path, t0 + 10 * SECOND, model) == pytest.approx(19.84)


def test_snr_clamped_at_los_floor():
    state, path = _operational_world()
    plant = OpticalPlant(state)
    plant.apply_attenuation_ramp(AttenuationRamp(
        link_id="r1-r2", rate_db_per_s=10.0, start_time=0))
    snr = plant.snr_at_receiver(path, 1000 * SECOND, SignalModel())
    assert snr == LOS_FLOOR_DB  # clamped, so at or below the LOS floor


def test_ramp_conflict():
    state, _ = _operational_world()
    plant = OpticalPlant(state)
    plant.apply_attenuation_ramp(AttenuationRamp("r1-r2", 0.1, 0))
    with pytest.raises(RampConflict):
        plant.apply_attenuation_ramp(AttenuationRamp("r1-r2", 0.2, 0))


def test_sampling_requires_operational_path():
    state, path = _operational_world()
    plant = OpticalPlant(state)
    dark = type(path)(path.source, path.destination, path.links, path.roadms,
                      path.direction, None)
    with pytest.raises(PathNotOperational):
        plant.sample_telemetry(dark, 0, SignalModel(), 0.0, tabled(1))
    state.transponders["tp2"].state = TransponderState.LASER_WARMUP
    with pytest.raises(PathNotOperational):
        plant.sample_telemetry(path, 0, SignalModel(), 0.0, tabled(1))


def test_telemetry_noise_is_seeded():
    state, path = _operational_world()
    plant = OpticalPlant(state)
    model = SignalModel()
    a = plant.sample_telemetry(path, 0, model, 0.3, tabled(5)).snr_db
    b = plant.sample_telemetry(path, 0, model, 0.3, tabled(5)).snr_db
    c = plant.sample_telemetry(path, 0, model, 0.3, tabled(6)).snr_db
    assert a == b and a != c
    clean = plant.sample_telemetry(path, 0, model, 0.0, tabled(5))
    assert clean.snr_db == pytest.approx(21.84)
    assert clean.pre_fec_ber == pytest.approx(ber_from_snr(21.84, model))
