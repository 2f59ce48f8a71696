import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_section
from metrotwin.errors import (IllegalTransition, PathNotOperational,
                              RampConflict)
from metrotwin.optics import (AttenuationRamp, BER_CEIL, BER_FLOOR,
                              LOS_FLOOR_DB, OpticalPlant, SignalModel,
                              ber_from_snr, rt_propagation_delay,
                              snr_from_ber, transponder_lifecycle,
                              transponder_teardown)
from metrotwin.simkernel import Kernel, SECOND, SimRng
from metrotwin.topology import TransponderState, build_ring, find_ring_paths

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
    # thresholds below the LOS floor, which a clamped SNR never reaches
    {"fail_ber_above": 0.45},
    {"fail_ber_above": None, "fail_snr_below_db": -10.5},
], ids=["ber-0", "ber-negative", "ber-above-half", "ber-nan", "ber-below-los",
        "snr-below-los"])
def test_signal_model_rejects_unreachable_fail_criterion(kwargs):
    with pytest.raises(ValueError):
        SignalModel(**kwargs)


def test_signal_model_accepts_threshold_at_los_floor():
    # the clamped SNR equals the floor, which meets "at or below"
    model = SignalModel(fail_ber_above=None, fail_snr_below_db=LOS_FLOOR_DB)
    assert model.fail_snr_db() == LOS_FLOOR_DB


def test_snr_from_ber_inverts_ber_from_snr():
    model = SignalModel(implementation_penalty_db=1.5)
    for ber in (1e-200, 1e-5, 3.8e-3, 0.3):
        snr = snr_from_ber(ber, model)
        assert ber_from_snr(snr, model) == pytest.approx(ber, rel=1e-9)


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
    topo = build_ring(ring_section())
    paths = find_ring_paths("tp1", "tp2", topo)
    direct = [p for p in paths if p.links == ("r1-r2",)][0]
    path = type(direct)(direct.source, direct.destination, direct.links,
                        direct.roadms, direct.direction, 0)
    for tp in topo.transponders.values():
        tp.state = TransponderState.OPERATIONAL
    return topo, path


def test_snr_with_ramp_and_coupling():
    topo, path = _operational_world()
    plant = OpticalPlant(topo)
    model = SignalModel()
    t0 = 100 * SECOND
    plant.apply_attenuation_ramp(AttenuationRamp(
        link_id="r1-r2", rate_db_per_s=0.5, start_time=t0, snr_coupling=0.4))
    assert plant.snr_at_receiver(path, t0, model) == pytest.approx(21.84)
    # 10 s in: 5 dB added, coupled at 0.4 -> 2 dB off the baseline
    assert plant.snr_at_receiver(path, t0 + 10 * SECOND, model) == pytest.approx(19.84)


def test_snr_clamped_at_los_floor():
    topo, path = _operational_world()
    plant = OpticalPlant(topo)
    plant.apply_attenuation_ramp(AttenuationRamp(
        link_id="r1-r2", rate_db_per_s=10.0, start_time=0))
    snr = plant.snr_at_receiver(path, 1000 * SECOND, SignalModel())
    assert snr == LOS_FLOOR_DB  # clamped, so at or below the LOS floor


def test_ramp_conflict():
    topo, _ = _operational_world()
    plant = OpticalPlant(topo)
    plant.apply_attenuation_ramp(AttenuationRamp("r1-r2", 0.1, 0))
    with pytest.raises(RampConflict):
        plant.apply_attenuation_ramp(AttenuationRamp("r1-r2", 0.2, 0))


def test_sampling_requires_operational_path():
    topo, path = _operational_world()
    plant = OpticalPlant(topo)
    dark = type(path)(path.source, path.destination, path.links, path.roadms,
                      path.direction, None)
    with pytest.raises(PathNotOperational):
        plant.sample_telemetry(dark, 0, SignalModel(), 0.0, SimRng(1))
    topo.transponders["tp2"].state = TransponderState.LASER_WARMUP
    with pytest.raises(PathNotOperational):
        plant.sample_telemetry(path, 0, SignalModel(), 0.0, SimRng(1))


def test_telemetry_noise_is_seeded():
    topo, path = _operational_world()
    plant = OpticalPlant(topo)
    model = SignalModel()
    a = plant.sample_telemetry(path, 0, model, 0.3, SimRng(5)).snr_db
    b = plant.sample_telemetry(path, 0, model, 0.3, SimRng(5)).snr_db
    c = plant.sample_telemetry(path, 0, model, 0.3, SimRng(6)).snr_db
    assert a == b and a != c
    clean = plant.sample_telemetry(path, 0, model, 0.0, SimRng(5))
    assert clean.snr_db == pytest.approx(21.84)
    assert clean.pre_fec_ber == pytest.approx(ber_from_snr(21.84, model))


def test_transponder_lifecycle_timeline():
    topo, _ = _operational_world()
    tp = topo.transponders["tp1"]
    transponder_teardown(tp)
    k = Kernel()
    plan = transponder_lifecycle(tp, 48 * SECOND, k)
    assert [s for _, s in plan] == [TransponderState.CONFIGURING,
                                    TransponderState.LASER_WARMUP,
                                    TransponderState.OPERATIONAL]
    assert plan[1][0] == 50 * SECOND
    assert plan[2][0] == 175 * SECOND
    with pytest.raises(IllegalTransition):
        transponder_lifecycle(tp, 48 * SECOND, k)  # schedule already pending
    k.run_until(60 * SECOND)
    assert tp.state is TransponderState.LASER_WARMUP
    k.run_to_end()
    assert tp.state is TransponderState.OPERATIONAL
    with pytest.raises(IllegalTransition):
        transponder_lifecycle(tp, k.now(), k)  # not Off
    transponder_teardown(tp)
    assert tp.state is TransponderState.OFF


def test_transponder_lifecycle_jitter_draws():
    topo, _ = _operational_world()
    tp = topo.transponders["tp1"]
    transponder_teardown(tp)
    k = Kernel()
    plan = transponder_lifecycle(tp, 0, k, rng=SimRng(3))
    config = plan[1][0]
    warmup = plan[2][0] - plan[1][0]
    assert config != 2 * SECOND  # jittered
    assert abs(config - 2 * SECOND) < 0.5 * SECOND
    assert abs(warmup - 125 * SECOND) < 20 * SECOND
