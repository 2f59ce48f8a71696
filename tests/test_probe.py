import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_section, tabled
from metrotwin.errors import PathNotOperational, RankDeficient, Underdetermined
from metrotwin.probe import (BudgetReport, LatencyMeasurement, ProbeConfig,
                             budget_from_config, estimate_rt_propagation,
                             fit_budget, measure_round_trip,
                             noiseless_round_trip)
from metrotwin.topology import (OpticalPath, RingState, TransponderState,
                                build_ring)


def lit_path(state, channel=0):
    direct = [p for p in state.ring.arcs[("tp1", "tp2")]
              if p.links == ("r1-r2",)][0]
    for tp in state.transponders.values():
        tp.state = TransponderState.OPERATIONAL
    return OpticalPath(direct.source, direct.destination, direct.links,
                       direct.roadms, direct.direction, channel)


def measure(path, state, cfg, rng=None):
    return measure_round_trip(path, state, cfg,
                              noiseless_round_trip(path, state.ring, cfg), rng)


def test_measure_is_prop_plus_overheads():
    state = RingState(build_ring(ring_section()))
    path = lit_path(state)
    cfg = ProbeConfig()
    m = measure(path, state, cfg)
    assert m.estimated_rt_prop_ns == estimate_rt_propagation(79969.5, 1.4680)
    assert m.measured_rt_ns == m.estimated_rt_prop_ns + 15230
    assert m.link_length_m == pytest.approx(79969.5)


def test_legacy_residual_is_additive():
    sec = ring_section()
    sec["links"][0]["legacy_residual_delay_ns"] = 717377
    state = RingState(build_ring(sec))
    m = measure(lit_path(state), state, ProbeConfig())
    assert m.delta_ns == 15230 + 717377


def test_requires_operational_endpoints():
    state = RingState(build_ring(ring_section()))
    path = lit_path(state)
    state.transponders["tp1"].state = TransponderState.CONFIGURING
    with pytest.raises(PathNotOperational):
        measure(path, state, ProbeConfig())
    dark = OpticalPath(path.source, path.destination, path.links, path.roadms,
                       path.direction, None)
    with pytest.raises(PathNotOperational):
        measure(dark, state, ProbeConfig())


def test_probe_jitter_seeded():
    state = RingState(build_ring(ring_section()))
    path = lit_path(state)
    cfg = ProbeConfig(jitter_sigma_ns=200)
    a = measure(path, state, cfg, rng=tabled(1)).measured_rt_ns
    b = measure(path, state, cfg, rng=tabled(1)).measured_rt_ns
    c = measure(path, state, cfg, rng=tabled(2)).measured_rt_ns
    assert a == b != c


@settings(max_examples=50, deadline=None)
@given(sigma=st.integers(min_value=1, max_value=10**9),
       seed=st.integers(min_value=0, max_value=2**64))
def test_jittered_shot_never_beats_light(sigma, seed):
    state = RingState(build_ring(ring_section()))
    m = measure(lit_path(state), state, ProbeConfig(jitter_sigma_ns=sigma),
                rng=tabled(seed))
    assert m.measured_rt_ns >= m.estimated_rt_prop_ns


# budget fitting


def test_fit_budget_identity():
    names = ["probe", "switches", "optics"]
    x = np.array([840.0, 1290.0, 13100.0])
    a = [[1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]]
    deltas = np.asarray(a) @ x
    rep = fit_budget(deltas, a, names)
    for name, want in zip(names, x):
        assert rep.components_ns[name] == pytest.approx(want, rel=1e-9)
    assert rep.residual_rms_ns == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50_000),
                min_size=2, max_size=4),
       st.integers(min_value=0, max_value=2 ** 31))
def test_fit_budget_round_trip(components, mix_seed):
    k = len(components)
    rng = np.random.default_rng(mix_seed)
    a = np.vstack([np.eye(k, dtype=int), rng.integers(0, 3, size=(3, k))])
    deltas = a @ np.array(components)  # exact integer measurements
    rep = fit_budget(deltas, a.tolist(), [f"c{i}" for i in range(k)])
    for i, want in enumerate(components):
        assert rep.components_ns[f"c{i}"] == pytest.approx(want, abs=1e-6)


def test_fit_budget_reads_a_measurement_as_its_delta():
    a = [[1, 0], [0, 1], [1, 1]]
    deltas = [840, 1290, 2135]
    ms = [LatencyMeasurement(0.0, 5000 + d, 5000) for d in deltas]
    assert fit_budget(ms, a, ["p", "s"]) == fit_budget(deltas, a, ["p", "s"])


def test_fit_budget_underdetermined():
    with pytest.raises(Underdetermined):
        fit_budget([100.0], [[1, 1]], ["a", "b"])


def test_fit_budget_rank_deficient():
    # second column is a copy of the first
    a = [[1, 1], [2, 2], [3, 3]]
    with pytest.raises(RankDeficient):
        fit_budget([10, 20, 30], a, ["a", "b"])


def test_budget_from_config():
    cfg = ProbeConfig()
    rep = budget_from_config(cfg, [15230, 15230])
    assert sum(rep.components_ns.values()) == pytest.approx(15230.0)
    assert rep.residual_rms_ns == pytest.approx(0.0)
    assert set(rep.components_ns) == {"probe", "aggregation_switches",
                                      "optical_path_devices"}
    off = budget_from_config(cfg, [15240])
    assert off.residual_rms_ns == pytest.approx(10.0)
