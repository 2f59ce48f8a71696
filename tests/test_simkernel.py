import io
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR
from metrotwin import simkernel
from metrotwin.errors import RunawaySimulation, SchedulingInPast
from metrotwin.scenario import build_world, load_scenario
from metrotwin.simkernel import Kernel, SECOND, SimRng


def test_events_fire_in_time_order():
    k = Kernel()
    fired = []
    k.schedule(lambda: fired.append("c"), 30)
    k.schedule(lambda: fired.append("a"), 10)
    k.schedule(lambda: fired.append("b"), 20)
    k.run_to_end()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_schedule_order():
    k = Kernel()
    fired = []
    for tag in "xyz":
        k.schedule(lambda t=tag: fired.append(t), 5)
    k.run_to_end()
    assert fired == ["x", "y", "z"]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40))
def test_firing_order_matches_sorted_times(times):
    k = Kernel()
    fired = []
    for i, t in enumerate(times):
        k.schedule(lambda i=i: fired.append(i), t)
    k.run_to_end()
    # stable sort by fire time == (time, insertion) ordering
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert fired == expected


def test_now_advances_only_through_events():
    k = Kernel()
    seen = []
    k.schedule(lambda: seen.append(k.now()), 42)
    assert k.now() == 0
    k.run_to_end()
    assert seen == [42]
    assert k.now() == 42


def test_schedule_in_past_raises():
    k = Kernel()
    k.schedule(lambda: None, 100)
    k.run_to_end()
    with pytest.raises(SchedulingInPast):
        k.schedule(lambda: None, 99)


def test_events_may_schedule_at_current_time():
    k = Kernel()
    fired = []
    k.schedule(lambda: k.schedule(lambda: fired.append("nested"), k.now()), 10)
    k.run_to_end()
    assert fired == ["nested"]


def test_run_until_leaves_clock_at_horizon():
    k = Kernel()
    fired = []
    k.schedule(lambda: fired.append(1), 10)
    k.schedule(lambda: fired.append(2), 50)
    n = k.run_until(30)
    assert n == 1 and fired == [1]
    assert k.now() == 30
    k.run_to_end()
    assert fired == [1, 2]


def test_run_to_end_returns_last_fire_time():
    k = Kernel()
    k.schedule(lambda: None, 7)
    k.schedule(lambda: None, 19)
    assert k.run_to_end() == 19
    assert k.run_to_end() == k.now()  # empty queue


def test_event_cap_raises_runaway():
    k = Kernel(event_cap=25)

    def rearm():
        k.schedule_in(1, rearm)

    k.schedule(rearm, 0)
    with pytest.raises(RunawaySimulation):
        k.run_to_end()


def test_trace_lines():
    sink = io.StringIO()
    k = Kernel(trace=sink)
    k.schedule(lambda: None, 5, kind="ping")
    k.schedule(lambda: None, 9, kind="pong")
    k.run_to_end()
    assert sink.getvalue() == "5,0,ping\n9,1,pong\n"


def test_seconds_round_trip():
    assert SECOND == 1_000_000_000


# rng


def test_rng_reproducible_and_split_independent():
    a = SimRng(1234)
    b = SimRng(1234)
    assert [a.normal(0, 1) for _ in range(5)] == [b.normal(0, 1) for _ in range(5)]

    c = SimRng(1234).split(1)
    d = SimRng(1234).split(2)
    assert c.normal(0, 1) != d.normal(0, 1)
    # split order must not matter
    assert SimRng(9, (3,)).split(4).normal(0, 1) == SimRng(9).split(3, 4).normal(0, 1)


def test_rng_zero_sigma_is_exact():
    r = SimRng(0)
    assert r.normal(40.0, 0.0) == 40.0
    assert r.lognormal_mean_cv(125.0, 0.0) == 125.0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.5, max_value=200.0),
       st.floats(min_value=0.005, max_value=0.3))
def test_lognormal_mean_cv_parameterisation(mean, cv):
    draws = [SimRng(42).split(i).lognormal_mean_cv(mean, cv) for i in range(400)]
    assert all(x > 0 for x in draws)
    sample_mean = sum(draws) / len(draws)
    assert abs(sample_mean - mean) / mean < 6 * cv / 20  # 6 sigma of the mean estimate


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 130),
       key=st.lists(st.integers(min_value=0, max_value=2 ** 66), max_size=6),
       cut=st.integers(min_value=0, max_value=6),
       size=st.integers(min_value=1, max_value=9),
       mean=st.floats(min_value=0.5, max_value=200.0),
       cv=st.floats(min_value=0.005, max_value=0.3))
def test_rng_draws_equal_numpy_seed_sequence(seed, key, cut, size, mean, cv):
    key = tuple(key)
    oracle = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=key)))
    sigma2 = math.log1p(cv * cv)
    expected = [oracle.normal(1.5, 2.0), *oracle.normal(1.5, 2.0, size),
                oracle.lognormal(math.log(mean) - sigma2 / 2.0,
                                 math.sqrt(sigma2)),
                oracle.normal(1.5, 2.0)]
    streams = [SimRng(seed, key), SimRng(seed).split(*key),
               reduce(SimRng.split, key, SimRng(seed)),
               SimRng(seed, key[:cut]).split(*key[cut:])]
    for rng in streams:
        assert rng.spawn_key == key
        assert [rng.normal(1.5, 2.0), *rng.normal(1.5, 2.0, size),
                rng.lognormal_mean_cv(mean, cv),
                rng.normal(1.5, 2.0)] == expected


def test_streams_build_a_generator_only_when_they_draw(monkeypatch):
    built = []
    philox = simkernel.np.random.Philox

    def counting_philox(seq):
        built.append(seq)
        return philox(seq)

    monkeypatch.setattr(simkernel.np.random, "Philox", counting_philox)
    idle = SimRng(5).split(1, 2)
    assert idle.normal(3.0, 0.0) == 3.0
    assert idle.lognormal_mean_cv(40.0, 0.0) == 40.0
    assert built == []
    sc = load_scenario(SCENARIO_DIR / "paper_setup.json")
    assert sc.service.jitter
    build_world(sc, (0,))
    # two VNF and two transponder streams draw; the world root, the stack
    # stream, the service stream and the probe stream (jitter_sigma_ns 0)
    # only split or draw nothing
    assert len(built) == 4
