import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, count_turns, tabled
from metrotwin import simkernel
from metrotwin.cli import main
from metrotwin.errors import RunawaySimulation, SchedulingInPast
from metrotwin.scenario import build_world, load_scenario
from metrotwin.simkernel import (Kernel, KeyTable, SECOND, SimRng,
                                 lognormal_params, philox_key, philox_keys,
                                 stream_keys)


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
    k.schedule(lambda: seen.append(k.now), 42)
    assert k.now == 0
    k.run_to_end()
    assert seen == [42]
    assert k.now == 42


def test_schedule_in_past_raises():
    k = Kernel()
    k.schedule(lambda: None, 100)
    k.run_to_end()
    with pytest.raises(SchedulingInPast):
        k.schedule(lambda: None, 99)


def test_events_may_schedule_at_current_time():
    k = Kernel()
    fired = []
    k.schedule(lambda: k.schedule(lambda: fired.append("nested"), k.now), 10)
    k.run_to_end()
    assert fired == ["nested"]


def test_run_to_end_returns_last_fire_time():
    k = Kernel()
    k.schedule(lambda: None, 7)
    k.schedule(lambda: None, 19)
    assert k.run_to_end() == 19
    assert k.run_to_end() == k.now  # empty queue


def test_event_cap_raises_runaway():
    k = Kernel(event_cap=25)

    def rearm():
        k.schedule(rearm, k.now + 1)

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


def test_labels_are_formatted_only_for_a_trace_sink():
    class Unnamed:
        def __init__(self, fired):
            self.fired = fired

        def __call__(self):
            self.fired.append("quiet")

        def __getattr__(self, name):
            raise AssertionError(f"label read: {name}")

    def named():
        pass

    sink = io.StringIO()
    k = Kernel(trace=sink)
    k.schedule(lambda: None, 5, kind="svc-1:vnf:css-dm")
    k.schedule(lambda: None, 6, kind="tp:t1:Warm")
    k.schedule(named, 7)
    k.run_to_end()
    # a label is written as given; with none, the action's name
    assert sink.getvalue() == "5,0,svc-1:vnf:css-dm\n6,1,tp:t1:Warm\n7,2,named\n"

    fired = []
    quiet = Kernel()
    quiet.schedule(Unnamed(fired), 1)
    quiet.run_to_end()
    assert fired == ["quiet"]
    # the same unlabelled action fails once a sink asks for its name
    traced = Kernel(trace=io.StringIO())
    traced.schedule(Unnamed([]), 1)
    with pytest.raises(AssertionError, match="label read"):
        traced.run_to_end()


def test_seconds_round_trip():
    assert SECOND == 1_000_000_000


# rng


def test_rng_reproducible_and_split_independent():
    a = tabled(1234)
    b = tabled(1234)
    assert [a.normal(0, 1) for _ in range(5)] == [b.normal(0, 1) for _ in range(5)]

    c = tabled(1234, (1,))
    d = tabled(1234, (2,))
    assert c.normal(0, 1) != d.normal(0, 1)
    # where the table's root ends in the spawn key must not matter
    assert tabled(9, (3, 4), (3,)).normal(0, 1) == tabled(9, (3, 4)).normal(0, 1)


def test_rng_zero_sigma_is_exact():
    r = tabled(0)
    assert r.normal(40.0, 0.0) == 40.0
    assert list(r.normal(40.0, 0.0, 3)) == [40.0] * 3


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.5, max_value=200.0),
       st.floats(min_value=0.005, max_value=0.3))
def test_lognormal_mean_cv_parameterisation(mean, cv):
    # one stream per root, each drawn in one turn, as a world's deployment
    # streams are
    keys = KeyTable(42, [(i,) for i in range(400)])
    params = lognormal_params(mean, cv)
    draws = [keys.draws((i,), (((), (params,)),))[0] / SECOND
             for i in range(400)]
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

    def oracle():
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=key)))

    stream = oracle()
    expected = [stream.normal(1.5, 2.0), *stream.normal(1.5, 2.0, size),
                stream.normal(1.5, 2.0)]
    sigma2 = math.log1p(cv * cv)
    params = (math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2))
    assert lognormal_params(mean, cv) == params
    # the table draws the stream's durations in one turn, from its start
    drawn = oracle()
    durations = [round(drawn.lognormal(*params) * SECOND), 7,
                 round(drawn.lognormal(*params) * SECOND)]
    streams = [tabled(seed, key, key), tabled(seed, key),
               tabled(seed, key, key[:cut])]
    for rng in streams:
        assert rng.spawn_key == key
        first = rng.normal(1.5, 2.0)
        root, = rng.keys.roots  # the table's one root, which key starts with
        assert rng.keys.draws(root, ((key[len(root):], (params, 7, params)),)
                              ) == durations
        # each draw takes a turn, and skips the stream's earlier draws
        assert [first, *rng.normal(1.5, 2.0, size),
                rng.normal(1.5, 2.0)] == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 160),
       width=st.integers(min_value=0, max_value=2), data=st.data())
def test_split_tree_draws_equal_numpy_seed_sequence(seed, width, data):
    # streams whose spawn keys extend one another in a random tree, drawn
    # from in a random order: each matches its own numpy generator draw for
    # draw.  The tree grows from the roots of one key table, as a runner's
    # worlds do (equal width, labels below 2**32), and from the roots of
    # two one-row tables, one of any labels; those two key on Python ints.
    # However the draws interleave, each table that draws builds one Philox.
    # A path's durations are drawn for every root of its table at once, so
    # they are one lognormal for every path
    labels = st.lists(st.integers(min_value=0, max_value=2 ** 80), max_size=3)
    mean = data.draw(st.floats(min_value=0.5, max_value=200.0))
    cv = data.draw(st.floats(min_value=0.005, max_value=0.3))
    params = lognormal_params(mean, cv)
    roots = data.draw(st.lists(st.tuples(*[st.integers(
        min_value=0, max_value=2 ** 32 - 1)] * width), min_size=1,
        max_size=4, unique=True))
    keys = KeyTable(seed, roots)
    lone = tuple(data.draw(labels))
    nodes = [SimRng(keys, root) for root in roots]
    nodes.append(SimRng(KeyTable(seed, roots[:1]), roots[0]))
    nodes.append(tabled(seed, lone, lone))
    paths = roots + [roots[0], lone]
    oracles, drew = {}, set()
    with pytest.MonkeyPatch.context() as patch:
        built = count_philox(patch)
        for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
            i = data.draw(st.integers(min_value=0, max_value=len(nodes) - 1))
            if data.draw(st.booleans()):
                key = tuple(data.draw(labels))
                nodes.append(SimRng(nodes[i].keys, paths[i] + key))
                paths.append(paths[i] + key)
                continue
            rng = nodes[i]
            assert rng.spawn_key == paths[i]
            drew.add(id(rng.keys))
            oracle = oracles.setdefault(i, np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=paths[i]))))
            kind = data.draw(st.sampled_from(["normal", "block", "lognormal"]))
            if kind == "normal":
                assert rng.normal(1.5, 2.0) == oracle.normal(1.5, 2.0)
            elif kind == "block":
                size = data.draw(st.integers(min_value=1, max_value=9))
                assert list(rng.normal(1.5, 2.0, size)) == \
                    list(oracle.normal(1.5, 2.0, size))
            else:
                # the stream's durations in one turn, from the stream's start
                fresh = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(seed, spawn_key=paths[i])))
                width = len(rng.keys.roots[0])
                assert rng.keys.draws(rng.spawn_key[:width], (
                    (rng.spawn_key[width:], (params,)),)) == [
                    round(fresh.lognormal(*params) * SECOND)]
    assert len(built) == len(drew)


def count_philox(monkeypatch) -> list:
    """Each ``Philox`` a stream builds from here on; a test's numpy oracle,
    built from a ``SeedSequence``, is not counted."""
    built = []
    philox = simkernel.np.random.Philox

    def counting_philox(seq, **kwargs):
        if not isinstance(seq, np.random.SeedSequence):
            built.append(seq)
        return philox(seq, **kwargs)

    monkeypatch.setattr(simkernel.np.random, "Philox", counting_philox)
    return built


def record_tables(monkeypatch) -> list:
    """Each ``KeyTable`` made from here on."""
    tables = []
    init = KeyTable.__init__

    def recording_init(self, *args):
        tables.append(self)
        init(self, *args)

    monkeypatch.setattr(KeyTable, "__init__", recording_init)
    return tables


def test_streams_build_a_generator_only_when_they_draw(monkeypatch):
    built, turns = count_philox(monkeypatch), count_turns(monkeypatch)
    idle = tabled(5, (1, 2))
    assert idle.normal(3.0, 0.0) == 3.0
    assert list(idle.normal(3.0, 0.0, 2)) == [3.0, 3.0]
    assert built == [] and turns == []
    sc = load_scenario(SCENARIO_DIR / "paper_setup.json")
    assert sc.raw["service"]["jitter"]
    tables = record_tables(monkeypatch)
    made = []
    init = SimRng.__init__

    def recording_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(SimRng, "__init__", recording_init)
    build_world(sc, (0,))
    # two VNF and two transponder streams draw, each through the world's
    # key table in one turn on its one generator; a setup world makes no
    # SimRng: no probe stream draws (jitter_sigma_ns 0)
    assert len(tables) == 1 and turns == tables * 4
    assert len(built) == len(tables)
    assert made == []


@settings(max_examples=40, deadline=None)
@given(draws=st.lists(st.tuples(st.sampled_from("abt"),
                                st.integers(min_value=0, max_value=4)),
                      max_size=12))
def test_streams_take_turns_on_one_generator(draws):
    # two SimRng streams and a path drawn through the table for both roots,
    # read in any order: each SimRng draw (a single one at size 0) takes
    # one turn on the table's one Philox, the path takes one turn per root
    # when it is first read, and each matches its stream's numpy generator
    def oracle(key):
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(3, spawn_key=key)))

    oracles = {"a": oracle((0, 7)), "b": oracle((1, 7))}
    mu, sigma = lognormal_params(40.0, 0.1)
    # the table draws each root's durations in one turn, from its start
    durations = {root: [round(oracle(root + (8,)).lognormal(mu, sigma)
                              * SECOND), 5] for root in [(0,), (1,)]}
    keys = KeyTable(3, [(0,), (1,)])
    streams = {"a": SimRng(keys, (0, 7)), "b": SimRng(keys, (1, 7))}
    with pytest.MonkeyPatch.context() as patch:
        built, turns = count_philox(patch), count_turns(patch)
        for name, size in draws:
            if name == "t":
                root = (size % 2,)
                assert keys.draws(root, (((8,), ((mu, sigma), 5)),)) == \
                    durations[root]
            elif size == 0:
                assert streams[name].normal(1.0, 2.0) == \
                    oracles[name].normal(1.0, 2.0)
            else:
                assert list(streams[name].normal(0.0, 1.0, size)) == \
                    list(oracles[name].normal(0.0, 1.0, size))
    reads = sum(name == "t" for name, _ in draws)
    assert turns == [keys] * (len(draws) - reads + 2 * (reads > 0))
    assert len(built) == min(len(draws), 1)


def test_a_path_read_with_other_durations_raises():
    # the first read of a path draws it for every root with its durations;
    # a later read that asks others of it, alone or beside another path,
    # raises.  A stream that draws nothing has no path to hold to
    keys = KeyTable(1, [(0,), (1,)])
    streams = (((5,), ((0.0, 0.1),)), (None, (3,)))
    first = keys.draws((0,), streams)
    assert first[1] == 3 and keys.draws((1,), streams) != first
    # equal, not the same
    assert keys.draws((0,), (((5,), ((0.0, 0.1),)), (None, (3,)))) == first
    assert keys.draws((0,), (((5,), ((0.0, 0.1),)), (None, (4,)))) == \
        first[:1] + [4]
    with pytest.raises(ValueError, match=r"stream path \(5,\)"):
        keys.draws((0,), (((5,), (7,)),))
    with pytest.raises(ValueError, match=r"stream path \(5,\)"):
        keys.draws((1,), (((6,), ((0.0, 0.1),)), ((5,), ((0.0, 0.2),))))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 160),
       keys=st.lists(st.lists(st.integers(min_value=0, max_value=2 ** 80),
                              max_size=4).map(tuple), min_size=1, max_size=8))
def test_philox_keys_equal_numpy_seed_sequence(seed, keys):
    def words(n):
        return [n >> s & 0xFFFFFFFF
                for s in range(0, max(n.bit_length(), 1), 32)]

    # the entropy numpy assembles: the seed's 32-bit words, low first, padded
    # to the pool size of 4, then each label's; the rows of one word count
    # go through one pass
    rows = {}
    for key in keys:
        row = words(seed)
        row += [0] * (4 - len(row)) + [w for n in key for w in words(n)]
        rows.setdefault(len(row), []).append((row, np.random.SeedSequence(
            seed, spawn_key=key).generate_state(2, np.uint64).tolist()))
    for group in rows.values():
        keyed = philox_keys([row for row, _ in group])
        assert keyed.dtype == np.uint64
        assert keyed.tolist() == [key for _, key in group]
        # a one-row table keys its stream on Python ints, through the same hash
        assert [philox_key(row) for row, _ in group] == [key for _, key in group]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 160),
       width=st.integers(min_value=0, max_value=2), data=st.data())
def test_stream_keys_equal_numpy_seed_sequence(seed, width, data):
    # root by root, each root's key of each path: paths of one word count
    # in one pass, of several in one pass a path
    label = st.integers(min_value=0, max_value=2 ** 32 - 1)
    roots = data.draw(st.lists(st.tuples(*[label] * width), max_size=5))
    paths = data.draw(st.lists(st.lists(st.integers(
        min_value=0, max_value=2 ** 80), max_size=4).map(tuple),
        min_size=1, max_size=3))
    keys = iter(stream_keys(seed, roots, paths))
    for root in roots:
        for path in paths:
            assert next(keys) == np.random.SeedSequence(
                seed, spawn_key=root + path).generate_state(
                2, np.uint64).tolist()
    assert next(keys, None) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 160),
       width=st.integers(min_value=0, max_value=2), data=st.data())
def test_drawn_paths_equal_numpy_seed_sequence(seed, width, data):
    # streams read through ``draws`` are drawn for every root of their
    # table at once: each root's row, read in any order, is each stream's
    # draws in turn, a lognormal for each (mu, sigma) of its own stream and
    # a nominal value kept, or its durations as they are if its path is
    # None; and a table over that root alone draws the same row
    label = st.integers(min_value=0, max_value=2 ** 32 - 1)
    roots = data.draw(st.lists(st.tuples(*[label] * width), min_size=1,
                               max_size=5, unique=True))
    paths = data.draw(st.lists(st.lists(st.integers(
        min_value=0, max_value=2 ** 80), max_size=4).map(tuple),
        max_size=3, unique=True))
    duration = st.integers(min_value=0, max_value=10 ** 18)
    streams = tuple((path, tuple(data.draw(st.lists(st.one_of(
        st.tuples(st.floats(min_value=-3.0, max_value=6.0),
                  st.floats(min_value=0.0, max_value=1.0)), duration),
        max_size=4)))) for path in paths) + tuple(
        (None, tuple(data.draw(st.lists(duration, max_size=2))))
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))))
    streams = tuple(data.draw(st.permutations(streams)))
    keys = KeyTable(seed, roots)
    for root in data.draw(st.permutations(roots)):
        row = []
        for path, durations in streams:
            if path is None:
                row += durations
                continue
            oracle = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=root + path)))
            row += [round(oracle.lognormal(*d) * SECOND)
                    if isinstance(d, tuple) else d for d in durations]
        assert keys.draws(root, streams) == row
        assert KeyTable(seed, [root]).draws(root, streams) == row


@pytest.mark.parametrize("probe_jitter_ns, passes, drawn", [
    (0, ([4], [4], [4, 1]), 30), (400, ([4, 1], [4, 1, 1], [4, 1, 1]), 41)],
    ids=["probe_jitter_0", "probe_jitter_400"])
def test_each_stream_path_of_a_demo_is_keyed_once_for_every_root(
        monkeypatch, tmp_path, probe_jitter_ns, passes, drawn):
    # Each runner keys a stream path for all its worlds' roots in one pass,
    # on the first draw on that path, and a world's four deployment paths,
    # two VNF and two transponder streams, in one pass.  With --repeat 1 one
    # setup world, four latency worlds and two soft-failure worlds draw on
    # their deployment streams, and the soft-failure worlds on their noise
    # stream: 1 + 1 + 2 passes and 30 streams that draw.  A probe with
    # jitter adds every world's probe verification stream and each latency
    # world's probe stream: 2 + 3 + 3 passes and 41 streams.  Each runner's
    # streams take turns on its table's one generator.
    rows = []
    keyed = simkernel.stream_keys

    def counting_stream_keys(seed, roots, paths):
        rows.append((len(roots), len(paths)))
        return keyed(seed, roots, paths)

    monkeypatch.setattr(simkernel, "stream_keys", counting_stream_keys)
    built, turns = count_philox(monkeypatch), count_turns(monkeypatch)
    tables = record_tables(monkeypatch)
    doc = json.loads((SCENARIO_DIR / "paper_full_demo.json").read_text())
    doc["latency"]["probe"]["jitter_sigma_ns"] = probe_jitter_ns
    scenario = tmp_path / "demo.json"
    scenario.write_text(json.dumps(doc))
    assert main(["demo", "--scenario", str(scenario), "--repeat", "1",
                 "--out", str(tmp_path / "report.txt")]) == 0
    # setup, then latency, then soft failure: 1, 4 and 2 roots each
    assert rows == [(n, paths) for n, runner in zip((1, 4, 2), passes)
                    for paths in runner]
    assert len(turns) == drawn
    assert len(built) == len(tables) == 3
