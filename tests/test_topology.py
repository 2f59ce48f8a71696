import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_section
from metrotwin.errors import NoPath, TopologyInvalid
from metrotwin.topology import build_ring, find_ring_paths


def test_build_ring_defaults(topo):
    assert set(topo.roadms) == {"roadm1", "roadm2", "roadm3"}
    assert topo.ring_order[0] == "roadm1" and len(topo.ring_order) == 3
    assert topo.channel_grid == 96
    assert topo.links["r1-r2"].group_index == pytest.approx(1.4680)
    assert topo.compute_nodes["edge1"].vcpu_free == topo.compute_nodes["edge1"].vcpu_capacity


def test_neighbors_and_other_link(topo):
    nb = topo.neighbors("roadm1")
    assert nb == {"r1-r2": "roadm2", "r3-r1": "roadm3"}
    assert topo.other_link("roadm1", "r1-r2") == "r3-r1"
    assert topo.transponder_roadm("tp2") == "roadm2"


def test_rejects_too_few_roadms():
    sec = ring_section(roadms=["roadm1", "roadm2"])
    sec["links"] = sec["links"][:2]
    with pytest.raises(TopologyInvalid):
        build_ring(sec)


def test_rejects_broken_cycle():
    sec = ring_section()
    # two parallel links between the same pair break the single-cycle shape
    sec["links"][2]["endpoints"] = ["roadm1", "roadm2"]
    with pytest.raises(TopologyInvalid):
        build_ring(sec)


def test_rejects_missing_link():
    sec = ring_section()
    del sec["links"][1]
    with pytest.raises(TopologyInvalid):
        build_ring(sec)


def test_rejects_unknown_attachment():
    sec = ring_section()
    sec["transponders"][0]["roadm"] = "nowhere"
    with pytest.raises(TopologyInvalid):
        build_ring(sec)


def test_rejects_single_transponder():
    sec = ring_section()
    sec["transponders"] = sec["transponders"][:1]
    sec["switches"] = sec["switches"][:1]
    sec["compute_nodes"] = sec["compute_nodes"][:1]
    with pytest.raises(TopologyInvalid):
        build_ring(sec)


def test_rejects_negative_length():
    sec = ring_section()
    sec["links"][0]["length_m"] = -1.0
    with pytest.raises(TopologyInvalid):
        build_ring(sec)


def test_blocker_default_is_dark(topo):
    roadm = topo.roadms["roadm1"]
    assert ("r1-r2", 0) not in roadm.passing
    roadm.passing.add(("r1-r2", 0))
    assert ("r1-r2", 0) in roadm.passing
    roadm.passing.discard(("r1-r2", 0))
    assert ("r1-r2", 0) not in roadm.passing


def test_find_ring_paths_two_arcs(topo):
    short, long_ = find_ring_paths("tp1", "tp2", topo)
    # sorted by total length: via roadm3 (48.2 km) before the direct 80 km arc
    assert short.links == ("r3-r1", "r2-r3") or short.links == ("r2-r3", "r3-r1")
    assert len(long_.links) == 1 and long_.links == ("r1-r2",)
    assert short.roadms[0] == "roadm1" and short.roadms[-1] == "roadm2"
    assert {short.direction, long_.direction} == {"clockwise", "counterclockwise"}


def test_no_path_between_colocated_transponders():
    sec = ring_section()
    sec["transponders"].append({"id": "tp3", "roadm": "roadm1"})
    sec["switches"].append({"id": "sw3", "transponder": "tp3"})
    sec["compute_nodes"].append({"id": "edge3", "switch": "sw3"})
    topo = build_ring(sec)
    with pytest.raises(NoPath):
        find_ring_paths("tp1", "tp3", topo)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=8), data=st.data())
def test_arcs_partition_the_ring(n, data):
    names = [f"n{i}" for i in range(n)]
    lengths = data.draw(st.lists(
        st.floats(min_value=10.0, max_value=90_000.0),
        min_size=n, max_size=n))
    sec = {
        "roadms": names,
        "links": [{"id": f"l{i}", "endpoints": [names[i], names[(i + 1) % n]],
                   "length_m": lengths[i]} for i in range(n)],
        "transponders": [{"id": "tpA", "roadm": names[0]},
                         {"id": "tpB", "roadm": names[data.draw(
                             st.integers(min_value=1, max_value=n - 1))]}],
        "switches": [{"id": "swA", "transponder": "tpA"},
                     {"id": "swB", "transponder": "tpB"}],
        "compute_nodes": [{"id": "cA", "switch": "swA"},
                          {"id": "cB", "switch": "swB"}],
    }
    topo = build_ring(sec)
    p1, p2 = find_ring_paths("tpA", "tpB", topo)
    assert set(p1.links) | set(p2.links) == set(topo.links)
    assert set(p1.links).isdisjoint(p2.links)
    for p in (p1, p2):
        assert p.roadms[0] == topo.transponder_roadm("tpA")
        assert p.roadms[-1] == topo.transponder_roadm("tpB")
        assert len(p.roadms) == len(p.links) + 1
    assert (sum(topo.links[l].length_m for l in p1.links)
            <= sum(topo.links[l].length_m for l in p2.links))
