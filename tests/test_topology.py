import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_section
from metrotwin.controlplane import (ConnectivityRequirements, DeployPlan,
                                    NsDescriptor, VnfDescriptor)
from metrotwin.errors import NoPath, TopologyInvalid
from metrotwin.topology import RingState, build_ring


def test_build_ring_defaults(topo):
    assert set(topo.ring_order) == {"roadm1", "roadm2", "roadm3"}
    assert topo.ring_order[0] == "roadm1" and len(topo.ring_order) == 3
    assert topo.links["r1-r2"].group_index == pytest.approx(1.4680)
    assert RingState(topo).vcpu_free["edge1"] == topo.compute_nodes["edge1"].vcpu_capacity


def test_ring_links_join_neighbours(topo):
    assert topo.ring_order == ("roadm1", "roadm2", "roadm3")
    assert topo.ring_links == ("r1-r2", "r2-r3", "r3-r1")
    assert topo.transponders["tp2"].attached_roadm == "roadm2"


def test_ring_is_read_only(topo):
    with pytest.raises(TypeError):
        topo.links["r1-r2"] = topo.links["r2-r3"]
    with pytest.raises(AttributeError):
        topo.arcs[("tp1", "tp2")][0].channel = 0


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
    roadm = RingState(topo).roadms["roadm1"]
    assert ("r1-r2", 0) not in roadm.passing
    roadm.passing.add(("r1-r2", 0))
    assert ("r1-r2", 0) in roadm.passing
    roadm.passing.discard(("r1-r2", 0))
    assert ("r1-r2", 0) not in roadm.passing


def test_find_ring_paths_two_arcs(topo):
    short, long_ = topo.arcs[("tp1", "tp2")]
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
    assert ("tp1", "tp3") not in topo.arcs
    with pytest.raises(NoPath):
        topo.select_path("tp1", "tp3")


def ring_of_two_transponders(lengths, b_at):
    """A ring over one link per length, tpA on its first ROADM and tpB on
    ROADM ``b_at``."""
    n = len(lengths)
    names = [f"n{i}" for i in range(n)]
    return build_ring({
        "roadms": names,
        "links": [{"id": f"l{i}", "endpoints": [names[i], names[(i + 1) % n]],
                   "length_m": lengths[i]} for i in range(n)],
        "transponders": [{"id": "tpA", "roadm": names[0]},
                         {"id": "tpB", "roadm": names[b_at]}],
        "switches": [{"id": "swA", "transponder": "tpA"},
                     {"id": "swB", "transponder": "tpB"}],
        "compute_nodes": [{"id": "cA", "switch": "swA"},
                          {"id": "cB", "switch": "swB"}],
    })


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=8), data=st.data())
def test_arcs_partition_the_ring(n, data):
    lengths = data.draw(st.lists(
        st.floats(min_value=10.0, max_value=90_000.0),
        min_size=n, max_size=n))
    topo = ring_of_two_transponders(lengths, data.draw(
        st.integers(min_value=1, max_value=n - 1)))
    p1, p2 = topo.arcs[("tpA", "tpB")]
    assert set(p1.links) | set(p2.links) == set(topo.links)
    assert set(p1.links).isdisjoint(p2.links)
    for p in (p1, p2):
        assert p.roadms[0] == topo.transponders["tpA"].attached_roadm
        assert p.roadms[-1] == topo.transponders["tpB"].attached_roadm
        assert len(p.roadms) == len(p.links) + 1
    # each arc of a plan visits its own ROADMs first, then every other one
    # once; its ends add and drop the channel, each ROADM between them
    # passes it from the span it enters by to the span it leaves by, and
    # the ROADMs off the arc get no pass entries
    plan = DeployPlan(topo, NsDescriptor(
        name="ring-under-test",
        vnfs=[VnfDescriptor(name="a", target_compute="cA"),
              VnfDescriptor(name="b", target_compute="cB")],
        connectivity=ConnectivityRequirements(endpoints=("tpA", "tpB"))))
    assert {arc.path.links for arc in plan.arcs} == {p1.links, p2.links}
    for arc in plan.arcs:
        roadms, links = arc.path.roadms, arc.path.links
        order = [roadm for roadm, _ in arc.visits]
        assert order[:len(roadms)] == list(roadms)
        assert sorted(order) == sorted(topo.ring_order)
        entries = [e for _, e in arc.visits]
        assert entries[0] is None and entries[len(links)] is None
        for i in range(1, len(links)):
            assert entries[i] == {(links[i - 1], 0), (links[i], 0)}
        assert all(e == set() for e in entries[len(roadms):])
    assert (sum(topo.links[l].length_m for l in p1.links)
            <= sum(topo.links[l].length_m for l in p2.links))
    # the service's arc: the fewest ROADM hops, then the shorter
    chosen = topo.select_path("tpA", "tpB")
    other = p2 if chosen is p1 else p1
    assert chosen in (p1, p2) and len(chosen.links) <= len(other.links)
    if len(chosen.links) == len(other.links):
        assert (sum(topo.links[l].length_m for l in chosen.links)
                <= sum(topo.links[l].length_m for l in other.links))


def test_select_path_takes_the_clockwise_arc_on_an_exact_tie():
    topo = ring_of_two_transponders([1000.0] * 4, 2)  # two hops and 2 km either way
    path = topo.select_path("tpA", "tpB")
    assert path.direction == "clockwise" and path.links == ("l0", "l1")
    back = topo.select_path("tpB", "tpA")
    assert back.direction == "clockwise" and back.links == ("l2", "l3")
