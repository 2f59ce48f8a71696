import io

import pytest

from conftest import ring_section, service_section
from metrotwin.controlplane import (ConnectivityRequirements, NsDescriptor,
                                    OrchestrationStack, ServiceStatus,
                                    VnfDescriptor, check_channel_exclusivity,
                                    check_no_light_loop, trace_channel_light)
from metrotwin.errors import IllegalTransition, IncompleteRecord
from metrotwin.simkernel import Kernel, SECOND, SimRng
from metrotwin.topology import RingState, TransponderState, build_ring


def descriptor(endpoints=("tp1", "tp2"), computes=("edge1", "edge2"),
               vcpu=4, mean_s=40.0):
    return NsDescriptor(
        name="slice-under-test",
        vnfs=[VnfDescriptor(name="csm-analytics", vcpu=vcpu,
                            instantiation_mean_s=mean_s, target_compute=computes[0]),
              VnfDescriptor(name="css-dm", vcpu=vcpu,
                            instantiation_mean_s=mean_s, target_compute=computes[1])],
        connectivity=ConnectivityRequirements(endpoints=tuple(endpoints)))


def fresh_stack(section=None, jitter=False):
    state = RingState(build_ring(section or ring_section()))
    kernel = Kernel()
    stack = OrchestrationStack(state, kernel, SimRng(0), jitter=jitter)
    return state, kernel, stack


def deploy(stack, kernel, ns=None):
    rec = stack.request_network_service(ns or descriptor())
    kernel.run_to_end()
    return rec


S = SECOND


def test_workflow_timestamps_without_jitter():
    _, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    ts = rec.timestamps
    assert rec.status is ServiceStatus.ACTIVE
    assert (ts.t_request, ts.t_vnfs_started) == (0, 0)
    assert ts.t_vnfs_ready == ts.t_conn_requested == 40 * S
    assert ts.t_roadms_configured == 48 * S  # 2 s messaging + 3 x 2 s configs
    assert ts.t_transponders_configured == 50 * S
    assert ts.t_path_operational == 175 * S
    assert ts.t_probe_verified == ts.t_monitoring_active == 177 * S


def test_deployment_fires_one_event_per_state_change():
    trace = io.StringIO()
    kernel = Kernel(trace=trace)
    stack = OrchestrationStack(RingState(build_ring(ring_section())), kernel,
                               SimRng(0))
    deploy(stack, kernel)
    assert [line.split(",")[2] for line in trace.getvalue().splitlines()] == [
        "svc-1:request",
        "svc-1:vnf:csm-analytics", "svc-1:vnf:css-dm",
        "svc-1:messaging",
        "svc-1:roadm:roadm1", "svc-1:roadm:roadm2", "svc-1:roadm:roadm3",
        "tp:tp1:Configuring", "tp:tp2:Configuring",
        "tp:tp1:LaserWarmup", "tp:tp2:LaserWarmup",
        "tp:tp1:Operational", "tp:tp2:Operational",
        "svc-1:probe",
    ]


def test_kpis_from_record():
    _, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    kpis = stack.compute_kpis(rec)
    assert kpis.kpi_ns_deploy_ns == 40 * S
    assert kpis.kpi_connectivity_ns == 135 * S
    assert kpis.kpi_e2e_ns == 177 * S
    assert kpis.e2e_excl_transponder_ns == 50 * S


def test_kpis_refuse_incomplete_record():
    _, kernel, stack = fresh_stack()
    rec = stack.request_network_service(descriptor())
    refused = []

    def at_30_s():  # VNFs still instantiating
        with pytest.raises(IncompleteRecord):
            stack.compute_kpis(rec)
        refused.append(kernel.now())

    kernel.schedule(at_30_s, 30 * S)
    kernel.run_to_end()
    assert refused == [30 * S]


def test_path_choice_and_channel():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    assert rec.path.links == ("r1-r2",)  # fewest hops wins over total length
    assert rec.channel == 0
    assert state.transponders["tp1"].claimed_by == rec.request_id
    assert stack.channel_ledger == {("r1-r2", 0): rec.request_id}


def test_blockers_keep_light_on_the_arc():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    hops, drops, looped = trace_channel_light(state, "roadm1", "r1-r2", 0)
    assert not looped
    assert drops == ["roadm2"]
    assert [h[0] for h in hops] == ["r1-r2"]  # terminal blocks stop the ring
    assert stack.verify_invariants() == []


def test_placement_failure_keeps_capacity():
    state, kernel, stack = fresh_stack()
    before = state.vcpu_free["edge1"]
    rec = deploy(stack, kernel, descriptor(vcpu=1000))
    assert rec.status is ServiceStatus.FAILED
    assert "capacity" in rec.failure_reason
    assert state.vcpu_free["edge1"] == before


def test_vnfs_instantiate_in_parallel():
    _, kernel, stack = fresh_stack()
    ns = descriptor()
    ns.vnfs[1].instantiation_mean_s = 25.0
    rec = deploy(stack, kernel, ns)
    # ready when the slowest one lands, not the sum
    assert rec.timestamps.t_vnfs_ready == 40 * S


def test_transponder_unavailable_fails_second_service():
    state, kernel, stack = fresh_stack()
    first = deploy(stack, kernel)
    assert first.status is ServiceStatus.ACTIVE
    second = deploy(stack, kernel, descriptor())
    assert second.status is ServiceStatus.FAILED
    assert "TransponderUnavailable" in second.failure_reason
    # the failed request must not have disturbed the running one
    assert stack.verify_invariants() == []
    cap = state.ring.compute_nodes["edge1"].vcpu_capacity
    assert state.vcpu_free["edge1"] == cap - 4  # only first's share held


def four_endpoint_section():
    sec = ring_section()
    sec["transponders"] += [{"id": "tp3", "roadm": "roadm1"},
                            {"id": "tp4", "roadm": "roadm2"}]
    sec["switches"] += [{"id": "sw3", "transponder": "tp3"},
                        {"id": "sw4", "transponder": "tp4"}]
    sec["compute_nodes"] += [{"id": "edge3", "switch": "sw3"},
                             {"id": "edge4", "switch": "sw4"}]
    return sec


def test_second_service_gets_next_channel():
    state, kernel, stack = fresh_stack(four_endpoint_section())
    a = deploy(stack, kernel)
    b = deploy(stack, kernel, descriptor(endpoints=("tp3", "tp4"),
                                         computes=("edge3", "edge4")))
    assert a.status is ServiceStatus.ACTIVE and b.status is ServiceStatus.ACTIVE
    assert a.channel == 0 and b.channel == 1
    assert check_channel_exclusivity(stack) == []
    assert check_no_light_loop(stack) == []


def test_channel_exhaustion():
    sec = four_endpoint_section()
    sec["channel_grid_size"] = 1
    _, kernel, stack = fresh_stack(sec)
    a = deploy(stack, kernel)
    b = deploy(stack, kernel, descriptor(endpoints=("tp3", "tp4"),
                                         computes=("edge3", "edge4")))
    assert a.status is ServiceStatus.ACTIVE
    assert b.status is ServiceStatus.FAILED
    assert "ChannelExhausted" in b.failure_reason


def test_teardown_returns_everything():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    stack.teardown(rec)
    assert rec.status is ServiceStatus.TORN_DOWN
    assert stack.channel_ledger == {}
    assert state.vcpu_free["edge1"] == state.ring.compute_nodes["edge1"].vcpu_capacity
    assert state.transponders["tp1"].state is TransponderState.OFF
    assert state.transponders["tp1"].claimed_by is None
    assert all(not r.passing for r in state.roadms.values())
    # the ring is clean; an identical request succeeds again on channel 0
    again = deploy(stack, kernel, descriptor())
    assert again.status is ServiceStatus.ACTIVE and again.channel == 0


def five_roadm_section():
    """Ring r1..r5 of equal spans, transponders at r1, r2, r3 and r5."""
    ends = (1, 2, 3, 5)
    return {
        "roadms": [f"r{i}" for i in range(1, 6)],
        "links": [{"id": f"r{i}-r{i % 5 + 1}",
                   "endpoints": [f"r{i}", f"r{i % 5 + 1}"], "length_m": 1e4}
                  for i in range(1, 6)],
        "transponders": [{"id": f"tp{i}", "roadm": f"r{i}"} for i in ends],
        "switches": [{"id": f"sw{i}", "transponder": f"tp{i}"} for i in ends],
        "compute_nodes": [{"id": f"edge{i}", "switch": f"sw{i}"} for i in ends],
    }


def test_teardown_keeps_another_services_pass_entries():
    _, kernel, stack = fresh_stack(five_roadm_section())
    a = deploy(stack, kernel)
    b = deploy(stack, kernel, descriptor(endpoints=("tp3", "tp5"),
                                         computes=("edge3", "edge5")))
    assert a.path.links == ("r1-r2",)
    assert b.path.links == ("r3-r4", "r4-r5")  # passes through r4
    assert a.channel == b.channel == 0
    stack.teardown(a)
    assert stack.verify_invariants() == []


def test_failed_service_gives_up_its_pass_entries():
    sec = five_roadm_section()
    sec["transponders"] += [{"id": "tp6", "roadm": "r1"},
                            {"id": "tp7", "roadm": "r3"}]
    sec["switches"] += [{"id": "sw6", "transponder": "tp6"},
                        {"id": "sw7", "transponder": "tp7"}]
    sec["compute_nodes"] += [{"id": "edge6", "switch": "sw6"},
                             {"id": "edge7", "switch": "sw7"}]
    _, kernel, stack = fresh_stack(sec)
    slow = descriptor(endpoints=("tp1", "tp3"), computes=("edge1", "edge3"))
    slow.connectivity.max_rt_latency_ns = 1
    x = deploy(stack, kernel, slow)
    assert x.status is ServiceStatus.FAILED  # at probe, after programming r2
    y = deploy(stack, kernel, descriptor(endpoints=("tp6", "tp7"),
                                         computes=("edge6", "edge7")))
    assert x.path.links == y.path.links == ("r1-r2", "r2-r3")
    assert y.channel == 0  # the failed service released channel 0
    stack.teardown(x)
    assert stack.verify_invariants() == []


def test_teardown_keeps_add_drop_another_service_ends_on():
    sec = ring_section()
    sec["transponders"] += [{"id": "tp4", "roadm": "roadm2"},
                            {"id": "tp5", "roadm": "roadm3"}]
    sec["switches"] += [{"id": "sw4", "transponder": "tp4"},
                        {"id": "sw5", "transponder": "tp5"}]
    sec["compute_nodes"] += [{"id": "edge4", "switch": "sw4"},
                             {"id": "edge5", "switch": "sw5"}]
    state, kernel, stack = fresh_stack(sec)
    a = deploy(stack, kernel)
    b = deploy(stack, kernel, descriptor(endpoints=("tp4", "tp5"),
                                         computes=("edge4", "edge5")))
    assert (a.path.links, b.path.links) == (("r1-r2",), ("r2-r3",))
    assert a.channel == b.channel == 0  # both end on roadm2, channel 0
    stack.teardown(a)
    assert 0 not in state.roadms["roadm1"].add_drop_channels
    assert 0 in state.roadms["roadm2"].add_drop_channels
    assert stack.verify_invariants() == []


def test_restoration_moves_to_spare_arc():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    assert stack.verify_invariants() == []
    alert_at = kernel.now()
    outcome = stack.handle_degradation_alert(rec, alert_at)
    assert rec.status is ServiceStatus.DEGRADED
    kernel.run_to_end()
    assert rec.status is ServiceStatus.RESTORED
    # 2 s messaging + 3 x 2 s rewrites + 2 s retune
    assert outcome.restored_at == alert_at + 10 * S
    assert outcome.failed_at is None
    assert set(rec.path.links) == {"r2-r3", "r3-r1"}
    assert rec.channel == 0  # same channel, complementary arc
    assert ("r1-r2", 0) not in stack.channel_ledger
    assert stack.verify_invariants() == []


def test_restoration_blocked_when_spare_arc_is_lit():
    sec = four_endpoint_section()
    sec["transponders"] += [{"id": "tp5", "roadm": "roadm3"}]
    sec["switches"] += [{"id": "sw5", "transponder": "tp5"}]
    sec["compute_nodes"] += [{"id": "edge5", "switch": "sw5"}]
    sec["channel_grid_size"] = 1
    _, kernel, stack = fresh_stack(sec)
    rec = deploy(stack, kernel)
    rival = deploy(stack, kernel, descriptor(endpoints=("tp4", "tp5"),
                                             computes=("edge4", "edge5")))
    assert rival.status is ServiceStatus.ACTIVE
    assert rival.path.links == ("r2-r3",)  # occupies channel 0 on the spare arc
    outcome = stack.handle_degradation_alert(rec, kernel.now())
    kernel.run_to_end()
    assert outcome.restored_at is None
    assert "busy" in outcome.reason
    assert rec.status is ServiceStatus.DEGRADED
    stack.notify_fail_crossing(rec, kernel.now())
    assert rec.status is ServiceStatus.FAILED
    assert outcome.failed_at == kernel.now()


def test_crossing_before_retune_means_failed():
    _, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    t0 = kernel.now()
    stack.handle_degradation_alert(rec, t0)
    kernel.schedule(lambda: stack.notify_fail_crossing(rec, kernel.now()),
                    t0 + 5 * S)  # mid-rewrite
    kernel.run_to_end()
    assert rec.status is ServiceStatus.FAILED
    assert rec.restoration.restored_at is None
    assert rec.restoration.failed_at == t0 + 5 * S


def test_teardown_mid_restoration_writes_nothing_after():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    t0 = kernel.now()
    stack.handle_degradation_alert(rec, t0)

    def fail_and_tear_down():
        stack.notify_fail_crossing(rec, kernel.now())
        stack.teardown(rec)

    kernel.schedule(fail_and_tear_down, t0 + 5 * S)  # mid-rewrite
    kernel.run_to_end()  # the queued visits and the retune still fire
    assert rec.status is ServiceStatus.TORN_DOWN
    assert all(not r.passing and not r.add_drop_channels
               for r in state.roadms.values())
    assert stack.channel_ledger == {}
    assert rec.path.links == ("r1-r2",)


def test_teardown_while_deploying_raises_and_keeps_every_resource():
    state, kernel, stack = fresh_stack()
    vcpu_free = dict(state.vcpu_free)
    rec = stack.request_network_service(descriptor())
    refused = []

    def tear_down():  # the transponders are configuring
        with pytest.raises(IllegalTransition):
            stack.teardown(rec)
        refused.append(kernel.now())

    kernel.schedule(tear_down, 49 * S)
    kernel.run_to_end()
    assert refused == [49 * S]
    assert rec.status is ServiceStatus.ACTIVE
    assert stack.channel_ledger == {("r1-r2", 0): rec.request_id}
    assert state.vcpu_free == {node: free - 4 for node, free in vcpu_free.items()}
    for tp_id in ("tp1", "tp2"):
        assert state.transponders[tp_id].state is TransponderState.OPERATIONAL
        assert state.transponders[tp_id].claimed_by == rec.request_id
    assert stack.verify_invariants() == []


def test_status_transitions_are_guarded():
    _, kernel, stack = fresh_stack()
    rec = stack.request_network_service(descriptor())
    with pytest.raises(IllegalTransition):
        rec.transition(ServiceStatus.DEGRADED)  # Deploying cannot degrade
    kernel.run_to_end()
    rec.transition(ServiceStatus.DEGRADED)
    with pytest.raises(IllegalTransition):
        rec.transition(ServiceStatus.ACTIVE)  # no way back to Active


def test_forced_loop_is_caught():
    state, kernel, stack = fresh_stack()
    deploy(stack, kernel)
    ring = state.ring
    for i, roadm_id in enumerate(ring.ring_order):
        for link_id in (ring.ring_links[i - 1], ring.ring_links[i]):
            state.roadms[roadm_id].passing.add((link_id, 0))
    _, _, looped = trace_channel_light(state, "roadm1", "r1-r2", 0)
    assert looped
    assert any("loop" in p for p in check_no_light_loop(stack))
