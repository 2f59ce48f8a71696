import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_turns, make_scenario, ring_section, service_section
from metrotwin.controlplane import (ConnectivityRequirements, DeployPlan,
                                    NsDescriptor, OrchestrationStack,
                                    REQUEST_ID, STACK_STREAM,
                                    TRANSPONDER_STREAM, VNF_STREAM,
                                    ServiceStatus, VnfDescriptor,
                                    check_channel_exclusivity,
                                    check_no_light_loop, hash_label,
                                    trace_channel_light)
from metrotwin.errors import IllegalTransition, IncompleteRecord
from metrotwin.optics import TRANSPONDER_JITTER_CV
from metrotwin.scenario import build_world, scenario_from_dict
from metrotwin.simkernel import Kernel, KeyTable, SECOND
from metrotwin.topology import TransponderState, build_ring


def descriptor(endpoints=("tp1", "tp2"), computes=("edge1", "edge2"),
               vcpu=4, mean_s=40.0):
    return NsDescriptor(
        name="slice-under-test",
        vnfs=[VnfDescriptor(name="csm-analytics", vcpu=vcpu,
                            instantiation_mean_s=mean_s, target_compute=computes[0]),
              VnfDescriptor(name="css-dm", vcpu=vcpu,
                            instantiation_mean_s=mean_s, target_compute=computes[1])],
        connectivity=ConnectivityRequirements(endpoints=tuple(endpoints)))


def fresh_stack(section=None, ns=None, kernel=None):
    """A world's state, kernel and stack for the service ``ns``."""
    plan = DeployPlan(build_ring(section or ring_section()), ns or descriptor())
    kernel = kernel or Kernel()
    stack = OrchestrationStack(plan, kernel, KeyTable(0, [()]), ())
    return stack.state, kernel, stack


def deploy(stack, kernel):
    rec = stack.request_network_service()
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
    _, kernel, stack = fresh_stack(kernel=Kernel(trace=trace))
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


def fired_at(trace: io.StringIO) -> dict:
    """Each fired event's label, and when it fired."""
    return {label: int(at) for at, _, label in
            (line.split(",") for line in trace.getvalue().splitlines())}


def test_transponder_bring_up_timeline():
    trace = io.StringIO()
    state, kernel, stack = fresh_stack(kernel=Kernel(trace=trace))
    at_60_s = []
    kernel.schedule(lambda: at_60_s.append(state.transponders["tp1"].state),
                    60 * S)
    deploy(stack, kernel)
    # each transponder enters each phase by an event of its own, after the
    # ROADMs are programmed at 48 s: nominal 2 s configuration, 125 s warm-up
    fired = fired_at(trace)
    for tp_id in ("tp1", "tp2"):
        assert [fired[f"tp:{tp_id}:{phase.value}"] for phase in (
            TransponderState.CONFIGURING, TransponderState.LASER_WARMUP,
            TransponderState.OPERATIONAL)] == [48 * S, 50 * S, 175 * S]
        assert state.transponders[tp_id].state is TransponderState.OPERATIONAL
    assert at_60_s == [TransponderState.LASER_WARMUP]


def jittered(seed: int, vnfs: list[tuple[float, float]]) -> dict:
    """A jittered setup scenario whose VNFs have these (mean s, cv)."""
    doc = make_scenario(seed=seed, service=service_section(jitter=True))
    for entry, (mean, cv) in zip(doc["service"]["vnfs"], vnfs):
        entry.update(instantiation_mean_s=mean, instantiation_cv=cv)
    return scenario_from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 130),
       width=st.integers(min_value=1, max_value=2), data=st.data())
def test_deploy_draws_equal_numpy_seed_sequence(seed, width, data):
    # every VNF and transponder duration of a jittered world is a lognormal
    # draw of its stream, below the world's root in a runner's key table,
    # in the stream's draw order
    roots = data.draw(st.lists(st.tuples(*[st.integers(
        min_value=0, max_value=2 ** 32 - 1)] * width), min_size=1,
        max_size=4, unique=True))
    root = data.draw(st.sampled_from(roots))
    vnfs = [(40.0, 0.05), (31.5, 0.1)]
    sc = jittered(seed, vnfs)
    trace = io.StringIO()
    world = build_world(sc, root, sc.plans[0], trace, KeyTable(seed, roots))
    assert world.record.status is ServiceStatus.ACTIVE
    service = (STACK_STREAM, hash_label(REQUEST_ID))

    def draws(leaf, *means_cvs):
        oracle = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            seed, spawn_key=root + service + leaf)))
        out = []
        for mean, cv in means_cvs:
            sigma2 = math.log1p(cv * cv)
            out.append(round(oracle.lognormal(
                math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)) * SECOND))
        return out

    fired = fired_at(trace)
    for i, (vnf, mean_cv) in enumerate(zip(sc.service.descriptor.vnfs, vnfs)):
        assert [fired[f"{REQUEST_ID}:vnf:{vnf.name}"]] == draws(
            (VNF_STREAM, i), mean_cv)
    start = world.record.timestamps.t_roadms_configured
    for i, tp_id in enumerate(("tp1", "tp2")):
        config, warmup = draws((TRANSPONDER_STREAM, i),
                               (2.0, TRANSPONDER_JITTER_CV),
                               (125.0, TRANSPONDER_JITTER_CV))
        assert [fired[f"tp:{tp_id}:{phase}"] for phase in (
            "Configuring", "LaserWarmup", "Operational")] == [
            start, start + config, start + config + warmup]


def test_zero_cv_is_the_mean_under_jitter(monkeypatch):
    # a VNF whose cv is 0 takes its mean exactly and draws nothing: only
    # the two transponder streams take a turn
    sc = jittered(7, [(37.5, 0.0), (37.5, 0)])
    keys = KeyTable(sc.seed, [(0,)])
    turns = count_turns(monkeypatch)
    world = build_world(sc, (0,), sc.plans[0], keys=keys)
    assert world.stack.compute_kpis(world.record).kpi_ns_deploy_ns == 37.5 * S
    assert turns == [keys] * 2


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
    rec = stack.request_network_service()
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
    assert rec.path.channel == 0
    assert rec.path == state.ring.select_path("tp1", "tp2")._replace(channel=0)


def test_blockers_keep_light_on_the_arc():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    hops, drops, looped = trace_channel_light(state, "roadm1", "r1-r2", 0)
    assert not looped
    assert drops == ["roadm2"]
    assert [h[0] for h in hops] == ["r1-r2"]  # terminal blocks stop the ring
    assert stack.verify_invariants() == []


def test_failed_service_returns_compute_to_each_node():
    # two VNFs that share a name, on two nodes, failed at probe verification
    ns = descriptor()
    ns.vnfs[:] = [vnf._replace(name="x") for vnf in ns.vnfs]
    ns.connectivity = ns.connectivity._replace(max_rt_latency_ns=1)
    state, kernel, stack = fresh_stack(ns=ns)
    rec = deploy(stack, kernel)
    assert rec.status is ServiceStatus.FAILED
    assert "probe" in rec.failure_reason
    assert stack.verify_invariants() == []
    for node in state.ring.compute_nodes.values():
        assert state.vcpu_free[node.id] == node.vcpu_capacity
        assert state.mem_free_mb[node.id] == node.mem_capacity_mb


def test_vnfs_instantiate_in_parallel():
    ns = descriptor()
    ns.vnfs[1] = ns.vnfs[1]._replace(instantiation_mean_s=25.0)
    _, kernel, stack = fresh_stack(ns=ns)
    rec = deploy(stack, kernel)
    # ready when the slowest one lands, not the sum
    assert rec.timestamps.t_vnfs_ready == 40 * S


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


def test_failed_service_gives_up_its_pass_entries():
    slow = descriptor(endpoints=("tp1", "tp3"), computes=("edge1", "edge3"))
    slow.connectivity = slow.connectivity._replace(max_rt_latency_ns=1)
    state, kernel, stack = fresh_stack(five_roadm_section(), slow)
    passed = []
    kernel.schedule(lambda: passed.append(set(state.roadms["r2"].passing)),
                    60 * S)  # once the ROADMs are programmed
    x = deploy(stack, kernel)
    assert x.status is ServiceStatus.FAILED  # at probe, after programming r2
    assert x.path.links == ("r1-r2", "r2-r3")
    assert passed == [{("r1-r2", 0), ("r2-r3", 0)}]
    assert all(not roadm.passing for roadm in state.roadms.values())
    assert stack.verify_invariants() == []


def test_plan_visits_every_roadm_once_from_each_arc():
    ring = build_ring(five_roadm_section())
    plan = DeployPlan(ring, descriptor(endpoints=("tp1", "tp3"),
                                       computes=("edge1", "edge3")))
    chosen, spare = plan.arcs
    assert chosen.path == ring.select_path("tp1", "tp3")._replace(channel=0)
    assert spare.path.links == ("r5-r1", "r4-r5", "r3-r4")
    assert [roadm for roadm, _ in spare.visits] == ["r1", "r5", "r4", "r3", "r2"]
    # the ends add and drop the channel, and each ROADM between them passes
    # it from the span it enters by to the span it leaves by
    assert [entries for _, entries in spare.visits] == [
        None, {("r5-r1", 0), ("r4-r5", 0)}, {("r4-r5", 0), ("r3-r4", 0)},
        None, set()]
    for arc in plan.arcs:
        order = [roadm for roadm, _ in arc.visits]
        assert order[:len(arc.path.roadms)] == list(arc.path.roadms)
        assert sorted(order) == sorted(ring.ring_order)
        assert arc.labels["restore"] == [("svc-1", "restore", roadm)
                                         for roadm in order]


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
    assert rec.path.channel == 0  # same channel, complementary arc
    spare, = [p for p in state.ring.arcs[("tp1", "tp2")]
              if p.links != ("r1-r2",)]
    assert rec.path == spare._replace(channel=0)
    assert stack.verify_invariants() == []


def test_alert_during_a_restoration_is_refused():
    state, kernel, stack = fresh_stack()
    rec = deploy(stack, kernel)
    first = stack.handle_degradation_alert(rec, kernel.now())
    with pytest.raises(IllegalTransition):
        stack.handle_degradation_alert(rec, kernel.now())
    kernel.run_to_end()
    assert rec.status is ServiceStatus.RESTORED and rec.restoration is first
    assert stack.verify_invariants() == []
    # once the retune is done, a new alert moves the service back
    second = stack.handle_degradation_alert(rec, kernel.now())
    kernel.run_to_end()
    assert rec.status is ServiceStatus.RESTORED and second.restored_at
    assert rec.path.links == ("r1-r2",)
    assert stack.verify_invariants() == []


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


def test_status_transitions_are_guarded():
    _, kernel, stack = fresh_stack()
    rec = stack.request_network_service()
    with pytest.raises(IllegalTransition):
        rec.transition(ServiceStatus.DEGRADED)  # Deploying cannot degrade
    kernel.run_to_end()
    rec.transition(ServiceStatus.DEGRADED)
    with pytest.raises(IllegalTransition):
        rec.transition(ServiceStatus.ACTIVE)  # no way back to Active
    rec.transition(ServiceStatus.FAILED)
    for status in ServiceStatus:
        with pytest.raises(IllegalTransition):
            rec.transition(status)  # Failed is terminal


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
    # every entry on r2-r3 or r3-r1 lights a span the service does not hold
    assert check_channel_exclusivity(stack) == [
        f"channel 0 on {link} passes {roadm}, off the path of svc-1"
        for roadm, link in (("roadm1", "r3-r1"), ("roadm2", "r2-r3"),
                            ("roadm3", "r2-r3"), ("roadm3", "r3-r1"))]
