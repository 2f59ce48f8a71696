"""Hierarchical service orchestration over the optical ring.

The stack collapses NFV orchestrator, VIM, parent SDN controller, optical
controller and device drivers into one event-driven state machine.  A service
request walks through: VNF instantiation, sequential ROADM blocker
configuration, transponder bring-up, probe verification, monitoring
registration.  Timestamps for every phase land on the service record so KPIs
can be derived afterwards.

Restoration reuses the same machinery: on a degradation alert the service is
moved to the complementary ring arc on its original channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .errors import (ChannelExhausted, IllegalTransition, IncompleteRecord,
                     NoAlternatePath, NoPath, PlacementFailed,
                     TransponderUnavailable)
from .optics import transponder_lifecycle, transponder_teardown
from .probe import LatencyMeasurement, ProbeConfig, measure_round_trip
from .simkernel import Kernel, MS, SECOND, SimRng, SimTime
from .topology import (BLOCK, ChannelId, NodeId, OpticalPath, PASS,
                       RingTopology, TransponderState, find_ring_paths)


class ServiceStatus(Enum):
    DEPLOYING = "Deploying"
    ACTIVE = "Active"
    DEGRADED = "Degraded"
    RESTORED = "Restored"
    FAILED = "Failed"
    TORN_DOWN = "TornDown"


# legal transitions; anything else raises IllegalTransition
_TRANSITIONS = {
    ServiceStatus.DEPLOYING: {ServiceStatus.ACTIVE, ServiceStatus.FAILED},
    ServiceStatus.ACTIVE: {ServiceStatus.DEGRADED, ServiceStatus.TORN_DOWN},
    ServiceStatus.DEGRADED: {ServiceStatus.RESTORED, ServiceStatus.FAILED},
    ServiceStatus.RESTORED: {ServiceStatus.DEGRADED, ServiceStatus.TORN_DOWN},
    ServiceStatus.FAILED: {ServiceStatus.TORN_DOWN},
    ServiceStatus.TORN_DOWN: set(),
}


@dataclass
class VnfDescriptor:
    name: str
    vcpu: int = 4
    mem_mb: int = 8192
    instantiation_mean_s: float = 40.0
    instantiation_cv: float = 0.05
    target_compute: NodeId = ""


@dataclass
class ConnectivityRequirements:
    endpoints: tuple[NodeId, NodeId]
    max_rt_latency_ns: Optional[int] = None


@dataclass
class NsDescriptor:
    name: str
    vnfs: list[VnfDescriptor]
    connectivity: ConnectivityRequirements

    def __post_init__(self) -> None:
        if len(self.vnfs) < 2:
            raise ValueError("a network service needs at least two VNFs")
        if self.connectivity.endpoints[0] == self.connectivity.endpoints[1]:
            raise ValueError("connectivity endpoints must differ")


@dataclass
class PhaseTimings:
    """Deterministic control-plane phase durations, ns."""
    control_messaging_ns: int = 2 * SECOND
    roadm_config_ns: int = 2 * SECOND
    probe_verify_ns: int = 2 * SECOND
    retune_ns: int = 2 * SECOND
    alert_hop_ns: int = 100 * MS


@dataclass
class Timestamps:
    t_request: Optional[SimTime] = None
    t_vnfs_started: Optional[SimTime] = None
    t_vnfs_ready: Optional[SimTime] = None
    t_conn_requested: Optional[SimTime] = None
    t_roadms_configured: Optional[SimTime] = None
    t_transponders_configured: Optional[SimTime] = None
    t_path_operational: Optional[SimTime] = None
    t_probe_verified: Optional[SimTime] = None
    t_monitoring_active: Optional[SimTime] = None

    def as_dict(self) -> dict[str, Optional[SimTime]]:
        return dict(vars(self))


@dataclass
class ConnectivityIntent:
    requester: str
    endpoints: tuple[NodeId, NodeId]
    channel: ChannelId
    path: OpticalPath


@dataclass
class KpiReport:
    kpi_ns_deploy_ns: SimTime
    kpi_connectivity_ns: SimTime
    kpi_e2e_ns: SimTime
    e2e_excl_transponder_ns: SimTime


@dataclass
class RestorationOutcome:
    service_id: str
    alert_time: SimTime
    restored_at: Optional[SimTime] = None
    failed_at: Optional[SimTime] = None
    reason: str = ""


@dataclass
class ServiceRecord:
    request_id: str
    descriptor: NsDescriptor
    # the service's stream: VNF i draws on (1, i), transponder i on (2, i),
    # the probe verification on (3,)
    rng: SimRng
    status: ServiceStatus = ServiceStatus.DEPLOYING
    timestamps: Timestamps = field(default_factory=Timestamps)
    placements: dict[str, NodeId] = field(default_factory=dict)
    path: Optional[OpticalPath] = None
    channel: Optional[ChannelId] = None
    probe: Optional[LatencyMeasurement] = None
    restoration: Optional[RestorationOutcome] = None
    failure_reason: str = ""
    # (roadm_id, out_link_id, channel) entries this service wrote
    blocker_writes: list[tuple[NodeId, str, ChannelId]] = field(default_factory=list)

    def transition(self, new: ServiceStatus) -> None:
        if new not in _TRANSITIONS[self.status]:
            raise IllegalTransition(f"{self.status.value} -> {new.value}")
        self.status = new


def _blocker_plan(topo: RingTopology, path: OpticalPath,
                  channel: ChannelId) -> dict[NodeId, list[tuple[str, str]]]:
    """Per-ROADM blocker writes for a lit path.

    Terminal nodes block the through direction away from the path so add/drop
    light cannot leak around the ring; intermediate nodes pass both along-path
    directions.  Off-path nodes get explicit darkening entries, written only
    where no other service occupies the channel (missing entries already mean
    dark, the explicit write is bookkeeping).
    """
    plan: dict[NodeId, list[tuple[str, str]]] = {r: [] for r in topo.roadms}
    first, last = path.links[0], path.links[-1]
    src_roadm = topo.transponder_roadm(path.source)
    dst_roadm = topo.transponder_roadm(path.destination)
    plan[src_roadm].append((topo.other_link(src_roadm, first), BLOCK))
    plan[dst_roadm].append((topo.other_link(dst_roadm, last), BLOCK))
    for i, roadm_id in enumerate(path.roadms):
        if roadm_id in (src_roadm, dst_roadm):
            continue
        plan[roadm_id].append((path.links[i], PASS))
        plan[roadm_id].append((path.links[i - 1], PASS))
    on_path = set(path.roadms)
    for roadm_id in topo.roadms:
        if roadm_id in on_path:
            continue
        for link_id in topo.neighbors(roadm_id):
            plan[roadm_id].append((link_id, BLOCK))
    return plan


def trace_channel_light(topo: RingTopology, origin_roadm: NodeId,
                        first_link: str, channel: ChannelId,
                        ) -> tuple[list[tuple[str, NodeId]], list[NodeId], bool]:
    """Follow injected light hop by hop.

    Returns (traversed (link, entered_roadm) pairs, drop nodes, looped flag).
    A loop is a revisit of the same (roadm, incoming link) state.
    """
    traversed: list[tuple[str, NodeId]] = []
    drops: list[NodeId] = []
    seen: set[tuple[NodeId, str]] = set()
    link_id = first_link
    node = topo.links[link_id].endpoints[1] if (
        topo.links[link_id].endpoints[0] == origin_roadm
    ) else topo.links[link_id].endpoints[0]
    while True:
        state = (node, link_id)
        if state in seen:
            return traversed, drops, True
        seen.add(state)
        traversed.append((link_id, node))
        roadm = topo.roadms[node]
        if channel in roadm.add_drop_channels:
            drops.append(node)
        out = topo.other_link(node, link_id)
        if not roadm.passes(out, channel):
            return traversed, drops, False
        link_id = out
        ends = topo.links[link_id].endpoints
        node = ends[1] if ends[0] == node else ends[0]


def check_no_light_loop(stack: "OrchestrationStack") -> list[str]:
    """Light injected by any operational service must terminate, not circulate."""
    problems = []
    for rec in stack.services.values():
        if rec.path is None or rec.channel is None:
            continue
        if rec.status not in (ServiceStatus.ACTIVE, ServiceStatus.DEGRADED,
                              ServiceStatus.RESTORED):
            continue
        topo = stack.topo
        for tp_id, entry_link in ((rec.path.source, rec.path.links[0]),
                                  (rec.path.destination, rec.path.links[-1])):
            origin = topo.transponder_roadm(tp_id)
            traversed, drops, looped = trace_channel_light(
                topo, origin, entry_link, rec.channel)
            if looped:
                problems.append(f"{rec.request_id}: light loop from {origin}")
            far = topo.transponder_roadm(
                rec.path.destination if tp_id == rec.path.source
                else rec.path.source)
            if far not in drops:
                problems.append(
                    f"{rec.request_id}: light from {origin} never reaches {far}")
    return problems


def check_channel_exclusivity(stack: "OrchestrationStack") -> list[str]:
    """No two services may light the same channel on the same fiber span."""
    owners: dict[tuple[str, ChannelId], str] = {}
    problems = []
    for rec in stack.services.values():
        if rec.path is None or rec.channel is None:
            continue
        if rec.status in (ServiceStatus.TORN_DOWN, ServiceStatus.FAILED):
            continue
        for link_id in rec.path.links:
            key = (link_id, rec.channel)
            if key in owners and owners[key] != rec.request_id:
                problems.append(
                    f"channel {rec.channel} on {link_id} shared by "
                    f"{owners[key]} and {rec.request_id}")
            owners[key] = rec.request_id
    return problems


class OrchestrationStack:
    """Event-driven orchestrator, controller hierarchy and device drivers."""

    def __init__(self, topo: RingTopology, kernel: Kernel, rng: SimRng,
                 timings: Optional[PhaseTimings] = None,
                 probe_cfg: Optional[ProbeConfig] = None,
                 jitter: bool = False) -> None:
        self.topo = topo
        self.kernel = kernel
        self.rng = rng
        self.timings = timings or PhaseTimings()
        self.probe_cfg = probe_cfg or ProbeConfig()
        self.jitter = jitter
        self.services: dict[str, ServiceRecord] = {}
        # (link_id, channel) -> request_id
        self.channel_ledger: dict[tuple[str, ChannelId], str] = {}
        self._seq = 0

    # ---------------------------------------------------------- deployment

    def request_network_service(self, ns: NsDescriptor) -> ServiceRecord:
        """Accept a service request; the workflow advances via kernel events."""
        self._seq += 1
        request_id = f"svc-{self._seq}"
        rec = ServiceRecord(request_id, ns,
                            self.rng.split(hash_label(request_id)))
        self.services[rec.request_id] = rec
        rec.timestamps.t_request = self.kernel.now()
        self.kernel.schedule(lambda: self._start_deploy(rec), self.kernel.now(),
                             kind=f"{rec.request_id}:request")
        return rec

    def _fail(self, rec: ServiceRecord, reason: str) -> None:
        rec.failure_reason = reason
        self.release_vnfs(rec)
        self._release_channel(rec)
        rec.transition(ServiceStatus.FAILED)

    def _start_deploy(self, rec: ServiceRecord) -> None:
        try:
            self.instantiate_vnfs(rec, lambda: self._vnfs_ready(rec))
        except PlacementFailed as exc:
            rec.failure_reason = str(exc)
            rec.transition(ServiceStatus.FAILED)

    def instantiate_vnfs(self, rec: ServiceRecord,
                         on_ready: Callable[[], None]) -> None:
        """Place every VNF atomically, then let instantiations run in parallel."""
        ns = rec.descriptor
        demand: dict[NodeId, tuple[int, int]] = {}
        for vnf in ns.vnfs:
            if vnf.target_compute not in self.topo.compute_nodes:
                raise PlacementFailed(f"unknown compute node {vnf.target_compute}")
            cpu, mem = demand.get(vnf.target_compute, (0, 0))
            demand[vnf.target_compute] = (cpu + vnf.vcpu, mem + vnf.mem_mb)
        for node_id, (cpu, mem) in demand.items():
            node = self.topo.compute_nodes[node_id]
            if cpu > node.vcpu_free or mem > node.mem_free_mb:
                raise PlacementFailed(f"insufficient capacity on {node_id}")
        for node_id, (cpu, mem) in demand.items():
            node = self.topo.compute_nodes[node_id]
            node.vcpu_free -= cpu
            node.mem_free_mb -= mem

        rec.timestamps.t_vnfs_started = self.kernel.now()
        pending = len(ns.vnfs)

        def done_one() -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                on_ready()

        for i, vnf in enumerate(ns.vnfs):
            rec.placements[vnf.name] = vnf.target_compute
            dur_s = vnf.instantiation_mean_s
            if self.jitter:
                dur_s = rec.rng.split(1, i).lognormal_mean_cv(
                    vnf.instantiation_mean_s, vnf.instantiation_cv)
            self.kernel.schedule_in(round(dur_s * SECOND), done_one,
                                    kind=f"{rec.request_id}:vnf:{vnf.name}")

    def release_vnfs(self, rec: ServiceRecord) -> None:
        for vnf in rec.descriptor.vnfs:
            if vnf.name in rec.placements:
                node = self.topo.compute_nodes[rec.placements[vnf.name]]
                node.vcpu_free += vnf.vcpu
                node.mem_free_mb += vnf.mem_mb
        rec.placements.clear()

    def _vnfs_ready(self, rec: ServiceRecord) -> None:
        rec.timestamps.t_vnfs_ready = self.kernel.now()
        rec.timestamps.t_conn_requested = self.kernel.now()
        try:
            self.setup_connectivity(rec)
        except (ChannelExhausted, TransponderUnavailable, NoPath) as exc:
            self._fail(rec, f"{type(exc).__name__}: {exc}")

    def select_path(self, a_tp: NodeId, b_tp: NodeId) -> OpticalPath:
        """Fewest ROADM hops wins; length breaks ties."""
        candidates = find_ring_paths(a_tp, b_tp, self.topo)
        return min(candidates, key=lambda p: (
            len(p.links), sum(self.topo.links[l].length_m for l in p.links)))

    def assign_channel(self, path: OpticalPath) -> ChannelId:
        for ch in range(self.topo.channel_grid):
            if all((link, ch) not in self.channel_ledger for link in path.links):
                return ch
        raise ChannelExhausted(
            f"no free channel on {'+'.join(path.links)} "
            f"(grid size {self.topo.channel_grid})")

    def setup_connectivity(self, rec: ServiceRecord) -> ConnectivityIntent:
        """Reserve resources now; push device configuration through events."""
        a_tp, b_tp = rec.descriptor.connectivity.endpoints
        for tp_id in (a_tp, b_tp):
            tp = self.topo.transponders.get(tp_id)
            if tp is None:
                raise TransponderUnavailable(f"no transponder {tp_id}")
            if tp.claimed_by not in (None, rec.request_id):
                raise TransponderUnavailable(f"{tp_id} claimed by {tp.claimed_by}")
            if tp.state is not TransponderState.OFF:
                raise TransponderUnavailable(f"{tp_id} is {tp.state.value}")
        path = self.select_path(a_tp, b_tp)
        channel = self.assign_channel(path)
        for link_id in path.links:
            self.channel_ledger[(link_id, channel)] = rec.request_id
        for tp_id in (a_tp, b_tp):
            self.topo.transponders[tp_id].claimed_by = rec.request_id
        rec.path = OpticalPath(path.source, path.destination, path.links,
                               path.roadms, path.direction, channel)
        rec.channel = channel
        intent = ConnectivityIntent(requester=rec.request_id,
                                    endpoints=(a_tp, b_tp), channel=channel,
                                    path=rec.path)
        self.kernel.schedule_in(self.timings.control_messaging_ns,
                                lambda: self._configure_roadms(rec),
                                kind=f"{rec.request_id}:messaging")
        return intent

    def _roadm_sequence(self, path: OpticalPath) -> list[NodeId]:
        on_path = list(path.roadms)
        rest = [r for r in self.topo.ring_order if r not in path.roadms]
        return on_path + rest

    def _configure_roadms(self, rec: ServiceRecord) -> None:
        """OLS driver visits every ring ROADM in sequence, one config apiece."""
        assert rec.path is not None and rec.channel is not None
        plan = _blocker_plan(self.topo, rec.path, rec.channel)
        order = self._roadm_sequence(rec.path)
        step = self.timings.roadm_config_ns

        def apply_one(idx: int) -> None:
            roadm_id = order[idx]
            self._apply_roadm_writes(rec, roadm_id, plan[roadm_id])
            if roadm_id == self.topo.transponder_roadm(rec.path.source):
                self.configure_roadm_channel(roadm_id, rec.channel, "add")
            if roadm_id == self.topo.transponder_roadm(rec.path.destination):
                self.configure_roadm_channel(roadm_id, rec.channel, "drop")
            if idx + 1 == len(order):
                rec.timestamps.t_roadms_configured = self.kernel.now()
                self._bring_up_transponders(rec)

        for i in range(len(order)):
            self.kernel.schedule_in(step * (i + 1),
                                    lambda idx=i: apply_one(idx),
                                    kind=f"{rec.request_id}:roadm:{order[i]}")

    def _apply_roadm_writes(self, rec: ServiceRecord, roadm_id: NodeId,
                            writes: list[tuple[str, str]]) -> None:
        roadm = self.topo.roadms[roadm_id]
        channel = rec.channel
        assert channel is not None
        for out_link, state in writes:
            if state == BLOCK:
                owner = self.channel_ledger.get((out_link, channel))
                if owner is not None and owner != rec.request_id:
                    continue  # another service lights that span; leave it alone
            roadm.set_blocker(out_link, channel, state)
            rec.blocker_writes.append((roadm_id, out_link, channel))

    def configure_roadm_channel(self, roadm_id: NodeId, channel: ChannelId,
                                role: str) -> None:
        """Idempotent add/drop port setup on one ROADM."""
        if role not in ("add", "drop"):
            raise ValueError(f"unknown role {role!r}")
        self.topo.roadms[roadm_id].add_drop_channels.add(channel)

    def _bring_up_transponders(self, rec: ServiceRecord) -> None:
        assert rec.path is not None
        pending_cfg = 2
        pending_op = 2

        def cfg_done() -> None:
            nonlocal pending_cfg
            pending_cfg -= 1
            if pending_cfg == 0:
                rec.timestamps.t_transponders_configured = self.kernel.now()

        def op_done() -> None:
            nonlocal pending_op
            pending_op -= 1
            if pending_op == 0:
                rec.timestamps.t_path_operational = self.kernel.now()
                self.kernel.schedule_in(self.timings.probe_verify_ns,
                                        lambda: self._verify_probe(rec),
                                        kind=f"{rec.request_id}:probe")

        for i, tp_id in enumerate((rec.path.source, rec.path.destination)):
            tp = self.topo.transponders[tp_id]
            rng = rec.rng.split(2, i) if self.jitter else None
            schedule = transponder_lifecycle(tp, self.kernel.now(), self.kernel,
                                             rng=rng)
            warmup_at = schedule[1][0]
            operational_at = schedule[2][0]
            self.kernel.schedule(cfg_done, warmup_at,
                                 kind=f"{rec.request_id}:tpcfg:{tp_id}")
            self.kernel.schedule(op_done, operational_at,
                                 kind=f"{rec.request_id}:tpop:{tp_id}")

    def _verify_probe(self, rec: ServiceRecord) -> None:
        assert rec.path is not None
        rng = rec.rng.split(3) if self.jitter else None
        rec.probe = measure_round_trip(rec.path, self.topo, self.probe_cfg,
                                       kernel=self.kernel, rng=rng)
        rec.timestamps.t_probe_verified = self.kernel.now()
        req = rec.descriptor.connectivity.max_rt_latency_ns
        if req is not None and rec.probe.measured_rt_ns > req:
            self._fail(rec, "probe verification exceeded latency requirement")
            return
        # monitoring registration is bookkeeping only, no extra delay
        rec.timestamps.t_monitoring_active = self.kernel.now()
        rec.transition(ServiceStatus.ACTIVE)

    # ------------------------------------------------------------- KPIs

    def compute_kpis(self, rec: ServiceRecord) -> KpiReport:
        ts = rec.timestamps
        needed = ts.as_dict()
        missing = [k for k, v in needed.items() if v is None]
        if missing:
            raise IncompleteRecord(
                f"{rec.request_id} missing {', '.join(sorted(missing))}")
        deploy = ts.t_vnfs_ready - ts.t_vnfs_started
        conn = ts.t_path_operational - ts.t_conn_requested
        e2e = ts.t_monitoring_active - ts.t_request
        warm = ts.t_path_operational - ts.t_roadms_configured
        return KpiReport(kpi_ns_deploy_ns=deploy, kpi_connectivity_ns=conn,
                         kpi_e2e_ns=e2e, e2e_excl_transponder_ns=e2e - warm)

    # ------------------------------------------------------- restoration

    def _alternate_path(self, rec: ServiceRecord) -> OpticalPath:
        assert rec.path is not None
        candidates = find_ring_paths(rec.path.source, rec.path.destination,
                                     self.topo)
        used = set(rec.path.links)
        for cand in candidates:
            if not used.intersection(cand.links):
                return cand
        raise NoAlternatePath(f"no disjoint arc for {rec.request_id}")

    def handle_degradation_alert(self, rec: ServiceRecord,
                                 alert_time: SimTime) -> RestorationOutcome:
        """Move the service to the complementary arc, keeping its channel.

        Resources on the new arc are reserved immediately; blocker rewrites,
        one per ring ROADM, then a transponder retune run as timed events.
        Restoration only lands if the service is still Degraded when the
        retune completes.
        """
        if rec.status is ServiceStatus.ACTIVE or rec.status is ServiceStatus.RESTORED:
            rec.transition(ServiceStatus.DEGRADED)
        outcome = RestorationOutcome(service_id=rec.request_id,
                                     alert_time=alert_time)
        rec.restoration = outcome
        assert rec.path is not None and rec.channel is not None
        channel = rec.channel
        try:
            alt = self._alternate_path(rec)
        except (NoAlternatePath, NoPath) as exc:
            outcome.reason = str(exc)
            return outcome
        for link_id in alt.links:
            owner = self.channel_ledger.get((link_id, channel))
            if owner is not None and owner != rec.request_id:
                outcome.reason = (f"channel {channel} busy on {link_id} "
                                  f"(owner {owner})")
                return outcome

        old_path = rec.path
        new_path = OpticalPath(alt.source, alt.destination, alt.links,
                               alt.roadms, alt.direction, channel)
        for link_id in new_path.links:
            self.channel_ledger[(link_id, channel)] = rec.request_id

        plan = _blocker_plan(self.topo, new_path, channel)
        order = self._roadm_sequence(new_path)
        step = self.timings.roadm_config_ns
        t0 = self.timings.control_messaging_ns

        old_writes = list(rec.blocker_writes)
        rec.blocker_writes = []

        def rewrite_one(idx: int) -> None:
            roadm_id = order[idx]
            roadm = self.topo.roadms[roadm_id]
            for r_id, out_link, ch in old_writes:
                if r_id == roadm_id:
                    roadm.clear_blocker(out_link, ch)
            self._apply_roadm_writes(rec, roadm_id, plan[roadm_id])
            if roadm_id == self.topo.transponder_roadm(new_path.source):
                self.configure_roadm_channel(roadm_id, channel, "add")
            if roadm_id == self.topo.transponder_roadm(new_path.destination):
                self.configure_roadm_channel(roadm_id, channel, "drop")
            if idx + 1 == len(order):
                self.kernel.schedule_in(self.timings.retune_ns, retune_done,
                                        kind=f"{rec.request_id}:retune")

        def retune_done() -> None:
            rec.path = new_path
            for link_id in old_path.links:
                if self.channel_ledger.get((link_id, channel)) == rec.request_id \
                        and link_id not in new_path.links:
                    del self.channel_ledger[(link_id, channel)]
            if rec.status is ServiceStatus.DEGRADED:
                rec.transition(ServiceStatus.RESTORED)
                outcome.restored_at = self.kernel.now()
            else:
                outcome.reason = outcome.reason or (
                    f"service already {rec.status.value} at retune")

        for i in range(len(order)):
            self.kernel.schedule_in(t0 + step * (i + 1),
                                    lambda idx=i: rewrite_one(idx),
                                    kind=f"{rec.request_id}:restore:{order[i]}")
        return outcome

    def notify_fail_crossing(self, rec: ServiceRecord, t: SimTime) -> None:
        """Signal quality crossed the fail criterion before restoration landed."""
        if rec.status is ServiceStatus.DEGRADED:
            rec.transition(ServiceStatus.FAILED)
            if rec.restoration is not None and rec.restoration.restored_at is None:
                rec.restoration.failed_at = t
                rec.restoration.reason = (rec.restoration.reason
                                          or "fail criterion crossed")

    # ---------------------------------------------------------- teardown

    def teardown(self, rec: ServiceRecord) -> None:
        """Return every resource the service holds; record becomes TornDown."""
        self.release_vnfs(rec)
        self._release_channel(rec)
        for roadm_id, out_link, ch in rec.blocker_writes:
            self.topo.roadms[roadm_id].clear_blocker(out_link, ch)
        rec.blocker_writes = []
        if rec.path is not None:
            for tp_id in (rec.path.source, rec.path.destination):
                tp = self.topo.transponders[tp_id]
                if tp.claimed_by == rec.request_id:
                    transponder_teardown(tp)
            src = self.topo.transponder_roadm(rec.path.source)
            dst = self.topo.transponder_roadm(rec.path.destination)
            if rec.channel is not None:
                self.topo.roadms[src].add_drop_channels.discard(rec.channel)
                self.topo.roadms[dst].add_drop_channels.discard(rec.channel)
        rec.transition(ServiceStatus.TORN_DOWN)

    def _release_channel(self, rec: ServiceRecord) -> None:
        gone = [k for k, owner in self.channel_ledger.items()
                if owner == rec.request_id]
        for k in gone:
            del self.channel_ledger[k]

    # --------------------------------------------------------- invariants

    def verify_invariants(self) -> list[str]:
        problems = check_no_light_loop(self) + check_channel_exclusivity(self)
        for node in self.topo.compute_nodes.values():
            if not 0 <= node.vcpu_free <= node.vcpu_capacity:
                problems.append(f"{node.id}: vcpu accounting out of range")
            if not 0 <= node.mem_free_mb <= node.mem_capacity_mb:
                problems.append(f"{node.id}: memory accounting out of range")
        for rec in self.services.values():
            stamped = [v for v in vars(rec.timestamps).values() if v is not None]
            if stamped != sorted(stamped):
                problems.append(f"{rec.request_id}: timestamps not monotonic")
        return problems


def hash_label(text: str) -> int:
    """Stable small integer from a string, for spawn keys (hash() is salted)."""
    acc = 0
    for ch in text:
        acc = (acc * 131 + ord(ch)) % (2 ** 31 - 1)
    return acc
