"""Hierarchical service orchestration over the optical ring.

The stack collapses NFV orchestrator, VIM, parent SDN controller, optical
controller and device drivers into one event-driven state machine.  A service
request walks through: VNF instantiation, sequential ROADM blocker
programming, transponder bring-up, probe verification, monitoring
registration.  Timestamps for every phase land on the service record so KPIs
can be derived afterwards.

Restoration reuses the same machinery: on a degradation alert the service is
moved to the complementary ring arc on its original channel, and the same
routine that programmed the ROADMs for deployment reprograms them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from .errors import (ChannelExhausted, IllegalTransition, IncompleteRecord,
                     NoPath, PlacementFailed, TransponderUnavailable)
from .optics import transponder_lifecycle, transponder_teardown
from .probe import LatencyMeasurement, ProbeConfig, measure_round_trip
from .simkernel import Kernel, MS, SECOND, SimRng, SimTime
from .topology import ChannelId, NodeId, OpticalPath, RingState, TransponderState


class ServiceStatus(Enum):
    DEPLOYING = "Deploying"
    ACTIVE = "Active"
    DEGRADED = "Degraded"
    RESTORED = "Restored"
    FAILED = "Failed"
    TORN_DOWN = "TornDown"


STACK_STREAM, VNF_STREAM, TRANSPONDER_STREAM, PROBE_STREAM = 0, 1, 2, 3
_REQUEST_ID = "svc-{}"  # a stack's n-th service request, n from 1

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
    rng: SimRng  # the service's stream
    status: ServiceStatus = ServiceStatus.DEPLOYING
    timestamps: Timestamps = field(default_factory=Timestamps)
    placements: dict[str, NodeId] = field(default_factory=dict)
    path: Optional[OpticalPath] = None
    channel: Optional[ChannelId] = None
    probe: Optional[LatencyMeasurement] = None
    restoration: Optional[RestorationOutcome] = None
    failure_reason: str = ""
    # roadm_id -> the (exit link id, channel) pass entries this service holds
    passes: dict[NodeId, set[tuple[str, ChannelId]]] = field(default_factory=dict)

    def transition(self, new: ServiceStatus) -> None:
        if new not in _TRANSITIONS[self.status]:
            raise IllegalTransition(f"{self.status.value} -> {new.value}")
        self.status = new


def trace_channel_light(state: RingState, origin_roadm: NodeId,
                        first_link: str, channel: ChannelId,
                        ) -> tuple[list[tuple[str, NodeId]], list[NodeId], bool]:
    """Follow injected light hop by hop along the ring order.

    Returns (traversed (link, entered_roadm) pairs, drop nodes, looped flag).
    A loop is light passed all the way round, back onto ``first_link``.
    """
    order, ring_links = state.ring.ring_order, state.ring.ring_links
    i = order.index(origin_roadm)
    step = 1 if ring_links[i] == first_link else -1
    traversed: list[tuple[str, NodeId]] = []
    drops: list[NodeId] = []
    link_id = first_link
    while len(traversed) < len(order):
        i = (i + step) % len(order)
        traversed.append((link_id, order[i]))
        roadm = state.roadms[order[i]]
        if channel in roadm.add_drop_channels:
            drops.append(order[i])
        link_id = ring_links[i if step == 1 else i - 1]
        if (link_id, channel) not in roadm.passing:
            return traversed, drops, False
    return traversed, drops, True


def check_no_light_loop(stack: "OrchestrationStack") -> list[str]:
    """Light injected by any operational service must terminate, not circulate."""
    problems = []
    for rec in stack.services.values():
        if rec.path is None or rec.channel is None:
            continue
        if rec.status not in (ServiceStatus.ACTIVE, ServiceStatus.DEGRADED,
                              ServiceStatus.RESTORED):
            continue
        first, last = rec.path.roadms[0], rec.path.roadms[-1]
        for origin, far, entry_link in ((first, last, rec.path.links[0]),
                                        (last, first, rec.path.links[-1])):
            traversed, drops, looped = trace_channel_light(
                stack.state, origin, entry_link, rec.channel)
            if looped:
                problems.append(f"{rec.request_id}: light loop from {origin}")
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

    def __init__(self, state: RingState, kernel: Kernel, rng: SimRng,
                 timings: Optional[PhaseTimings] = None,
                 probe_cfg: Optional[ProbeConfig] = None,
                 jitter: bool = False) -> None:
        self.state = state
        self.ring = state.ring
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
        request_id = _REQUEST_ID.format(self._seq)
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
            if vnf.target_compute not in self.ring.compute_nodes:
                raise PlacementFailed(f"unknown compute node {vnf.target_compute}")
            cpu, mem = demand.get(vnf.target_compute, (0, 0))
            demand[vnf.target_compute] = (cpu + vnf.vcpu, mem + vnf.mem_mb)
        free_cpu, free_mem = self.state.vcpu_free, self.state.mem_free_mb
        for node_id, (cpu, mem) in demand.items():
            if cpu > free_cpu[node_id] or mem > free_mem[node_id]:
                raise PlacementFailed(f"insufficient capacity on {node_id}")
        for node_id, (cpu, mem) in demand.items():
            free_cpu[node_id] -= cpu
            free_mem[node_id] -= mem

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
                dur_s = rec.rng.split(VNF_STREAM, i).lognormal_mean_cv(
                    vnf.instantiation_mean_s, vnf.instantiation_cv)
            self.kernel.schedule_in(round(dur_s * SECOND), done_one,
                                    kind=f"{rec.request_id}:vnf:{vnf.name}")

    def release_vnfs(self, rec: ServiceRecord) -> None:
        for vnf in rec.descriptor.vnfs:
            if vnf.name in rec.placements:
                self.state.vcpu_free[rec.placements[vnf.name]] += vnf.vcpu
                self.state.mem_free_mb[rec.placements[vnf.name]] += vnf.mem_mb
        rec.placements.clear()

    def _vnfs_ready(self, rec: ServiceRecord) -> None:
        rec.timestamps.t_vnfs_ready = self.kernel.now()
        rec.timestamps.t_conn_requested = self.kernel.now()
        try:
            self.setup_connectivity(rec)
        except (ChannelExhausted, TransponderUnavailable, NoPath) as exc:
            self._fail(rec, f"{type(exc).__name__}: {exc}")

    def assign_channel(self, path: OpticalPath) -> ChannelId:
        for ch in range(self.ring.channel_grid):
            if all((link, ch) not in self.channel_ledger for link in path.links):
                return ch
        raise ChannelExhausted(
            f"no free channel on {'+'.join(path.links)} "
            f"(grid size {self.ring.channel_grid})")

    def setup_connectivity(self, rec: ServiceRecord) -> None:
        """Reserve resources now; push device configuration through events."""
        a_tp, b_tp = rec.descriptor.connectivity.endpoints
        for tp_id in (a_tp, b_tp):
            tp = self.state.transponders.get(tp_id)
            if tp is None:
                raise TransponderUnavailable(f"no transponder {tp_id}")
            if tp.claimed_by not in (None, rec.request_id):
                raise TransponderUnavailable(f"{tp_id} claimed by {tp.claimed_by}")
            if tp.state is not TransponderState.OFF:
                raise TransponderUnavailable(f"{tp_id} is {tp.state.value}")
        path = self.ring.select_path(a_tp, b_tp)
        channel = self.assign_channel(path)
        for link_id in path.links:
            self.channel_ledger[(link_id, channel)] = rec.request_id
        for tp_id in (a_tp, b_tp):
            self.state.transponders[tp_id].claimed_by = rec.request_id
        rec.path = replace(path, channel=channel)
        rec.channel = channel
        self.kernel.schedule_in(
            self.timings.control_messaging_ns,
            lambda: self._program_roadms(
                rec, rec.path, 0, "roadm",
                lambda: self._bring_up_transponders(rec)),
            kind=f"{rec.request_id}:messaging")

    def _program_roadms(self, rec: ServiceRecord, path: OpticalPath,
                        delay: SimTime, kind: str,
                        then: Callable[[], None]) -> None:
        """The OLS driver visits every ring ROADM, the path's first, one
        configuration apiece, ``delay`` plus one config step apart.

        A visit drops the service's earlier pass entries at that ROADM, then
        passes ``path``'s channel through it if the path runs through it, or
        opens it for add/drop if the path ends there; for a service torn
        down meanwhile it writes nothing.  The last visit calls ``then``.
        """
        channel = path.channel
        hops = len(path.links)
        order = list(path.roadms) + [r for r in self.ring.ring_order
                                     if r not in path.roadms]
        step = self.timings.roadm_config_ns

        def visit(i: int) -> None:
            if rec.status is not ServiceStatus.TORN_DOWN:
                roadm = self.state.roadms[order[i]]
                roadm.passing -= rec.passes.pop(order[i], set())
                if 0 < i < hops:
                    rec.passes[order[i]] = {(path.links[i - 1], channel),
                                            (path.links[i], channel)}
                    roadm.passing |= rec.passes[order[i]]
                elif i in (0, hops):
                    roadm.add_drop_channels.add(channel)
            if i + 1 == len(order):
                then()

        for i, roadm_id in enumerate(order):
            self.kernel.schedule_in(delay + step * (i + 1),
                                    lambda i=i: visit(i),
                                    kind=f"{rec.request_id}:{kind}:{roadm_id}")

    def _bring_up_transponders(self, rec: ServiceRecord) -> None:
        """Runs once every ROADM is programmed for the service."""
        assert rec.path is not None
        rec.timestamps.t_roadms_configured = self.kernel.now()
        entered: Counter[TransponderState] = Counter()

        def on_state(state: TransponderState) -> None:
            """Stamps a phase when the second transponder reaches it."""
            entered[state] += 1
            if entered[state] < 2:
                return
            if state is TransponderState.LASER_WARMUP:
                rec.timestamps.t_transponders_configured = self.kernel.now()
            elif state is TransponderState.OPERATIONAL:
                rec.timestamps.t_path_operational = self.kernel.now()
                self.kernel.schedule_in(self.timings.probe_verify_ns,
                                        lambda: self._verify_probe(rec),
                                        kind=f"{rec.request_id}:probe")

        for i, tp_id in enumerate((rec.path.source, rec.path.destination)):
            rng = rec.rng.split(TRANSPONDER_STREAM, i) if self.jitter else None
            transponder_lifecycle(self.state.transponders[tp_id],
                                  self.kernel.now(), self.kernel, on_state,
                                  rng=rng)

    def _verify_probe(self, rec: ServiceRecord) -> None:
        assert rec.path is not None
        rng = rec.rng.split(PROBE_STREAM) if self.jitter else None
        rec.probe = measure_round_trip(rec.path, self.state, self.probe_cfg,
                                       rng=rng)
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

    def handle_degradation_alert(self, rec: ServiceRecord,
                                 alert_time: SimTime) -> RestorationOutcome:
        """Move the service to the complementary arc, keeping its channel.

        Resources on the new arc are reserved immediately; the ROADM
        programming, one visit per ring ROADM, and then a transponder retune
        run as timed events.  Restoration only lands if the service is still
        Degraded when the retune completes.
        """
        if rec.status is ServiceStatus.ACTIVE or rec.status is ServiceStatus.RESTORED:
            rec.transition(ServiceStatus.DEGRADED)
        outcome = RestorationOutcome(service_id=rec.request_id,
                                     alert_time=alert_time)
        rec.restoration = outcome
        assert rec.path is not None and rec.channel is not None
        old_path, channel = rec.path, rec.channel
        # the two arcs partition the ring, so the spare is the other direction
        alt = next(p for p in self.ring.arcs[(old_path.source,
                                              old_path.destination)]
                   if p.direction != old_path.direction)
        for link_id in alt.links:
            owner = self.channel_ledger.get((link_id, channel))
            if owner is not None and owner != rec.request_id:
                outcome.reason = (f"channel {channel} busy on {link_id} "
                                  f"(owner {owner})")
                return outcome

        new_path = replace(alt, channel=channel)
        for link_id in new_path.links:
            self.channel_ledger[(link_id, channel)] = rec.request_id

        def retune_done() -> None:
            if rec.status is ServiceStatus.TORN_DOWN:
                return
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

        self._program_roadms(
            rec, new_path, self.timings.control_messaging_ns, "restore",
            lambda: self.kernel.schedule_in(self.timings.retune_ns,
                                            retune_done,
                                            kind=f"{rec.request_id}:retune"))
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
        """Move to TornDown, raising if illegal, then return every held resource."""
        rec.transition(ServiceStatus.TORN_DOWN)
        self.release_vnfs(rec)
        self._release_channel(rec)
        if rec.path is not None:
            for tp_id in (rec.path.source, rec.path.destination):
                tp = self.state.transponders[tp_id]
                if tp.claimed_by == rec.request_id:
                    transponder_teardown(tp)
            # another live service may end at the same ROADM on this channel
            still_used = {
                end for other in self.services.values()
                if other is not rec and other.path is not None
                and other.channel == rec.channel
                and other.status is not ServiceStatus.TORN_DOWN
                for end in (other.path.roadms[0], other.path.roadms[-1])}
            for end in (rec.path.roadms[0], rec.path.roadms[-1]):
                if end not in still_used:
                    self.state.roadms[end].add_drop_channels.discard(
                        rec.channel)

    def _release_channel(self, rec: ServiceRecord) -> None:
        """Free the service's spans in the ledger and its pass entries, which
        another service may be given next."""
        gone = [k for k, owner in self.channel_ledger.items()
                if owner == rec.request_id]
        for k in gone:
            del self.channel_ledger[k]
        for roadm_id, entries in rec.passes.items():
            self.state.roadms[roadm_id].passing -= entries
        rec.passes.clear()

    # --------------------------------------------------------- invariants

    def verify_invariants(self) -> list[str]:
        problems = check_no_light_loop(self) + check_channel_exclusivity(self)
        for node in self.ring.compute_nodes.values():
            if not 0 <= self.state.vcpu_free[node.id] <= node.vcpu_capacity:
                problems.append(f"{node.id}: vcpu accounting out of range")
            if not 0 <= self.state.mem_free_mb[node.id] <= node.mem_capacity_mb:
                problems.append(f"{node.id}: memory accounting out of range")
        for rec in self.services.values():
            stamped = [v for v in vars(rec.timestamps).values() if v is not None]
            if stamped != sorted(stamped):
                problems.append(f"{rec.request_id}: timestamps not monotonic")
        return problems


def jittered_streams(ns: NsDescriptor, probe_cfg: ProbeConfig
                     ) -> list[tuple[int, ...]]:
    """The spawn paths below a world's root that a jittered stack's first
    service draws on; the probe's only when ``probe_cfg`` has jitter."""
    svc = (STACK_STREAM, hash_label(_REQUEST_ID.format(1)))
    return ([svc + (VNF_STREAM, i) for i in range(len(ns.vnfs))]
            + [svc + (TRANSPONDER_STREAM, i) for i in (0, 1)]
            + ([svc + (PROBE_STREAM,)] if probe_cfg.jitter_sigma_ns > 0
               else []))


def hash_label(text: str) -> int:
    """Stable small integer from a string, for spawn keys (hash() is salted)."""
    acc = 0
    for ch in text:
        acc = (acc * 131 + ord(ch)) % (2 ** 31 - 1)
    return acc
