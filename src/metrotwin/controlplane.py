"""Hierarchical service orchestration over the optical ring.

The stack collapses NFV orchestrator, VIM, parent SDN controller, optical
controller and device drivers into one event-driven state machine.  A service
request walks through: VNF instantiation, ROADM blocker programming on the
ring's chosen arc in that arc's visit order, transponder bring-up, probe
verification, monitoring registration.  Phase timestamps land on the service
record so KPIs can be derived afterwards.

Every world deploys one service, on channel 0.  What all worlds on one ring
deploy alike, a ``DeployPlan`` settles once, when a scenario is validated: a
world reads its row of the plan's durations from its runner's key table and
schedules its events from the plan.
Restoration reuses the same machinery: on a degradation alert the service is
moved to the complementary ring arc on its channel, and the same routine that
programmed the ROADMs for deployment reprograms them, from the plan's visit
list for that arc.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import FieldInvalid, IllegalTransition, IncompleteRecord
from .optics import TRANSPONDER_JITTER_CV
from .probe import (LatencyMeasurement, ProbeConfig, measure_round_trip,
                    noiseless_round_trip)
from .simkernel import (Kernel, KeyTable, MS, SECOND, SimRng, SimTime,
                        lognormal_params)
from .topology import (ChannelId, NodeId, OpticalPath, Record, RingState,
                       RingTopology, Transponder, TransponderState)


class ServiceStatus(Enum):
    DEPLOYING = "Deploying"
    ACTIVE = "Active"
    DEGRADED = "Degraded"
    RESTORED = "Restored"
    FAILED = "Failed"


STACK_STREAM, VNF_STREAM, TRANSPONDER_STREAM, PROBE_STREAM = 0, 1, 2, 3
# every world deploys one service, under this request id, on this channel
REQUEST_ID, CHANNEL = "svc-1", 0

# the legal (from, to) transitions; anything else raises IllegalTransition.
# A member of an Enum hashes in Python: the test compares them by identity
_TRANSITIONS = (
    (ServiceStatus.DEPLOYING, ServiceStatus.ACTIVE),
    (ServiceStatus.DEPLOYING, ServiceStatus.FAILED),
    (ServiceStatus.ACTIVE, ServiceStatus.DEGRADED),
    (ServiceStatus.DEGRADED, ServiceStatus.RESTORED),
    (ServiceStatus.DEGRADED, ServiceStatus.FAILED),
    (ServiceStatus.RESTORED, ServiceStatus.DEGRADED))
# a transponder's states in order: each after OFF is a bring-up phase,
# entered by an event; each state's next, by its name, whose hash is a str's
_BRING_UP = tuple(TransponderState)[1:]
_NEXT_PHASE = {s._name_: phase for s, phase in zip(TransponderState, _BRING_UP)}


class VnfDescriptor(NamedTuple):
    name: str
    vcpu: int = 4
    mem_mb: int = 8192
    instantiation_mean_s: float = 40.0
    instantiation_cv: float = 0.05
    target_compute: NodeId = ""


class ConnectivityRequirements(NamedTuple):
    endpoints: tuple[NodeId, NodeId]
    max_rt_latency_ns: Optional[int] = None


class NsDescriptor(Record):
    """A network service, and ``demand``: the vCPUs and MB of memory its
    VNFs ask of each compute node."""

    __slots__ = ("name", "vnfs", "connectivity", "demand")

    def __init__(self, name: str, vnfs: list[VnfDescriptor],
                 connectivity: ConnectivityRequirements) -> None:
        if len(vnfs) < 2:
            raise FieldInvalid("vnfs: a network service needs at least two VNFs")
        if connectivity.endpoints[0] == connectivity.endpoints[1]:
            raise FieldInvalid("connectivity.endpoints: they must differ")
        self.name, self.vnfs, self.connectivity = name, vnfs, connectivity
        self.demand: dict[NodeId, tuple[int, int]] = {}
        for vnf in vnfs:
            cpu, mem = self.demand.get(vnf.target_compute, (0, 0))
            self.demand[vnf.target_compute] = (cpu + vnf.vcpu, mem + vnf.mem_mb)


class PhaseTimings(NamedTuple):
    """Deterministic control-plane phase durations, ns."""
    control_messaging_ns: int = 2 * SECOND
    roadm_config_ns: int = 2 * SECOND
    probe_verify_ns: int = 2 * SECOND
    retune_ns: int = 2 * SECOND
    alert_hop_ns: int = 100 * MS


class Timestamps(Record):
    """A service's phase instants, each None until the phase is reached;
    ``FIELDS`` names them in phase order."""

    __slots__ = FIELDS = (
        "t_request", "t_vnfs_started", "t_vnfs_ready", "t_conn_requested",
        "t_roadms_configured", "t_transponders_configured",
        "t_path_operational", "t_probe_verified", "t_monitoring_active")

    def __init__(self) -> None:
        self.t_request = self.t_vnfs_started = self.t_vnfs_ready = \
            self.t_conn_requested = self.t_roadms_configured = \
            self.t_transponders_configured = self.t_path_operational = \
            self.t_probe_verified = self.t_monitoring_active = None


_STAMPS = attrgetter(*Timestamps.FIELDS)  # a record's instants, as a tuple


class KpiReport(NamedTuple):
    kpi_ns_deploy_ns: SimTime
    kpi_connectivity_ns: SimTime
    kpi_e2e_ns: SimTime
    e2e_excl_transponder_ns: SimTime


class RestorationOutcome(Record):
    __slots__ = ("service_id", "alert_time", "restored_at", "failed_at",
                 "reason")

    def __init__(self, service_id: str, alert_time: SimTime) -> None:
        self.service_id, self.alert_time = service_id, alert_time
        self.restored_at: Optional[SimTime] = None
        self.failed_at: Optional[SimTime] = None
        self.reason = ""


class ServiceRecord(Record):
    __slots__ = ("request_id", "status", "timestamps", "path", "probe",
                 "restoration", "failure_reason")

    def __init__(self, request_id: str) -> None:
        self.request_id, self.status = request_id, ServiceStatus.DEPLOYING
        self.timestamps = Timestamps()
        self.path: Optional[OpticalPath] = None
        self.probe: Optional[LatencyMeasurement] = None
        self.restoration: Optional[RestorationOutcome] = None
        self.failure_reason = ""

    def transition(self, new: ServiceStatus) -> None:
        if (self.status, new) not in _TRANSITIONS:
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
    """Light injected by an operational service must terminate, not circulate."""
    rec, problems = stack.record, []
    if rec is None or rec.path is None or rec.status not in (
            ServiceStatus.ACTIVE, ServiceStatus.DEGRADED, ServiceStatus.RESTORED):
        return problems
    first, last = rec.path.roadms[0], rec.path.roadms[-1]
    for origin, far, entry_link in ((first, last, rec.path.links[0]),
                                    (last, first, rec.path.links[-1])):
        traversed, drops, looped = trace_channel_light(
            stack.state, origin, entry_link, rec.path.channel)
        if looped:
            problems.append(f"{rec.request_id}: light loop from {origin}")
        if far not in drops:
            problems.append(
                f"{rec.request_id}: light from {origin} never reaches {far}")
    return problems


def check_channel_exclusivity(stack: "OrchestrationStack") -> list[str]:
    """A live service's channel passes ROADMs only between spans of its own
    path: no pass entry lights a span it does not hold."""
    rec = stack.record
    if rec is None or rec.path is None or rec.status is ServiceStatus.FAILED:
        return []
    return [f"channel {channel} on {link_id} passes {roadm_id}, off the path "
            f"of {rec.request_id}"
            for roadm_id, roadm in stack.state.roadms.items()
            for link_id, channel in sorted(roadm.passing)
            if link_id not in rec.path.links]


class _Arc:
    """One arc of a plan's service on channel 0, and how a world programs
    the ring for it: each ROADM in visit order, the arc's then the rest,
    with the pass entries it gets, None at the arc's ends, which add and
    drop the channel, or none off the arc; and each visit's label, by kind."""

    def __init__(self, ring: RingTopology, path: OpticalPath) -> None:
        self.path = path._replace(channel=CHANNEL)
        order, links = path.roadms + tuple(
            r for r in ring.ring_order if r not in path.roadms), path.links
        self.visits = [
            (roadm_id, None if i in (0, len(links)) else frozenset(
                {(links[i - 1], CHANNEL), (links[i], CHANNEL)}
                if i < len(links) else ()))
            for i, roadm_id in enumerate(order)]
        self.labels = {kind: [f"{REQUEST_ID}:{kind}:{roadm_id}"
                              for roadm_id in order]
                       for kind in ("roadm", "restore")}


def _deploy_stream(leaf: tuple[int, ...], jitter: bool, values: list) -> tuple:
    """A deployment stream: its leaf spawn path below a world's root, None
    if it draws nothing, and its durations for ``KeyTable.draws``.  Each
    value, (nominal ns, mean s, cv), is a lognormal draw under ``jitter``,
    unless its mean or cv is 0: then it is the mean, undrawn."""
    durations = tuple(lognormal_params(mean, cv) if jitter and mean and cv
                      else nominal for nominal, mean, cv in values)
    return (leaf if any(d.__class__ is tuple for d in durations) else None,
            durations)


class DeployPlan:
    """What every world on ``ring`` deploys alike, settled once: the service
    ``ns`` on ``ring``, on the arc ``select_path`` gives it (the spare arc
    when only the spare's noiseless probe shot meets the latency bound),
    then the other arc; its event labels, VNF demand and each arc's
    noiseless probe shot; and its streams: ``streams``, the deployment
    streams a world reads in one row, each VNF's instantiation and then
    each transponder's configuration and warm-up, as ``_deploy_stream``
    settles them; and the probe's leaf spawn path if it draws.  A
    scenario's validation builds its plans, and its runners read them.  A
    key table draws a plan's streams for all its roots on the first read,
    so the plans of one runner ask the same durations of each path."""

    def __init__(self, ring: RingTopology, ns: NsDescriptor,
                 timings: Optional[PhaseTimings] = None,
                 probe_cfg: Optional[ProbeConfig] = None,
                 jitter: bool = False) -> None:
        self.ring, self.ns, self.demand = ring, ns, ns.demand
        self.timings = timings or PhaseTimings()
        self.probe_cfg = probe_cfg or ProbeConfig()
        chosen = ring.select_path(*ns.connectivity.endpoints)
        spare, = (p for p in ring.arcs[ns.connectivity.endpoints]
                  if p is not chosen)
        # each arc's noiseless probe shot; the spare arc takes the service
        # when only its shot meets the latency bound
        self.shots = [noiseless_round_trip(p, ring, self.probe_cfg)
                      for p in (chosen, spare)]
        bound = ns.connectivity.max_rt_latency_ns
        if bound is not None and (self.shots[1].measured_rt_ns <= bound
                                  < self.shots[0].measured_rt_ns):
            chosen, spare = spare, chosen
            self.shots.reverse()
        self.arcs = (_Arc(ring, chosen), _Arc(ring, spare))
        self.path, self.shot = self.arcs[0].path, self.shots[0]
        self.labels = {kind: f"{REQUEST_ID}:{kind}" for kind in (
            "request", "messaging", "probe", "retune", "alert")}
        self.vnf_labels = [f"{REQUEST_ID}:vnf:{vnf.name}" for vnf in ns.vnfs]
        service = (STACK_STREAM, hash_label(REQUEST_ID))
        nodes = [ring.transponders[tp_id]
                 for tp_id in (self.path.source, self.path.destination)]
        self.streams = tuple([_deploy_stream(
            service + (VNF_STREAM, i), jitter,
            [(round(vnf.instantiation_mean_s * SECOND),
              vnf.instantiation_mean_s, vnf.instantiation_cv)])
            for i, vnf in enumerate(ns.vnfs)] + [_deploy_stream(
                service + (TRANSPONDER_STREAM, i), jitter,
                [(d, d / SECOND, TRANSPONDER_JITTER_CV)
                 for d in (node.config_duration_ns, node.warmup_duration_ns)])
                for i, node in enumerate(nodes)])
        self.transponder_labels = [
            [f"tp:{node.id}:{state.value}" for state in _BRING_UP]
            for node in nodes]
        self.probe_stream = (service + (PROBE_STREAM,) if jitter
                             and self.probe_cfg.jitter_sigma_ns else None)


class OrchestrationStack:
    """One world's orchestrator, controller hierarchy and device drivers:
    it deploys its plan's service on a ``RingState`` of its own, on the
    streams of ``keys``, its runner's key table, below the world's
    ``root``.  It reads its row of the plan's deployment streams once, when
    it is made: each VNF's instantiation, then each transponder's
    configuration and warm-up, in ns.  Its handlers read the kernel's clock
    as ``kernel.now``."""

    __slots__ = ("plan", "ring", "timings", "state", "kernel", "keys",
                 "root", "record", "_row", "_arc", "_kind", "_visited",
                 "_pending", "_source", "_destination", "_warm",
                 "_operational")

    def __init__(self, plan: DeployPlan, kernel: Kernel, keys: KeyTable,
                 root: tuple[int, ...]) -> None:
        self.plan, self.ring, self.timings = plan, plan.ring, plan.timings
        self.state, self.kernel = RingState(plan.ring), kernel
        self.keys, self.root = keys, root
        self._row = keys.draws(root, plan.streams)
        self.record: Optional[ServiceRecord] = None
        self._arc: Optional[_Arc] = None  # the arc being programmed

    # ---------------------------------------------------------- deployment

    def request_network_service(self) -> ServiceRecord:
        """Accept the plan's service request, once; the workflow advances
        via kernel events."""
        rec = self.record = ServiceRecord(REQUEST_ID)
        now = rec.timestamps.t_request = self.kernel.now
        self.kernel.schedule(self._start_deploy, now, self.plan.labels["request"])
        return rec

    def _fail(self, reason: str) -> None:
        """Fail the service: its compute goes back to each node, and its
        pass entries, the only ones, leave the ROADMs."""
        rec = self.record
        rec.failure_reason = reason
        for node_id, (cpu, mem) in self.plan.demand.items():
            self.state.vcpu_free[node_id] += cpu
            self.state.mem_free_mb[node_id] += mem
        for roadm in self.state.roadms.values():
            roadm.passing.clear()
        rec.transition(ServiceStatus.FAILED)

    def _start_deploy(self) -> None:
        """Place every VNF, then let their instantiations run in parallel."""
        plan, now = self.plan, self.kernel.now
        for node_id, (cpu, mem) in plan.demand.items():
            self.state.vcpu_free[node_id] -= cpu
            self.state.mem_free_mb[node_id] -= mem
        self.record.timestamps.t_vnfs_started = now
        self._pending = len(plan.vnf_labels)
        for dur_ns, label in zip(self._row, plan.vnf_labels):
            self.kernel.schedule(self._vnf_ready, now + dur_ns, label)

    def _vnf_ready(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._setup_connectivity()

    def _setup_connectivity(self) -> None:
        """The service takes the plan's path; device configuration goes
        out through events."""
        rec, now = self.record, self.kernel.now
        rec.timestamps.t_vnfs_ready = rec.timestamps.t_conn_requested = now
        rec.path = self.plan.path
        self.kernel.schedule(self._configure_path,
                             now + self.timings.control_messaging_ns,
                             self.plan.labels["messaging"])

    def _configure_path(self) -> None:
        self._program_roadms(self.plan.arcs[0], "roadm", 0)

    def _program_roadms(self, arc: _Arc, kind: str, delay: SimTime) -> None:
        """The OLS driver configures every ring ROADM once, in ``arc``'s
        visit order, ``delay`` plus one config step apart; after the last
        visit, a deployment (``kind`` "roadm") brings up the transponders
        and a restoration ("restore") retunes them.  One programming runs
        at a time, which ``handle_degradation_alert`` enforces.

        A visit opens the ROADM for add/drop if the arc ends there, or else
        sets its pass entries, only ever the service's, to the visit's: the
        channel passing through on the arc, nothing off it.
        """
        self._arc, self._kind, self._visited = arc, kind, 0
        at, step = self.kernel.now + delay, self.timings.roadm_config_ns
        for label in arc.labels[kind]:
            at += step
            self.kernel.schedule(self._visit, at, label)

    def _visit(self) -> None:
        visits = self._arc.visits
        roadm_id, entries = visits[self._visited]
        self._visited += 1
        roadm = self.state.roadms[roadm_id]
        if entries is None:
            roadm.add_drop_channels.add(CHANNEL)
        else:
            roadm.passing = set(entries)
        if self._visited < len(visits):
            return
        if self._kind == "roadm":
            self._arc = None
            self._bring_up_transponders()
        else:
            self.kernel.schedule(self._retune_done,
                                 self.kernel.now + self.timings.retune_ns,
                                 self.plan.labels["retune"])

    def _bring_up_transponders(self) -> None:
        """Runs once every ROADM is programmed for the service: each
        transponder enters its bring-up phases by events of its own."""
        now, schedule = self.kernel.now, self.kernel.schedule
        self.record.timestamps.t_roadms_configured = now
        self._warm = self._operational = 0  # transponders past each phase
        path, transponders = self.plan.path, self.state.transponders
        self._source = transponders[path.source]
        self._destination = transponders[path.destination]
        # the row ends with each transponder's configuration and warm-up
        config, warmup, dst_config, dst_warmup = self._row[-4:]
        labels, dst_labels = self.plan.transponder_labels
        phase, dst_phase = self._source_phase, self._destination_phase
        schedule(phase, now, labels[0])
        schedule(phase, now + config, labels[1])
        schedule(phase, now + config + warmup, labels[2])
        schedule(dst_phase, now, dst_labels[0])
        schedule(dst_phase, now + dst_config, dst_labels[1])
        schedule(dst_phase, now + dst_config + dst_warmup, dst_labels[2])

    def _source_phase(self) -> None:
        self._next_phase(self._source)

    def _destination_phase(self) -> None:
        self._next_phase(self._destination)

    def _next_phase(self, tp: Transponder) -> None:
        """Moves a transponder on to its next phase, and stamps a phase when
        the second transponder reaches it."""
        ts = self.record.timestamps
        state = tp.state = _NEXT_PHASE[tp.state._name_]
        if state is TransponderState.LASER_WARMUP:
            self._warm += 1
            if self._warm == 2:
                ts.t_transponders_configured = self.kernel.now
        elif state is TransponderState.OPERATIONAL:
            self._operational += 1
            if self._operational == 2:
                now = ts.t_path_operational = self.kernel.now
                self.kernel.schedule(self._verify_probe,
                                     now + self.timings.probe_verify_ns,
                                     self.plan.labels["probe"])

    def _verify_probe(self) -> None:
        rec, plan = self.record, self.plan
        leaf = plan.probe_stream
        rec.probe = measure_round_trip(
            rec.path, self.state, plan.probe_cfg, plan.shot,
            None if leaf is None else SimRng(self.keys, self.root + leaf))
        rec.timestamps.t_probe_verified = self.kernel.now
        req = plan.ns.connectivity.max_rt_latency_ns
        if req is not None and rec.probe.measured_rt_ns > req:
            self._fail("probe verification exceeded latency requirement")
            return
        # monitoring registration is bookkeeping only, no extra delay
        rec.timestamps.t_monitoring_active = self.kernel.now
        rec.transition(ServiceStatus.ACTIVE)

    # ------------------------------------------------------------- KPIs

    def compute_kpis(self, rec: ServiceRecord) -> KpiReport:
        stamps = _STAMPS(rec.timestamps)
        if None in stamps:
            missing = [k for k, t in zip(Timestamps.FIELDS, stamps) if t is None]
            raise IncompleteRecord(
                f"{rec.request_id} missing {', '.join(sorted(missing))}")
        request, started, ready, conn, roadms, _, operational, _, active = stamps
        e2e = active - request
        return KpiReport(ready - started, operational - conn, e2e,
                         e2e - (operational - roadms))

    # ------------------------------------------------------- restoration

    def handle_degradation_alert(self, rec: ServiceRecord,
                                 alert_time: SimTime) -> RestorationOutcome:
        """Move the service to the complementary arc, keeping its channel.

        The ROADM programming, one visit per ring ROADM, and then a
        transponder retune run as timed events.  Restoration only lands if
        the service is still Degraded when the retune completes.  An alert
        before the deployment's ROADM programming or an earlier alert's
        retune has finished raises ``IllegalTransition``.
        """
        if self._arc is not None:
            raise IllegalTransition(
                f"{rec.request_id}: ROADM programming already in progress")
        if rec.status is ServiceStatus.ACTIVE or rec.status is ServiceStatus.RESTORED:
            rec.transition(ServiceStatus.DEGRADED)
        outcome = RestorationOutcome(service_id=rec.request_id,
                                     alert_time=alert_time)
        rec.restoration = outcome
        assert rec.path is not None
        # the two arcs partition the ring: the spare is the one not in use
        first, second = self.plan.arcs
        self._program_roadms(second if rec.path is first.path else first,
                             "restore", self.timings.control_messaging_ns)
        return outcome

    def _retune_done(self) -> None:
        rec = self.record
        outcome = rec.restoration
        rec.path, self._arc = self._arc.path, None
        if rec.status is ServiceStatus.DEGRADED:
            rec.transition(ServiceStatus.RESTORED)
            outcome.restored_at = self.kernel.now
        else:
            outcome.reason = outcome.reason or (
                f"service already {rec.status.value} at retune")

    def notify_fail_crossing(self, rec: ServiceRecord, t: SimTime) -> None:
        """Signal quality crossed the fail criterion before restoration landed."""
        if rec.status is ServiceStatus.DEGRADED:
            rec.transition(ServiceStatus.FAILED)
            if rec.restoration is not None and rec.restoration.restored_at is None:
                rec.restoration.failed_at = t
                rec.restoration.reason = (rec.restoration.reason
                                          or "fail criterion crossed")

    # --------------------------------------------------------- invariants

    def verify_invariants(self) -> list[str]:
        problems = check_no_light_loop(self) + check_channel_exclusivity(self)
        for node in self.ring.compute_nodes.values():
            if not 0 <= self.state.vcpu_free[node.id] <= node.vcpu_capacity:
                problems.append(f"{node.id}: vcpu accounting out of range")
            if not 0 <= self.state.mem_free_mb[node.id] <= node.mem_capacity_mb:
                problems.append(f"{node.id}: memory accounting out of range")
        if self.record is not None:
            stamped = [t for t in _STAMPS(self.record.timestamps)
                       if t is not None]
            if stamped != sorted(stamped):
                problems.append(f"{REQUEST_ID}: timestamps not monotonic")
        return problems


def hash_label(text: str) -> int:
    """Stable small integer from a string, for spawn keys (hash() is salted)."""
    acc = 0
    for ch in text:
        acc = (acc * 131 + ord(ch)) % (2 ** 31 - 1)
    return acc
