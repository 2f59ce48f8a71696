"""Static model of the demo plant.

A ring of 2-degree semi-filterless ROADMs (wavelength blocker + splitters),
coherent transponders on drop ports, one aggregation switch and one edge
compute node behind each transponder.  Immutable after ``build_ring`` except
blocker pass sets, add/drop channels, transponder state and free compute
capacity, which only the orchestration stack and transponder lifecycle change.

Blocker convention: each 2-degree ROADM has two through-directions, keyed by
the ring link the light would exit on.  A ROADM passes exactly the (exit
link, channel) pairs in its ``passing`` set; every other channel is dark, so
provisioning writes pass entries only.  Add ports inject toward the
provisioned path only; drop ports are broadcast splitters with no
per-channel filtering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import NoPath, TopologyInvalid

NodeId = str
ChannelId = int

DEFAULT_CHANNEL_GRID = 96


class TransponderState(enum.Enum):
    OFF = "Off"
    CONFIGURING = "Configuring"
    LASER_WARMUP = "LaserWarmup"
    OPERATIONAL = "Operational"


@dataclass
class RoadmNode:
    id: NodeId
    # the (exit link id, channel) pairs the blocker passes; the rest are dark
    passing: set[tuple[str, ChannelId]] = field(default_factory=set)
    add_drop_channels: set[ChannelId] = field(default_factory=set)


@dataclass
class TransponderNode:
    id: NodeId
    attached_roadm: NodeId
    state: TransponderState = TransponderState.OFF
    config_duration_ns: int = 2_000_000_000
    warmup_duration_ns: int = 125_000_000_000
    claimed_by: Optional[str] = None  # service request id holding this transponder
    lifecycle_pending: bool = False  # a lifecycle schedule already exists


@dataclass(frozen=True)
class FiberLink:
    id: str
    endpoints: tuple[NodeId, NodeId]
    length_m: float
    group_index: float = 1.4680
    legacy_residual_delay_ns: int = 0  # lumped patch-panel/old-plant delay

    def __post_init__(self) -> None:
        if self.length_m < 0:
            raise TopologyInvalid(f"link {self.id}: negative length")
        if not 1.0 <= self.group_index <= 2.0:
            raise TopologyInvalid(f"link {self.id}: group index {self.group_index} outside [1, 2]")


@dataclass
class AggSwitchNode:
    id: NodeId
    attached_transponder: NodeId


@dataclass
class ComputeNode:
    id: NodeId
    attached_switch: NodeId
    vcpu_capacity: int = 16
    mem_capacity_mb: int = 32768
    vcpu_free: int = 0
    mem_free_mb: int = 0

    def __post_init__(self) -> None:
        if self.vcpu_capacity <= 0 or self.mem_capacity_mb <= 0:
            raise TopologyInvalid(f"compute {self.id}: capacities must be positive")
        self.vcpu_free = self.vcpu_capacity
        self.mem_free_mb = self.mem_capacity_mb


@dataclass
class OpticalPath:
    source: NodeId  # transponder id
    destination: NodeId
    links: tuple[str, ...]
    roadms: tuple[NodeId, ...]  # node sequence, len(links) + 1
    direction: str  # "clockwise" | "counterclockwise"
    channel: Optional[ChannelId] = None


@dataclass
class RingTopology:
    roadms: dict[NodeId, RoadmNode]
    links: dict[str, FiberLink]  # ring links only
    transponders: dict[NodeId, TransponderNode]
    switches: dict[NodeId, AggSwitchNode]
    compute_nodes: dict[NodeId, ComputeNode]
    ring_order: tuple[NodeId, ...]  # roadm cycle in clockwise orientation
    channel_grid: int = DEFAULT_CHANNEL_GRID

    def neighbors(self, roadm: NodeId) -> dict[str, NodeId]:
        """Ring links incident to a ROADM: link id -> far-end ROADM."""
        out = {}
        for lk in self.links.values():
            if lk.endpoints[0] == roadm:
                out[lk.id] = lk.endpoints[1]
            elif lk.endpoints[1] == roadm:
                out[lk.id] = lk.endpoints[0]
        return out

    def other_link(self, roadm: NodeId, link_id: str) -> str:
        """The second ring link at a 2-degree ROADM."""
        incident = [l for l in self.neighbors(roadm) if l != link_id]
        return incident[0]

    def transponder_roadm(self, tp_id: NodeId) -> NodeId:
        return self.transponders[tp_id].attached_roadm


def _given(entry: dict, *keys: str) -> dict:
    """The optional keys an entry sets; the others keep the field defaults."""
    return {key: entry[key] for key in keys if key in entry}


def build_ring(section: dict) -> RingTopology:
    """Validate a scenario topology section and assemble the plant.

    Raises TopologyInvalid for duplicate names, rings smaller than 3 ROADMs,
    link sets that do not form a single cycle, or dangling attachments.
    """
    roadm_names = list(section.get("roadms", []))
    if len(roadm_names) < 3:
        raise TopologyInvalid(f"ring needs >= 3 ROADMs, got {len(roadm_names)}")

    seen: set[str] = set()

    def unique(name: str, what: str) -> str:
        if not name:
            raise TopologyInvalid(f"{what}: empty node name")
        if name in seen:
            raise TopologyInvalid(f"duplicate node name {name!r}")
        seen.add(name)
        return name

    roadms = {unique(n, "roadm"): RoadmNode(id=n) for n in roadm_names}

    links: dict[str, FiberLink] = {}
    for entry in section.get("links", []):
        a, b = entry["endpoints"]
        for end in (a, b):
            if end not in roadms:
                raise TopologyInvalid(f"link {entry.get('id')}: unknown ROADM {end!r}")
        lk = FiberLink(id=entry.get("id") or f"{a}-{b}", endpoints=(a, b),
                       length_m=float(entry["length_m"]),
                       **_given(entry, "group_index", "legacy_residual_delay_ns"))
        if lk.id in links:
            raise TopologyInvalid(f"duplicate link id {lk.id!r}")
        links[lk.id] = lk

    # Single-cycle check: every ROADM has exactly two incident ring links and
    # a walk from the first ROADM closes after visiting all of them.
    incident: dict[str, list[str]] = {r: [] for r in roadms}
    for lk in links.values():
        incident[lk.endpoints[0]].append(lk.id)
        incident[lk.endpoints[1]].append(lk.id)
    for r, inc in incident.items():
        if len(inc) != 2:
            raise TopologyInvalid(f"ROADM {r} has degree {len(inc)}, ring needs 2")
    if len(links) != len(roadms):
        raise TopologyInvalid("link count must equal ROADM count in a single cycle")

    start = roadm_names[0]
    order = [start]
    prev_link = None
    node = start
    while True:
        nxt_link = [l for l in incident[node] if l != prev_link][0]
        far = links[nxt_link].endpoints[1] if links[nxt_link].endpoints[0] == node \
            else links[nxt_link].endpoints[0]
        if far == start:
            break
        order.append(far)
        node, prev_link = far, nxt_link
    if len(order) != len(roadms):
        raise TopologyInvalid("ring links do not form a single cycle over all ROADMs")

    transponders: dict[str, TransponderNode] = {}
    for entry in section.get("transponders", []):
        name = unique(entry["id"], "transponder")
        roadm = entry["roadm"]
        if roadm not in roadms:
            raise TopologyInvalid(f"transponder {name}: unknown ROADM {roadm!r}")
        tp = TransponderNode(id=name, attached_roadm=roadm, **_given(
            entry, "config_duration_ns", "warmup_duration_ns"))
        transponders[name] = tp
    if len(transponders) < 2:
        raise TopologyInvalid("need at least 2 transponders")

    switches: dict[str, AggSwitchNode] = {}
    for entry in section.get("switches", []):
        name = unique(entry["id"], "switch")
        tp = entry["transponder"]
        if tp not in transponders:
            raise TopologyInvalid(f"switch {name}: unknown transponder {tp!r}")
        switches[name] = AggSwitchNode(id=name, attached_transponder=tp)

    compute_nodes: dict[str, ComputeNode] = {}
    for entry in section.get("compute_nodes", []):
        name = unique(entry["id"], "compute node")
        sw = entry["switch"]
        if sw not in switches:
            raise TopologyInvalid(f"compute node {name}: unknown switch {sw!r}")
        compute_nodes[name] = ComputeNode(id=name, attached_switch=sw, **_given(
            entry, "vcpu_capacity", "mem_capacity_mb"))

    # Every transponder needs exactly one switch and one compute node behind it.
    for tp in transponders:
        owners = [s for s in switches.values() if s.attached_transponder == tp]
        if len(owners) != 1:
            raise TopologyInvalid(f"transponder {tp} needs exactly 1 switch, has {len(owners)}")
        behind = [c for c in compute_nodes.values() if c.attached_switch == owners[0].id]
        if len(behind) != 1:
            raise TopologyInvalid(
                f"switch {owners[0].id} needs exactly 1 compute node, has {len(behind)}")

    return RingTopology(
        roadms=roadms, links=links, transponders=transponders,
        switches=switches, compute_nodes=compute_nodes,
        ring_order=tuple(order),
        channel_grid=section.get("channel_grid_size", DEFAULT_CHANNEL_GRID),
    )


def _arc(topo: RingTopology, start: NodeId, end: NodeId, clockwise: bool) -> tuple[tuple[str, ...], tuple[NodeId, ...]]:
    """Walk the ring from one ROADM to another in a fixed orientation."""
    order = topo.ring_order
    n = len(order)
    idx = {r: i for i, r in enumerate(order)}
    step = 1 if clockwise else -1
    link_by_pair = {}
    for lk in topo.links.values():
        link_by_pair[frozenset(lk.endpoints)] = lk.id
    nodes = [start]
    links = []
    i = idx[start]
    while nodes[-1] != end:
        j = (i + step) % n
        links.append(link_by_pair[frozenset((order[i], order[j]))])
        nodes.append(order[j])
        i = j
    return tuple(links), tuple(nodes)


def find_ring_paths(a: NodeId, b: NodeId, topo: RingTopology) -> list[OpticalPath]:
    """The two candidate arcs between transponders on distinct ROADMs.

    Returned ordered by total length ascending; channel left unset.  The two
    arcs are link-disjoint and partition the ring's links.
    """
    ra, rb = topo.transponder_roadm(a), topo.transponder_roadm(b)
    if ra == rb:
        raise NoPath(f"{a} and {b} terminate on the same ROADM {ra}")
    candidates = []
    for clockwise in (True, False):
        links, nodes = _arc(topo, ra, rb, clockwise)
        candidates.append(OpticalPath(
            source=a, destination=b, links=links, roadms=nodes,
            direction="clockwise" if clockwise else "counterclockwise",
        ))
    candidates.sort(key=lambda p: (sum(topo.links[l].length_m for l in p.links), p.direction))
    return candidates

