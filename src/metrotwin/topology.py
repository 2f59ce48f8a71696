"""The demo plant: a ring shared by every world, and one world's state on it.

A ring of 2-degree semi-filterless ROADMs (wavelength blocker + splitters),
coherent transponders on drop ports, one aggregation switch and one edge
compute node behind each transponder.  ``build_ring`` validates a scenario's
topology into a frozen ``RingTopology`` once: links, ring order,
transponders, compute capacities, both arcs of each transponder pair and the
arc ``select_path`` gives it.  Each world owns only a ``RingState`` over it:
blocker pass sets and add/drop channels, transponder state, and free compute
capacity, which only the orchestration stack changes.

Blocker convention: each 2-degree ROADM has two through-directions, keyed by
the ring link the light would exit on.  A ROADM passes exactly the (exit
link, channel) pairs in its ``passing`` set; every other channel is dark, so
provisioning writes pass entries only.  Add ports inject toward the
provisioned path only; drop ports are broadcast splitters with no
per-channel filtering.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .errors import NoPath, TopologyInvalid

NodeId = str
ChannelId = int


class TransponderState(enum.Enum):
    OFF = "Off"
    CONFIGURING = "Configuring"
    LASER_WARMUP = "LaserWarmup"
    OPERATIONAL = "Operational"


class Record:
    """A record whose ``__slots__`` are its fields: two records of one class
    are equal when their fields are."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)


class Frozen(Record):
    """A record whose ``__init__`` sets each field once, with ``_set``:
    setting one later raises AttributeError, as on a NamedTuple."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} cannot be set")


class TransponderNode(NamedTuple):
    id: NodeId
    attached_roadm: NodeId
    config_duration_ns: int = 2_000_000_000
    warmup_duration_ns: int = 125_000_000_000


class FiberLink(Frozen):
    """A ring link; ``legacy_residual_delay_ns`` is a lumped
    patch-panel/old-plant delay."""

    __slots__ = ("id", "endpoints", "length_m", "group_index",
                 "legacy_residual_delay_ns")

    def __init__(self, id: str, endpoints: tuple[NodeId, NodeId],
                 length_m: float, group_index: float = 1.4680,
                 legacy_residual_delay_ns: int = 0) -> None:
        if length_m < 0:
            raise TopologyInvalid(f"link {id}: negative length")
        if not 1.0 <= group_index <= 2.0:
            raise TopologyInvalid(f"link {id}: group index {group_index} outside [1, 2]")
        self._set(id=id, endpoints=endpoints, length_m=length_m,
                  group_index=group_index,
                  legacy_residual_delay_ns=legacy_residual_delay_ns)


class ComputeNode(Frozen):
    __slots__ = ("id", "vcpu_capacity", "mem_capacity_mb")

    def __init__(self, id: NodeId, vcpu_capacity: int = 16,
                 mem_capacity_mb: int = 32768) -> None:
        if vcpu_capacity <= 0 or mem_capacity_mb <= 0:
            raise TopologyInvalid(f"compute {id}: capacities must be positive")
        self._set(id=id, vcpu_capacity=vcpu_capacity,
                  mem_capacity_mb=mem_capacity_mb)


class OpticalPath(NamedTuple):
    source: NodeId  # transponder id
    destination: NodeId
    links: tuple[str, ...]
    roadms: tuple[NodeId, ...]  # node sequence, len(links) + 1
    direction: str  # "clockwise" | "counterclockwise"
    channel: Optional[ChannelId] = None


class RingTopology(Frozen):
    """A validated ring, shared read-only by every world built on it."""

    __slots__ = (
        "links",  # ring links only
        "ring_order",  # roadm cycle in clockwise orientation
        "ring_links",  # ring_links[i] joins ring_order[i] and [i + 1]
        "transponders", "compute_nodes",
        # (source, destination) transponders on distinct ROADMs -> their two
        # arcs, shorter first (clockwise on a tie); the arcs are link-disjoint
        # and partition the ring
        "arcs",
        "_selected",  # select_path's arcs
        "_free")  # each compute node's vCPUs and memory, copied by each world

    def __init__(self, links: Mapping[str, FiberLink],
                 ring_order: tuple[NodeId, ...], ring_links: tuple[str, ...],
                 transponders: Mapping[NodeId, TransponderNode],
                 compute_nodes: Mapping[NodeId, ComputeNode]) -> None:
        self._set(links=MappingProxyType(dict(links)), ring_order=ring_order,
                  ring_links=ring_links,
                  transponders=MappingProxyType(dict(transponders)),
                  compute_nodes=MappingProxyType(dict(compute_nodes)))
        arcs = {}
        for a, ta in self.transponders.items():
            for b, tb in self.transponders.items():
                if ta.attached_roadm != tb.attached_roadm:
                    arcs[(a, b)] = tuple(sorted(
                        (self._arc(a, b, clockwise) for clockwise in (True, False)),
                        key=lambda p: sum(self.links[l].length_m for l in p.links)))
        # arcs run shorter first, clockwise on a tie, and min keeps the first
        # of the fewest hops: select_path's rule in full
        self._set(arcs=MappingProxyType(arcs), _selected={
            k: min(v, key=lambda p: len(p.links)) for k, v in arcs.items()},
            _free=({c: n.vcpu_capacity for c, n in compute_nodes.items()},
                   {c: n.mem_capacity_mb for c, n in compute_nodes.items()}))
    def select_path(self, a: NodeId, b: NodeId) -> OpticalPath:
        """The arc a service from ``a`` to ``b`` takes, chosen once: fewest
        ROADM hops, then length, then clockwise."""
        path = self._selected.get((a, b))
        if path is None:
            raise NoPath(f"{a} and {b} terminate on the same ROADM")
        return path

    def _arc(self, a: NodeId, b: NodeId, clockwise: bool) -> OpticalPath:
        """Walk the ring from transponder ``a``'s ROADM to ``b``'s."""
        order, n = self.ring_order, len(self.ring_order)
        end = self.transponders[b].attached_roadm
        i = order.index(self.transponders[a].attached_roadm)
        nodes, links = [order[i]], []
        while nodes[-1] != end:
            j = (i + (1 if clockwise else -1)) % n
            links.append(self.ring_links[i if clockwise else j])
            nodes.append(order[j])
            i = j
        return OpticalPath(
            source=a, destination=b, links=tuple(links), roadms=tuple(nodes),
            direction="clockwise" if clockwise else "counterclockwise")


class Roadm(Record):
    """A ROADM's blocker in one world."""

    __slots__ = ("passing", "add_drop_channels")

    def __init__(self) -> None:
        # the (exit link id, channel) pairs the blocker passes; the rest are dark
        self.passing: set[tuple[str, ChannelId]] = set()
        self.add_drop_channels: set[ChannelId] = set()


class Transponder(Record):
    """A transponder in one world."""

    __slots__ = ("state",)

    def __init__(self, state: TransponderState = TransponderState.OFF) -> None:
        self.state = state


class RingState:
    """One world's mutable state on a shared ring."""

    def __init__(self, ring: RingTopology) -> None:
        self.ring = ring
        self.roadms = {r: Roadm() for r in ring.ring_order}
        self.transponders = {t: Transponder() for t in ring.transponders}
        vcpu, mem = ring._free
        self.vcpu_free, self.mem_free_mb = vcpu.copy(), mem.copy()


def _given(entry: dict, *keys: str) -> dict:
    """The optional keys an entry sets; the others keep the field defaults."""
    return {key: entry[key] for key in keys if key in entry}


def build_ring(section: dict) -> RingTopology:
    """Validate a scenario topology section into the ring its worlds share.

    Raises TopologyInvalid for empty or duplicate names, rings smaller than 3 ROADMs,
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

    roadms = {unique(n, "roadm") for n in roadm_names}

    links: dict[str, FiberLink] = {}
    for entry in section.get("links", []):
        a, b = entry["endpoints"]
        if not entry.get("id"):
            raise TopologyInvalid("link: empty link id")
        for end in (a, b):
            if end not in roadms:
                raise TopologyInvalid(f"link {entry['id']}: unknown ROADM {end!r}")
        lk = FiberLink(id=entry["id"], endpoints=(a, b),
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
    ring_links: list[str] = []
    prev_link = None
    node = start
    while True:
        nxt_link = [l for l in incident[node] if l != prev_link][0]
        ring_links.append(nxt_link)
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

    switches: dict[str, NodeId] = {}  # switch -> its transponder
    for entry in section.get("switches", []):
        name = unique(entry["id"], "switch")
        tp = entry["transponder"]
        if tp not in transponders:
            raise TopologyInvalid(f"switch {name}: unknown transponder {tp!r}")
        switches[name] = tp

    compute_nodes: dict[str, ComputeNode] = {}
    behind: dict[str, NodeId] = {}  # compute node -> its switch
    for entry in section.get("compute_nodes", []):
        name = unique(entry["id"], "compute node")
        sw = entry["switch"]
        if sw not in switches:
            raise TopologyInvalid(f"compute node {name}: unknown switch {sw!r}")
        compute_nodes[name] = ComputeNode(id=name, **_given(
            entry, "vcpu_capacity", "mem_capacity_mb"))
        behind[name] = sw

    # Every transponder needs exactly one switch and one compute node behind it.
    for tp in transponders:
        owners = [s for s, owner in switches.items() if owner == tp]
        if len(owners) != 1:
            raise TopologyInvalid(f"transponder {tp} needs exactly 1 switch, has {len(owners)}")
        computes = [c for c, sw in behind.items() if sw == owners[0]]
        if len(computes) != 1:
            raise TopologyInvalid(
                f"switch {owners[0]} needs exactly 1 compute node, has {len(computes)}")

    return RingTopology(
        links=links, ring_order=tuple(order), ring_links=tuple(ring_links),
        transponders=transponders, compute_nodes=compute_nodes)
