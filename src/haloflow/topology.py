"""Interconnect topology graphs, deterministic routing, and machine presets.

A :class:`Topology` is an undirected multigraph of nodes (devices, host
bridges, switches, NICs) whose edges carry a *per-direction* capacity in
bytes per second.  Vendor datasheets usually quote bidirectional figures;
everything in this module stores half of that, per direction, so a quoted
"50 GB/s" device link becomes a 25e9 capacity each way.

Routes between device pairs are single fixed paths.  They are derived
automatically by shortest-hop search with a deterministic tie-break (the
lexicographically smallest node sequence, lowest link index first) from
the lower-numbered endpoint, and the opposite direction is the exact
reversal, so ``route(i, j)`` and ``route(j, i)`` always mirror each other.
One breadth-first search per source device yields its routes to every
higher-numbered device.

Presets
-------
``dgx1p`` / ``dgx1v``
    Eight devices in two fully connected four-device islands with a single
    interconnect lane per pair (20e9 per direction for the Pascal
    generation, 25e9 for Volta).  Devices in different islands have no
    direct link; traffic between them crosses the host bridges through a
    PCIe + CPU-interconnect path.  An optional ``servers`` count replicates
    the whole box and joins the copies through per-island NICs and one
    non-blocking fabric switch.
``dgx2``
    Sixteen devices, each attached to a single non-blocking switch by six
    25e9 lanes, so any device pair sees 150e9 per direction and the box
    aggregates 16 * 300e9 / 2 = 2.4e12 of total throughput.
``fat_tree_edr``
    ``nodes`` hosts with ``devices_per_node`` devices each.  Devices reach
    their host bridge over PCIe; each host owns one NIC; NICs meet at one
    switch standing in for a full-bisection fat tree.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError, ScenarioError, TopologyError, TopologySpecError

# Default per-direction capacities, bytes/s.  Overridable per preset call.
NVLINK_LANE_PASCAL = 20e9
NVLINK_LANE_VOLTA = 25e9
PCIE_BW = 12e9
CPU_INTERCONNECT_BW = 8e9
IB_EDR_BW = 12e9
DEVICE_MEM_BW_PASCAL = 720e9
DEVICE_MEM_BW_VOLTA = 800e9


class NodeKind(enum.Enum):
    DEVICE = "device"
    HOST_BRIDGE = "hostbridge"
    SWITCH = "switch"
    NIC = "nic"


_KIND_ORDER = {
    NodeKind.DEVICE: 0,
    NodeKind.HOST_BRIDGE: 1,
    NodeKind.SWITCH: 2,
    NodeKind.NIC: 3,
}


@dataclass(frozen=True)
class NodeId:
    kind: NodeKind
    index: int

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.index}"


def device(i: int) -> NodeId:
    return NodeId(NodeKind.DEVICE, i)


def host_bridge(i: int) -> NodeId:
    return NodeId(NodeKind.HOST_BRIDGE, i)


def switch(i: int) -> NodeId:
    return NodeId(NodeKind.SWITCH, i)


def nic(i: int) -> NodeId:
    return NodeId(NodeKind.NIC, i)


def parse_node(text: str) -> NodeId:
    """Parse ``"device:0"`` style node names used in scenario documents."""
    if not isinstance(text, str):
        raise TopologyError(f"node name must be a string, got {type(text).__name__}")
    try:
        kind_text, index_text = text.split(":")
        kind = NodeKind(kind_text)
        index = int(index_text)
    except (ValueError, KeyError) as exc:
        raise TopologyError(f"malformed node name {text!r}") from exc
    if index < 0:
        raise TopologyError(f"negative node index in {text!r}")
    return NodeId(kind, index)


@dataclass(frozen=True)
class Link:
    """Undirected edge with equal capacity in both directions.

    ``lane_count`` aggregates parallel physical links; the effective
    per-direction capacity is ``bw_per_dir * lane_count``.
    """

    a: NodeId
    b: NodeId
    bw_per_dir: float
    lane_count: int = 1

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"link endpoints must differ, got {self.a}")
        if not (self.bw_per_dir > 0) or not math.isfinite(self.bw_per_dir):
            raise TopologyError(f"link {self.a}--{self.b} needs positive finite bandwidth")
        if self.lane_count < 1:
            raise TopologyError(f"link {self.a}--{self.b} needs lane_count >= 1")

    @property
    def capacity(self) -> float:
        return self.bw_per_dir * self.lane_count


# A hop is (link index, forward?) where forward means traversal a -> b.
Hop = tuple[int, bool]


def _reverse(hops: Sequence[Hop]) -> tuple[Hop, ...]:
    """The same walk in the opposite direction."""
    return tuple((li, not fwd) for li, fwd in reversed(hops))


class RankMap:
    """Mapping from simulation rank to device index.

    More than one rank may share a device (their traffic then shares that
    device's links and its memory engine).
    """

    def __init__(self, devices: Sequence[int]):
        devs = tuple(int(d) for d in devices)
        if not devs:
            raise ConfigurationError("rank map must place at least one rank")
        if any(d < 0 for d in devs):
            raise ConfigurationError("rank map device indices must be non-negative")
        self._devices = devs

    @classmethod
    def identity(cls, nranks: int) -> "RankMap":
        return cls(range(nranks))

    @property
    def nranks(self) -> int:
        return len(self._devices)

    def device_of(self, rank: int) -> int:
        if not 0 <= rank < len(self._devices):
            raise ConfigurationError(f"rank {rank} outside rank map of size {len(self._devices)}")
        return self._devices[rank]

    def __iter__(self):
        return iter(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    def __eq__(self, other) -> bool:
        return isinstance(other, RankMap) and self._devices == other._devices

    def __repr__(self) -> str:
        return f"RankMap({list(self._devices)!r})"


class Topology:
    """Immutable interconnect graph with one fixed route per device pair."""

    def __init__(
        self,
        nodes: Iterable[NodeId],
        links: Sequence[Link],
        device_mem_bw: float,
        routes: Mapping[tuple[int, int], Sequence[Hop]] | None = None,
        name: str = "",
    ):
        self.name = name
        self.nodes = frozenset(nodes)
        self.links = tuple(links)
        if not (device_mem_bw > 0) or not math.isfinite(device_mem_bw):
            raise TopologyError("device_mem_bw must be positive and finite")
        self.device_mem_bw = float(device_mem_bw)

        if not self.nodes:
            raise TopologyError("topology needs at least one node")
        for ln in self.links:
            if ln.a not in self.nodes or ln.b not in self.nodes:
                raise TopologyError(f"link {ln.a}--{ln.b} references a node not in the topology")

        self._devices = tuple(sorted((n.index for n in self.nodes if n.kind is NodeKind.DEVICE)))
        if not self._devices:
            raise TopologyError("topology needs at least one device node")
        self._device_set = frozenset(self._devices)

        # nodes interned as ints in sort-key order (devices first, by index);
        # adjacency sorted by (neighbour, link index), so a breadth-first
        # search discovers nodes in lexicographic path order, which makes the
        # chosen shortest path deterministic
        self._node_list = sorted(self.nodes, key=NodeId.sort_key)
        self._node_ids = {n: k for k, n in enumerate(self._node_list)}
        adj: list[list[tuple[int, int, Hop]]] = [[] for _ in self._node_list]
        for li, ln in enumerate(self.links):
            a, b = self._node_ids[ln.a], self._node_ids[ln.b]
            adj[a].append((b, li, (li, True)))
            adj[b].append((a, li, (li, False)))
        self._adj = [[(v, hop) for v, _li, hop in sorted(row)] for row in adj]
        self._trees: dict[int, list[tuple[Hop, ...] | None]] = {}
        self._bridge_ids = [k for k, n in enumerate(self._node_list)
                            if n.kind is NodeKind.HOST_BRIDGE]
        # device -> what bridge_path returns for it, or None where no bridge is reachable
        self._bridges: dict[int, tuple[NodeId, tuple[Hop, ...]] | None] = {}

        if routes is None:
            self._routes = self._derive_routes()
        else:
            self._routes = self._check_routes(routes)

    # ------------------------------------------------------------------
    # construction helpers

    def _paths_from(self, src: int) -> list[tuple[Hop, ...] | None]:
        """Shortest-hop path from node ``src`` to every node (None where unreachable).

        One breadth-first search over the sorted adjacency: each path is the
        lexicographically smallest shortest one, lowest link index first.
        A search for one target that stops after the level where the target
        appears assigns the same parents, so every path equals its own.
        """
        paths: list[tuple[Hop, ...] | None] = [None] * len(self._adj)
        paths[src] = ()
        queue = [src]
        for u in queue:
            to_u = paths[u]
            for v, hop in self._adj[u]:
                if paths[v] is None:
                    paths[v] = to_u + (hop,)
                    queue.append(v)
        return paths

    def _tree(self, src: NodeId) -> list[tuple[Hop, ...] | None]:
        """``_paths_from`` of node ``src``, searched once per source and kept."""
        k = self._node_ids[src]
        paths = self._trees.get(k)
        if paths is None:
            paths = self._trees[k] = self._paths_from(k)
        return paths

    def _nearest_bridge(self, paths) -> tuple[NodeId, tuple[Hop, ...]] | None:
        """The host bridge fewest hops away in a search tree (lowest index on
        ties) and the path to it, or None if the tree reaches none."""
        got = min(((len(paths[k]), k) for k in self._bridge_ids if paths[k] is not None),
                  default=None)
        return None if got is None else (self._node_list[got[1]], paths[got[1]])

    def _derive_routes(self) -> dict[tuple[int, int], tuple[Hop, ...]]:
        """Routes from each device's search tree to the higher-numbered devices.

        Device ``devs[k]`` is node ``k``, since devices sort first.  Each
        tree is dropped once its device's ``bridge_path`` is recorded.
        """
        routes: dict[tuple[int, int], tuple[Hop, ...]] = {}
        devs = self._devices
        for ai, i in enumerate(devs[:-1]):
            paths = self._paths_from(ai)
            self._bridges[i] = self._nearest_bridge(paths)
            for bi in range(ai + 1, len(devs)):
                j, hops = devs[bi], paths[bi]
                if hops is None:
                    raise TopologyError(f"no path between device:{i} and device:{j}")
                routes[(i, j)] = hops
                routes[(j, i)] = _reverse(hops)
        for i in devs:
            routes[(i, i)] = ()
        return routes

    def _check_routes(self, given) -> dict[tuple[int, int], tuple[Hop, ...]]:
        routes = {k: tuple(v) for k, v in given.items()}
        for i in self._devices:
            routes.setdefault((i, i), ())
        for ai, i in enumerate(self._devices):
            for j in self._devices[ai + 1 :]:
                if (i, j) not in routes and (j, i) not in routes:
                    raise TopologyError(f"route missing for device pair ({i}, {j})")
                if (i, j) in routes and (j, i) not in routes:
                    routes[(j, i)] = _reverse(routes[(i, j)])
                if (j, i) in routes and (i, j) not in routes:
                    routes[(i, j)] = _reverse(routes[(j, i)])
        for (i, j), hops in routes.items():
            self._validate_walk(device(i), device(j), hops)
        return routes

    def _validate_walk(self, src: NodeId, dst: NodeId, hops: Sequence[Hop]) -> None:
        cur = src
        for li, fwd in hops:
            if not 0 <= li < len(self.links):
                raise TopologyError(f"route {src}->{dst} references unknown link {li}")
            ln = self.links[li]
            head, tail = (ln.a, ln.b) if fwd else (ln.b, ln.a)
            if head != cur:
                raise TopologyError(f"route {src}->{dst} is not a connected walk at {cur}")
            cur = tail
        if cur != dst:
            raise TopologyError(f"route {src}->{dst} ends at {cur}")

    # ------------------------------------------------------------------
    # queries

    @property
    def devices(self) -> tuple[int, ...]:
        return self._devices

    @property
    def n_devices(self) -> int:
        return len(self._devices)

    def has_device(self, i: int) -> bool:
        return i in self._device_set

    def route_hops(self, src: int, dst: int) -> tuple[Hop, ...]:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise TopologyError(f"no route between device:{src} and device:{dst}") from None

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """The links along the fixed path from ``src`` to ``dst`` (empty for src == dst)."""
        return tuple(self.links[li] for li, _ in self.route_hops(src, dst))

    def route_nodes(self, src: int, dst: int) -> tuple[NodeId, ...]:
        """Node sequence visited by route(src, dst), endpoints included."""
        return self._walk_nodes(device(src), self.route_hops(src, dst))

    def _walk_nodes(self, start: NodeId, hops: Sequence[Hop]) -> tuple[NodeId, ...]:
        seq = [start]
        for li, fwd in hops:
            ln = self.links[li]
            seq.append(ln.b if fwd else ln.a)
        return tuple(seq)

    def route_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck per-direction capacity along route(src, dst).

        For ``src == dst`` the transfer never leaves the device, so this is
        the device memory bandwidth.
        """
        if not self.has_device(src):
            raise TopologyError(f"unknown device {src}")
        if not self.has_device(dst):
            raise TopologyError(f"unknown device {dst}")
        if src == dst:
            return self.device_mem_bw
        hops = self.route_hops(src, dst)
        return min(self.links[li].capacity for li, _ in hops)

    def path_hops(self, a: NodeId, b: NodeId) -> tuple[Hop, ...]:
        """Deterministic shortest-hop path between two arbitrary nodes.

        Used for staged transfers whose segments start or end at non-device
        nodes; unlike device routes these are read, on demand, from ``a``'s
        search tree, which is built once and kept.  ``bridge_path`` gives a
        device's path up to its nearest bridge without that device's tree.
        """
        for n in (a, b):
            if n not in self._node_ids:
                raise TopologyError(f"unknown node {n}")
        hops = self._tree(a)[self._node_ids[b]]
        if hops is None:
            raise TopologyError(f"no path between {a} and {b}")
        return hops

    def bridge_path(self, dev: int) -> tuple[NodeId, tuple[Hop, ...]]:
        """A device's closest host bridge (fewest hops, lowest index on ties)
        and ``path_hops`` up to it, recorded from the device's route search.
        The last device, and all of a topology given its routes, are searched
        on first use."""
        if dev not in self._bridges:
            if not self.has_device(dev):
                raise TopologyError(f"unknown device {dev}")
            self._bridges[dev] = self._nearest_bridge(self._tree(device(dev)))
        got = self._bridges[dev]
        if got is None:
            raise TopologyError(f"device:{dev} has no host bridge on its topology")
        return got

    def nearest_host_bridge(self, dev: int) -> NodeId:
        """Closest host bridge to a device (fewest hops, lowest index on ties)."""
        return self.bridge_path(dev)[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Topology)
            and self.nodes == other.nodes
            and self.links == other.links
            and self.device_mem_bw == other.device_mem_bw
            and self._routes == other._routes
        )

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, devices={self.n_devices}, "
            f"links={len(self.links)})"
        )


# ----------------------------------------------------------------------
# presets


def _dgx1(
    generation: str,
    servers: int,
    nvlink_bw: float | None,
    pcie_bw: float,
    cpu_bw: float,
    ib_bw: float,
    device_mem_bw: float | None,
) -> Topology:
    if servers < 1:
        raise ConfigurationError("servers must be >= 1")
    if generation == "p":
        lane = NVLINK_LANE_PASCAL if nvlink_bw is None else nvlink_bw
        mem = DEVICE_MEM_BW_PASCAL if device_mem_bw is None else device_mem_bw
    else:
        lane = NVLINK_LANE_VOLTA if nvlink_bw is None else nvlink_bw
        mem = DEVICE_MEM_BW_VOLTA if device_mem_bw is None else device_mem_bw

    nodes: list[NodeId] = []
    links: list[Link] = []
    for s in range(servers):
        dev0 = 8 * s
        hb0 = 2 * s
        devs = [device(dev0 + k) for k in range(8)]
        bridges = [host_bridge(hb0), host_bridge(hb0 + 1)]
        nodes.extend(devs)
        nodes.extend(bridges)
        # two fully connected 4-device islands, one lane per pair
        for island in range(2):
            members = devs[4 * island : 4 * island + 4]
            for x in range(4):
                for y in range(x + 1, 4):
                    links.append(Link(members[x], members[y], lane))
            for d in members:
                links.append(Link(d, bridges[island], pcie_bw))
        links.append(Link(bridges[0], bridges[1], cpu_bw))
        if servers > 1:
            for island in range(2):
                n = nic(hb0 + island)
                nodes.append(n)
                links.append(Link(bridges[island], n, pcie_bw))
    if servers > 1:
        fabric = switch(0)
        nodes.append(fabric)
        for s in range(servers):
            for island in range(2):
                links.append(Link(nic(2 * s + island), fabric, ib_bw))
    name = f"dgx1{generation}" + (f"x{servers}" if servers > 1 else "")
    return Topology(nodes, links, mem, name=name)


def _dgx2(nvlink_bw: float | None, device_mem_bw: float | None) -> Topology:
    lane = NVLINK_LANE_VOLTA if nvlink_bw is None else nvlink_bw
    mem = DEVICE_MEM_BW_VOLTA if device_mem_bw is None else device_mem_bw
    nodes = [device(i) for i in range(16)] + [switch(0)]
    links = [Link(device(i), switch(0), lane, lane_count=6) for i in range(16)]
    return Topology(nodes, links, mem, name="dgx2")


def _fat_tree_edr(
    nodes_count: int,
    devices_per_node: int,
    pcie_bw: float,
    ib_bw: float,
    device_mem_bw: float | None,
) -> Topology:
    if nodes_count < 1 or devices_per_node < 1:
        raise ConfigurationError("fat_tree_edr needs nodes >= 1 and devices_per_node >= 1")
    mem = DEVICE_MEM_BW_VOLTA if device_mem_bw is None else device_mem_bw
    nodes: list[NodeId] = []
    links: list[Link] = []
    multi_node = nodes_count > 1
    need_bridge = multi_node or devices_per_node > 1
    for h in range(nodes_count):
        devs = [device(h * devices_per_node + k) for k in range(devices_per_node)]
        nodes.extend(devs)
        if need_bridge:
            hb = host_bridge(h)
            nodes.append(hb)
            for d in devs:
                links.append(Link(d, hb, pcie_bw))
            if multi_node:
                n = nic(h)
                nodes.append(n)
                links.append(Link(hb, n, pcie_bw))
    if multi_node:
        fabric = switch(0)
        nodes.append(fabric)
        for h in range(nodes_count):
            links.append(Link(nic(h), fabric, ib_bw))
    return Topology(nodes, links, mem, name=f"fat_tree_edr_{nodes_count}x{devices_per_node}")


_PRESETS = ("dgx1p", "dgx1v", "dgx2", "fat_tree_edr")


def _preset_key(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    if key not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {', '.join(_PRESETS)}"
        )
    return key


def preset(
    name: str,
    *,
    servers: int = 1,
    nodes: int = 1,
    devices_per_node: int = 1,
    nvlink_bw: float | None = None,
    pcie_bw: float = PCIE_BW,
    cpu_interconnect_bw: float = CPU_INTERCONNECT_BW,
    ib_bw: float = IB_EDR_BW,
    device_mem_bw: float | None = None,
) -> Topology:
    """Build a named machine preset.

    ``servers`` applies to the dgx1 generations, ``nodes``/``devices_per_node``
    to ``fat_tree_edr``.  Bandwidth arguments override the per-direction
    defaults; ``None`` keeps the generation default.
    """
    key = _preset_key(name)
    if key == "dgx1p":
        return _dgx1("p", servers, nvlink_bw, pcie_bw, cpu_interconnect_bw, ib_bw, device_mem_bw)
    if key == "dgx1v":
        return _dgx1("v", servers, nvlink_bw, pcie_bw, cpu_interconnect_bw, ib_bw, device_mem_bw)
    if key == "dgx2":
        if servers != 1:
            raise ConfigurationError("dgx2 preset is a single box; servers must be 1")
        return _dgx2(nvlink_bw, device_mem_bw)
    return _fat_tree_edr(nodes, devices_per_node, pcie_bw, ib_bw, device_mem_bw)


# Preset spec key -> (preset() keyword, GB/s scale, or None for an integer count).
_PRESET_KEYS = {
    "servers": ("servers", None),
    "nodes": ("nodes", None),
    "devices_per_node": ("devices_per_node", None),
    "nvlink_gbps": ("nvlink_bw", 1e9),
    "pcie_gbps": ("pcie_bw", 1e9),
    "cpu_interconnect_gbps": ("cpu_interconnect_bw", 1e9),
    "ib_gbps": ("ib_bw", 1e9),
    "device_mem_bw_gbps": ("device_mem_bw", 1e9),
}
_INLINE_KEYS = ("nodes", "links", "device_mem_bw_gbps", "routes", "name")
# Inline list -> its entries' keys -> True for an integer, False for a number,
# None for a node name (checked by parse_node) or a route's link indices.
_INLINE_ENTRIES = {"links": {"a": None, "b": None, "gbps_per_dir": False, "lanes": True},
                   "routes": {"src": True, "dst": True, "links": None}}
# Most devices a preset spec may imply; a spec is checked against it before
# anything is built.  512 devices (dgx1v with 64 servers) build in about 1 s.
MAX_PRESET_DEVICES = 512


def check_spec(doc: Mapping) -> None:
    """Check a topology spec's keys and values without building it.

    A bad key or value raises :class:`ScenarioError` whose ``path`` is the
    key; so does a preset with more than ``MAX_PRESET_DEVICES`` devices.
    A bad or repeated inline node name, figure, or link or route entry
    raises :class:`TopologySpecError`, a ScenarioError at its path (such as
    ``nodes[1]`` or ``links[0].lanes``) that is also a TopologyError.  An
    unknown preset name raises :class:`ConfigurationError`.
    """
    if "preset" not in doc:
        unknown = sorted(set(doc) - set(_INLINE_KEYS))
        if unknown:
            raise ScenarioError(f"unknown key {unknown[0]!r}", unknown[0])
        if not isinstance(doc.get("name", ""), str):
            raise ScenarioError(f"expected a name, got {type(doc['name']).__name__}", "name")
        _check_inline(doc)
        return
    if not isinstance(doc["preset"], str):
        raise ScenarioError(f"expected a preset name, got {type(doc['preset']).__name__}",
                            "preset")
    preset_key = _preset_key(doc["preset"])
    for key in sorted(set(doc) - {"preset"}):
        if key not in _PRESET_KEYS:
            raise ScenarioError(f"unknown key {key!r}", key)
        _check_number(doc[key], _PRESET_KEYS[key][1] is None, key, ScenarioError)
    if preset_key in ("dgx1p", "dgx1v") and doc.get("servers", 1) > MAX_PRESET_DEVICES // 8:
        raise ScenarioError(f"servers must be <= {MAX_PRESET_DEVICES // 8} "
                            f"(8 devices each, {MAX_PRESET_DEVICES} at most)", "servers")
    if preset_key == "fat_tree_edr":
        nodes, per_node = doc.get("nodes", 1), doc.get("devices_per_node", 1)
        if min(nodes, per_node) >= 1 and nodes * per_node > MAX_PRESET_DEVICES:
            raise ScenarioError(f"nodes x devices_per_node must be <= {MAX_PRESET_DEVICES}",
                                "devices_per_node" if per_node > MAX_PRESET_DEVICES else "nodes")


def _check_number(value, integer: bool, path: str, error: type[ScenarioError]) -> None:
    """Raise ``error`` at ``path`` unless ``value`` is an int (a float too, unless
    ``integer``) that a double can hold."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise error(f"expected {kind}, got {type(value).__name__}", path)
    # NaN, infinities and ints a double cannot hold, as a scenario file rejects them
    if not abs(value) <= sys.float_info.max:
        raise error("expected a finite number", path)


def _check_inline(doc: Mapping) -> None:
    """Check an inline graph's node names (each parses and names a node once),
    its memory bandwidth and the keys and values of its link and route
    entries (each key present but ``lanes``, which is at least 1)."""
    nodes = doc.get("nodes", [])
    if not isinstance(nodes, (list, tuple)):
        raise TopologySpecError("expected a list", "nodes")
    first: dict[NodeId, int] = {}
    for i, name in enumerate(nodes):
        try:
            node = parse_node(name)
        except TopologyError as exc:
            raise TopologySpecError(str(exc), f"nodes[{i}]") from None
        if node in first:
            raise TopologySpecError(f"{node} repeats nodes[{first[node]}]", f"nodes[{i}]")
        first[node] = i
    if "device_mem_bw_gbps" in doc:
        _check_number(doc["device_mem_bw_gbps"], False, "device_mem_bw_gbps", TopologySpecError)
    for key, fields in _INLINE_ENTRIES.items():
        entries = doc.get(key, [])
        if not isinstance(entries, (list, tuple)):
            raise TopologySpecError("expected a list", key)
        for i, entry in enumerate(entries):
            at = f"{key}[{i}]"
            if not isinstance(entry, Mapping):
                raise TopologySpecError("expected an object", at)
            for name in fields:
                if name not in entry and name != "lanes":  # lanes defaults to 1
                    raise TopologySpecError("missing key", f"{at}.{name}")
            for name, value in entry.items():
                if name not in fields:
                    raise TopologySpecError(f"unknown key {name!r}", f"{at}.{name}")
                if fields[name] is not None:
                    _check_number(value, fields[name], f"{at}.{name}", TopologySpecError)
                    if name == "lanes" and value < 1:
                        raise TopologySpecError("lanes must be >= 1", f"{at}.lanes")
                elif key == "routes":  # indices into the links list
                    if not isinstance(value, (list, tuple)):
                        raise TopologySpecError("expected a list", f"{at}.links")
                    for j, li in enumerate(value):
                        _check_number(li, True, f"{at}.links[{j}]", TopologySpecError)
                        if not 0 <= li < len(doc.get("links", ())):
                            raise TopologySpecError(f"no link {li}", f"{at}.links[{j}]")


def from_spec(doc: Mapping) -> Topology:
    """Build a topology from its scenario-document form.

    Either ``{"preset": name, ...params}`` or an inline graph::

        {"nodes": ["device:0", ...],
         "links": [{"a": "device:0", "b": "switch:0", "gbps_per_dir": 25, "lanes": 6}, ...],
         "device_mem_bw_gbps": 800,
         "routes": [{"src": 0, "dst": 1, "links": [0, 2]}, ...]}   # optional

    Inline bandwidth figures are given in GB/s per direction.  When
    ``routes`` is omitted they are derived by shortest-hop search.  The spec
    is checked by :func:`check_spec` first.
    """
    check_spec(doc)
    if "preset" in doc:
        kwargs = {}
        for key, (keyword, scale) in _PRESET_KEYS.items():
            if key in doc:
                kwargs[keyword] = doc[key] if scale is None else float(doc[key]) * scale
        return preset(doc["preset"], **kwargs)

    routes = None
    try:
        node_ids = [parse_node(s) for s in doc["nodes"]]
        links = [
            Link(
                parse_node(ld["a"]),
                parse_node(ld["b"]),
                float(ld["gbps_per_dir"]) * 1e9,
                ld.get("lanes", 1),
            )
            for ld in doc["links"]
        ]
        mem = float(doc.get("device_mem_bw_gbps", 800.0)) * 1e9
        if "routes" in doc:
            routes = {}
            for rd in doc["routes"]:
                src, dst = rd["src"], rd["dst"]
                hops: list[Hop] = []
                cur = device(src)
                for li in rd["links"]:
                    ln = links[li]
                    if ln.a == cur:
                        hops.append((li, True))
                        cur = ln.b
                    elif ln.b == cur:
                        hops.append((li, False))
                        cur = ln.a
                    else:
                        raise TopologyError(f"route {src}->{dst} is not a connected walk")
                routes[(src, dst)] = tuple(hops)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise TopologyError(f"malformed inline topology: {exc}") from exc
    return Topology(node_ids, links, mem, routes=routes, name=str(doc.get("name", "inline")))
