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
reversal, so ``route_nodes(i, j)`` and ``route_nodes(j, i)`` always mirror
each other.  One breadth-first search per source device yields its routes
to every higher-numbered device, each compiled once as a ``Route``.  Given
routes list each pair's link indices, and one walk compiles each.

A topology also owns every resource a simulation reads, by fixed id: link
direction ``2 * link + forward``, then one memory engine per node in the
node order (each device's, then each host bridge's), so the engine of
node ``k`` is ``2 * len(links) + k``.  Their names, and each device's legs
to and from its nearest host bridge, are made the first time a run asks.

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
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Iterable, Mapping, Sequence

from .errors import (ConfigurationError, ScenarioError, TopologyError, TopologySpecError,
                     check_keys, get, number, objects)

# Default per-direction capacities, bytes/s.  Overridable per preset call.
NVLINK_LANE_PASCAL = 20e9
NVLINK_LANE_VOLTA = 25e9
PCIE_BW = 12e9
CPU_INTERCONNECT_BW = 8e9
IB_EDR_BW = 12e9
DEVICE_MEM_BW_PASCAL = 720e9
DEVICE_MEM_BW_VOLTA = 800e9


def slot_init(cls=None, /, *, check=None):
    """Give a ``@dataclass(frozen=True, slots=True)`` class an ``__init__``
    that stores each field through its slot descriptor, in place of the one
    ``object.__setattr__`` call per field that a frozen dataclass makes.

    The new ``__init__`` keeps the dataclass one's signature: positional and
    keyword arguments, defaults, annotations and the ``TypeError`` for a
    missing or extra argument.  ``check``, if given, takes the arguments in
    field order and returns the values to store, or raises.  Setting or
    deleting any attribute raises ``FrozenInstanceError``, as on a frozen class
    without slots (the slotted class's own methods raise ``TypeError`` for a
    name that is not a field).
    """
    if cls is None:
        return lambda cls: slot_init(cls, check=check)
    made, own = cls.__init__, fields(cls)
    if any(not f.init or f.kw_only or f.default_factory is not MISSING for f in own):
        raise TypeError(f"{cls.__name__}: slot_init takes plain positional fields only")
    names = [f.name for f in own]
    args = ", ".join(names)
    body = [f"    {args}, = _check({args})"] if check else []
    body += [f"    _set_{name}(self, {name})" for name in names]
    scope = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    scope["_check"] = check
    exec(f"def __init__(self, {args}):\n" + "\n".join(body), scope)
    init = scope["__init__"]
    init.__defaults__, init.__annotations__ = made.__defaults__, made.__annotations__
    init.__qualname__ = made.__qualname__
    cls.__init__ = init

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


class NodeKind(enum.Enum):
    DEVICE = "device"
    HOST_BRIDGE = "hostbridge"
    SWITCH = "switch"
    NIC = "nic"

    # each member is a singleton, so identity is equality: hashing needs no
    # Python-level Enum.__hash__ (the hash of the member's name)
    __hash__ = object.__hash__


_KIND_ORDER = {
    NodeKind.DEVICE: 0,
    NodeKind.HOST_BRIDGE: 1,
    NodeKind.SWITCH: 2,
    NodeKind.NIC: 3,
}


@slot_init
@dataclass(frozen=True, slots=True)
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
    """Parse ``"device:0"`` style node names used in scenario documents.

    Only a node's own name parses: ``"device:01"``, ``"device: 1"`` and
    ``"device:1_0"`` are refused, since each would name a node it is not.
    """
    if not isinstance(text, str):
        raise TopologyError(f"node name must be a string, got {type(text).__name__}")
    kind_text, _, index_text = text.partition(":")
    try:
        node = NodeId(NodeKind(kind_text), int(index_text))
    except ValueError:
        node = None
    if node is None or str(node) != text:
        raise TopologyError(f"malformed node name {text!r}")
    if node.index < 0:
        raise TopologyError(f"negative node index in {text!r}")
    return node


def _link_fields(a: NodeId, b: NodeId, bw_per_dir: float, lane_count: int) -> tuple:
    """A ``Link``'s fields as it stores them: distinct endpoints, a finite
    positive float capacity and an int lane count >= 1."""
    if a == b:
        raise TopologyError(f"link endpoints must differ, got {a}")
    # presets build most links from one lane at a finite positive float: no call
    if not (type(bw_per_dir) is float and 0.0 < bw_per_dir < math.inf
            and type(lane_count) is int and lane_count == 1):
        bw_per_dir = number(bw_per_dir, "bw_per_dir", low=0, low_open=True, error=TopologyError)
        lane_count = number(lane_count, "lane_count", integer=True, low=1, error=TopologyError)
    return a, b, bw_per_dir, lane_count


@slot_init(check=_link_fields)
@dataclass(frozen=True, slots=True)
class Link:
    """Undirected edge with equal capacity in both directions.

    ``lane_count`` aggregates parallel physical links; the effective
    per-direction capacity is ``bw_per_dir * lane_count``.
    """

    a: NodeId
    b: NodeId
    bw_per_dir: float
    lane_count: int = 1

    @property
    def capacity(self) -> float:
        return self.bw_per_dir * self.lane_count


# A compiled route: the ids ``2 * link + forward`` of the link directions it
# crosses, forward meaning a -> b (its reverse lists them reversed, each
# ``^ 1``), whether it enters a NIC, and its bottleneck capacity (inf for an
# empty route).
Route = tuple[tuple[int, ...], bool, float]
_NO_HOPS: Route = ((), False, math.inf)
# Route fields by node, then each path's reverse, the ids of the way back to the source
# (None where the search starts from a node that is not a device)
_Tree = tuple[list[tuple[int, ...] | None], list[bool], list[float], list[tuple[int, ...] | None]]


class RankMap:
    """Mapping from simulation rank to device index.

    More than one rank may share a device (their traffic then shares that
    device's links and its memory engine).
    """

    def __init__(self, devices: Sequence[int]):
        devs = tuple([number(d, f"devices[{i}]", integer=True, low=0, error=ConfigurationError)
                      for i, d in enumerate(devices)])
        if not devs:
            raise ConfigurationError("rank map must place at least one rank")
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
    """Immutable interconnect graph with one fixed route per device pair.

    ``routes``, if given, maps ordered device pairs to the indices of the
    links each route crosses, in order; a pair given one way only gets the
    reversal the other way.  Without it every route is derived.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        links: Sequence[Link],
        device_mem_bw: float,
        routes: Mapping[tuple[int, int], Sequence[int]] | None = None,
        name: str = "",
    ):
        self.name = name
        self.nodes = frozenset(nodes)
        self.links = tuple(links)
        self.device_mem_bw = number(device_mem_bw, "device_mem_bw", low=0, low_open=True,
                                    error=TopologyError)

        if not self.nodes:
            raise TopologyError("topology needs at least one node")

        # nodes numbered in sort-key order (devices first, by index, then host
        # bridges); each node's neighbours as (neighbour, link-direction id),
        # sorted, which orders them by (neighbour, link index), so a breadth-
        # first search discovers nodes in lexicographic path order, which
        # makes the chosen shortest path deterministic
        self._node_list = sorted(self.nodes, key=NodeId.sort_key)
        self._node_ids = ids = {n: k for k, n in enumerate(self._node_list)}
        adj: list[list[tuple[int, int]]] = [[] for _ in self._node_list]
        # by resource id: its capacity (the link directions, then the device
        # engines); by link direction: whether its head is a NIC
        self._capacity: list[float] = []
        self._enters_nic: list[bool] = []
        for li, ln in enumerate(self.links):
            a, b = ids.get(ln.a), ids.get(ln.b)
            if a is None or b is None:
                raise TopologyError(f"link {ln.a}--{ln.b} references a node not in the topology")
            adj[a].append((b, 2 * li + 1))
            adj[b].append((a, 2 * li))
            self._capacity += (ln.capacity,) * 2
            self._enters_nic += (ln.a.kind is NodeKind.NIC, ln.b.kind is NodeKind.NIC)
        self._adj = [sorted(row) for row in adj]

        self._devices = tuple(n.index for n in self._node_list if n.kind is NodeKind.DEVICE)
        if not self._devices:
            raise TopologyError("topology needs at least one device node")
        self._device_nodes = {d: k for k, d in enumerate(self._devices)}  # device -> node number
        self._capacity += [self.device_mem_bw] * len(self._devices)
        self._trees: dict[int, _Tree] = {}
        self._bridge_ids = [k for k, n in enumerate(self._node_list)
                            if n.kind is NodeKind.HOST_BRIDGE]
        # device -> (nearest bridge, path up to it) as the device's route
        # search found it, or None where it reaches no bridge
        self._up: dict[int, tuple[int, Route] | None] = {}
        # made on first use: device -> what _bridge_legs returns, and _names
        self._legs: dict[int, tuple[int, Route, Route]] = {}
        self._name_table: list[str] | None = None
        self._revisits = False  # whether a given route lists a link direction twice

        if routes is None:
            self._routes = self._derive_routes()
        else:
            self._routes = self._check_routes(routes)

    # ------------------------------------------------------------------
    # construction helpers

    def _paths_from(self, src: int) -> _Tree:
        """Shortest-hop path from node ``src`` to every node, compiled, as
        three lists of ``Route`` fields by node (ids None where unreachable),
        and a fourth of each path's reverse (its ids reversed, each ``^ 1``),
        made only by a search from a device: the route derivation reads
        them, and a host-staged run's bridge searches need none.

        One breadth-first search over the sorted adjacency: each path is the
        lexicographically smallest shortest one, lowest link index first.
        A search for one target that stops after the level where the target
        appears assigns the same parents, so every path equals its own.
        """
        cap, enters_nic, adj = self._capacity, self._enters_nic, self._adj
        n = len(adj)
        reverse = src < len(self._devices)  # devices sort first
        paths: list[tuple[int, ...] | None] = [None] * n
        backs, nics, lows = [None] * n, [False] * n, [math.inf] * n
        paths[src] = backs[src] = ()
        queue = [src]
        for u in queue:
            to_u, from_u, nic, low = paths[u], backs[u], nics[u], lows[u]
            for v, d in adj[u]:
                if paths[v] is None:
                    paths[v] = to_u + (d,)
                    if reverse:
                        backs[v] = (d ^ 1,) + from_u
                    nics[v] = nic or enters_nic[d]
                    lows[v] = cap[d] if cap[d] < low else low
                    queue.append(v)
        return paths, nics, lows, backs

    def _tree(self, k: int) -> _Tree:
        """``_paths_from`` of node ``k``, searched once per source and kept."""
        tree = self._trees.get(k)
        if tree is None:
            tree = self._trees[k] = self._paths_from(k)
        return tree

    def _nearest_bridge(self, tree: _Tree) -> tuple[int, Route] | None:
        """The host bridge fewest hops away in a search tree (lowest index on
        ties) and the path to it, or None if the tree reaches none."""
        paths, nics, lows, _ = tree
        _, k = min(((len(paths[b]), b) for b in self._bridge_ids if paths[b] is not None),
                   default=(0, None))
        return None if k is None else (k, (paths[k], nics[k], lows[k]))

    def _derive_routes(self) -> dict[tuple[int, int], Route]:
        """Routes from each device's search tree to the higher-numbered devices.

        Device ``devs[k]`` is node ``k``, since devices sort first.  Each
        tree is dropped once its device's path up to a bridge is recorded.
        A reverse route is the tree's path back, and shares the NIC flag
        (only its device ends differ) and the bottleneck (links carry one
        capacity both ways).
        """
        routes: dict[tuple[int, int], Route] = {}
        devs = self._devices
        for ai, i in enumerate(devs[:-1]):
            tree = paths, nics, lows, backs = self._paths_from(ai)
            self._up[i] = self._nearest_bridge(tree)
            for bi in range(ai + 1, len(devs)):
                j, ids = devs[bi], paths[bi]
                if ids is None:
                    raise TopologyError(f"no path between device:{i} and device:{j}")
                nic, low = nics[bi], lows[bi]
                routes[(i, j)] = (ids, nic, low)
                routes[(j, i)] = (backs[bi], nic, low)
        for i in devs:
            routes[(i, i)] = _NO_HOPS
        return routes

    def _check_routes(self, given) -> dict[tuple[int, int], Route]:
        """Each given route compiled by one walk over its link indices, each
        link crossed in the direction that leaves the node the walk is at."""
        devs = self._devices
        for ai, i in enumerate(devs):
            for j in devs[ai + 1 :]:
                if (i, j) not in given and (j, i) not in given:
                    raise TopologyError(f"route missing for device pair ({i}, {j})")
        routes = {(i, i): _NO_HOPS for i in devs}
        for (i, j), links in given.items():
            src = cur = device(i)
            dst, ids = device(j), []
            if any(number(d, f"route {src}->{dst}", integer=True, error=TopologyError)
                   not in self._device_nodes for d in (i, j)):
                raise TopologyError(f"route {src}->{dst} names a device not in the topology")
            if i == j and links:
                raise TopologyError(f"route {src}->{dst} must list no links")
            for li in links:
                li = number(li, f"route {src}->{dst}", integer=True, error=TopologyError)
                if not 0 <= li < len(self.links):
                    raise TopologyError(f"route {src}->{dst} references unknown link {li}")
                ln = self.links[li]
                forward = ln.a == cur
                if not forward and ln.b != cur:
                    raise TopologyError(f"route {src}->{dst} is not a connected walk at {cur}")
                ids.append(2 * li + forward)
                cur = ln.b if forward else ln.a
            if cur != dst:
                raise TopologyError(f"route {src}->{dst} ends at {cur}")
            self._revisits = self._revisits or len(set(ids)) < len(ids)
            routes[(i, j)] = (tuple(ids), any([self._enters_nic[d] for d in ids]),
                              min([self._capacity[d] for d in ids], default=math.inf))
        for (i, j), (ids, nic, low) in list(routes.items()):
            routes.setdefault((j, i), (tuple([d ^ 1 for d in reversed(ids)]), nic, low))
        return routes

    # ------------------------------------------------------------------
    # queries

    @property
    def devices(self) -> tuple[int, ...]:
        return self._devices

    @property
    def n_devices(self) -> int:
        return len(self._devices)

    def route_nodes(self, src: int, dst: int) -> tuple[NodeId, ...]:
        """Node sequence visited by the route from ``src`` to ``dst``, endpoints included."""
        try:
            ids = self._routes[(src, dst)][0]
        except KeyError:
            raise TopologyError(f"no route between device:{src} and device:{dst}") from None
        links = self.links
        return (device(src), *[links[d >> 1].b if d & 1 else links[d >> 1].a for d in ids])

    def route_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck per-direction capacity along the route from ``src`` to ``dst``.

        For ``src == dst`` the transfer never leaves the device, so this is
        the device memory bandwidth.
        """
        for d in (src, dst):
            if d not in self._device_nodes:
                raise TopologyError(f"unknown device {d}")
        if src == dst:
            return self.device_mem_bw
        return self._routes[(src, dst)][2]

    # ------------------------------------------------------------------
    # what a simulation reads beyond the routes, made on first use and kept

    def _path(self, a: int, b: int) -> Route:
        """The compiled shortest-hop path from node number ``a`` to ``b``,
        read off ``a``'s search tree."""
        paths, nics, lows, _ = self._tree(a)
        if paths[b] is None:
            raise TopologyError(f"no path between {self._node_list[a]} and {self._node_list[b]}")
        return paths[b], nics[b], lows[b]

    def _bridge_legs(self, dev: int) -> tuple[int, Route, Route]:
        """Device ``dev``'s nearest host bridge (fewest hops, lowest index on
        ties) as a node number, the path up to it as the device's search
        found it, and the path down by the bridge's own search."""
        legs = self._legs.get(dev)
        if legs is None:
            k = self._device_nodes.get(dev)
            if k is None:
                raise TopologyError(f"unknown device {dev}")
            if dev not in self._up:
                self._up[dev] = self._nearest_bridge(self._tree(k))
            up = self._up[dev]
            if up is None:
                raise TopologyError(f"device:{dev} has no host bridge on its topology")
            legs = self._legs[dev] = (*up, self._path(up[0], k))
        return legs

    def _names(self) -> list[str]:
        """Every resource's name by id: ``a->b`` for a link direction (shared
        by parallel links), then ``devmem:device:i`` and ``hostmem:hostbridge:j``
        for the engines, as bridges follow the devices in the node order."""
        if self._name_table is None:
            text = [str(n) for n in self._node_list]
            names = [""] * (2 * len(self.links))
            for u, row in enumerate(self._adj):
                for v, d in row:
                    names[d] = f"{text[u]}->{text[v]}"
            names += [f"devmem:{t}" for t in text[:len(self._devices)]]
            names += [f"hostmem:{text[k]}" for k in self._bridge_ids]
            self._name_table = names
        return self._name_table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Topology)
            and self.nodes == other.nodes
            and self.links == other.links
            and self.device_mem_bw == other.device_mem_bw
            and self._routes == other._routes
        )

    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, devices={self.n_devices}, links={len(self.links)})"


# ----------------------------------------------------------------------
# presets


def _dgx1(
    name: str,
    servers: int,
    lane: float,
    pcie_bw: float,
    cpu_bw: float,
    ib_bw: float,
    mem: float,
) -> Topology:
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
    return Topology(nodes, links, mem, name=name + (f"x{servers}" if servers > 1 else ""))


def _dgx2(lane: float, mem: float) -> Topology:
    nodes = [device(i) for i in range(16)] + [switch(0)]
    links = [Link(device(i), switch(0), lane, lane_count=6) for i in range(16)]
    return Topology(nodes, links, mem, name="dgx2")


def _fat_tree_edr(
    nodes_count: int,
    devices_per_node: int,
    pcie_bw: float,
    ib_bw: float,
    mem: float,
) -> Topology:
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
    to ``fat_tree_edr``; each count is an integer >= 1.  Bandwidth arguments
    override the per-direction defaults; each is a finite number > 0, or
    ``None`` for ``nvlink_bw`` and ``device_mem_bw`` to keep the generation
    default.  A bad value raises :class:`TopologyError` at the argument's name.
    """
    key = _preset_key(name)
    servers, nodes, devices_per_node = [
        number(value, path, integer=True, low=1, error=ConfigurationError)
        for value, path in ((servers, "servers"), (nodes, "nodes"),
                            (devices_per_node, "devices_per_node"))]
    pascal = key == "dgx1p"
    if nvlink_bw is None:
        nvlink_bw = NVLINK_LANE_PASCAL if pascal else NVLINK_LANE_VOLTA
    if device_mem_bw is None:
        device_mem_bw = DEVICE_MEM_BW_PASCAL if pascal else DEVICE_MEM_BW_VOLTA
    # every bandwidth is checked, whether or not the machine has a link it sets
    lane, pcie_bw, cpu_bw, ib_bw, mem = [
        number(value, path, low=0, low_open=True, error=TopologyError)
        for value, path in ((nvlink_bw, "nvlink_bw"), (pcie_bw, "pcie_bw"),
                            (cpu_interconnect_bw, "cpu_interconnect_bw"), (ib_bw, "ib_bw"),
                            (device_mem_bw, "device_mem_bw"))]
    if key == "dgx2":
        if servers != 1:
            raise ConfigurationError("dgx2 preset is a single box; servers must be 1")
        return _dgx2(lane, mem)
    if key == "fat_tree_edr":
        return _fat_tree_edr(nodes, devices_per_node, pcie_bw, ib_bw, mem)
    return _dgx1(key, servers, lane, pcie_bw, cpu_bw, ib_bw, mem)


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
# Most devices a preset spec may imply; a spec is checked against it before
# anything is built.  512 devices (dgx1v with 64 servers) build in about 0.8 s.
MAX_PRESET_DEVICES = 512


def check_spec(doc: Mapping) -> None:
    """Check a topology spec's keys and values without building it.

    A bad key or value raises :class:`ScenarioError` at its path, and so does
    a preset of more than ``MAX_PRESET_DEVICES`` devices; an unknown preset
    name raises :class:`ConfigurationError`.  An inline spec is read by the
    checks of ``errors``.  Each fault that would stop its graph being built
    raises :class:`TopologySpecError`, also a TopologyError, at its path: a
    missing key (``links[0].gbps_per_dir``), a bad or repeated node name, a
    link endpoint not in ``nodes`` or equal to the other (``links[0].b``), a
    bandwidth that is not positive, and a route of a device not in ``nodes``
    (``routes[0].src``), across a link not in ``links``, repeating a pair
    (``routes[1]``) or from a device to itself across links.  A given route
    is walked: one that is not a connected walk, or ends at another node, is
    refused at ``routes[0].links``, and a device pair with no route either
    way at ``routes``.  A preset's counts must be >= 1 and its bandwidths
    positive; every GB/s figure must also be finite once scaled to bytes/s.
    """
    if "preset" not in doc:
        _check_inline(doc)
        return
    if not isinstance(doc["preset"], str):
        raise ScenarioError(f"expected a preset name, got {type(doc['preset']).__name__}",
                            "preset")
    preset_key = _preset_key(doc["preset"])
    check_keys(doc, ("preset", *_PRESET_KEYS), "")
    for key in sorted(set(doc) - {"preset"}):
        if _PRESET_KEYS[key][1] is None:
            number(doc[key], key, integer=True, low=1)
        else:
            _check_scaled(number(doc[key], key, low=0, low_open=True), key, ScenarioError)
    if preset_key == "dgx2" and doc.get("servers", 1) != 1:
        raise ScenarioError("dgx2 preset is a single box; servers must be 1", "servers")
    if preset_key in ("dgx1p", "dgx1v") and doc.get("servers", 1) > MAX_PRESET_DEVICES // 8:
        raise ScenarioError(f"servers must be <= {MAX_PRESET_DEVICES // 8} "
                            f"(8 devices each, {MAX_PRESET_DEVICES} at most)", "servers")
    if preset_key == "fat_tree_edr":
        nodes, per_node = doc.get("nodes", 1), doc.get("devices_per_node", 1)
        if nodes * per_node > MAX_PRESET_DEVICES:
            raise ScenarioError(f"nodes x devices_per_node must be <= {MAX_PRESET_DEVICES}",
                                "devices_per_node" if per_node > MAX_PRESET_DEVICES else "nodes")


def _check_scaled(gbps: float, path: str, error: type[ScenarioError]) -> None:
    """Refuse a checked GB/s figure at ``path`` if it overflows once
    ``from_spec`` scales it to bytes/s."""
    if gbps * 1e9 == math.inf:
        raise error(f"{path.rpartition('.')[2]} of {gbps!r} GB/s overflows in bytes/s", path)


def _node_at(name: object, path: str, known: Mapping | None = None) -> NodeId:
    """The node ``name`` names, one of ``known`` if given, or a fault at ``path``."""
    try:
        node = parse_node(name)
    except TopologyError as exc:
        raise TopologySpecError(str(exc), path) from None
    if known is not None and node not in known:
        raise TopologySpecError(f"{node} is not in nodes", path)
    return node


def _check_inline(doc: Mapping) -> None:
    """The inline half of :func:`check_spec`, which lists its faults."""
    fault = TopologySpecError
    check_keys(doc, ("nodes", "links", "device_mem_bw_gbps", "routes", "name"), "", error=fault)
    get(doc, "name", str, "", "", error=fault)
    first: dict[NodeId, int] = {}
    for i, name in enumerate(get(doc, "nodes", list, "", error=fault)):
        node = _node_at(name, f"nodes[{i}]")
        if node in first:
            raise fault(f"{node} repeats nodes[{first[node]}]", f"nodes[{i}]")
        first[node] = i
    mem = get(doc, "device_mem_bw_gbps", float, "", None, error=fault, low=0, low_open=True)
    if mem is not None:
        _check_scaled(mem, "device_mem_bw_gbps", fault)
    link_ends: list[tuple[NodeId, NodeId]] = []  # by link index
    for entry, at in objects(doc, "links", ("a", "b", "gbps_per_dir", "lanes"), "", error=fault):
        a = _node_at(get(entry, "a", object, at, error=fault), f"{at}.a", first)
        b = _node_at(get(entry, "b", object, at, error=fault), f"{at}.b", first)
        if b == a:
            raise fault(f"link endpoints must differ, got {a}", f"{at}.b")
        _check_scaled(get(entry, "gbps_per_dir", float, at, error=fault, low=0, low_open=True),
                     f"{at}.gbps_per_dir", fault)
        get(entry, "lanes", int, at, 1, error=fault, low=1)
        link_ends.append((a, b))
    pairs: dict[tuple[NodeId, NodeId], int] = {}
    routes = objects(doc, "routes", ("src", "dst", "links"), "", error=fault)
    for i, (entry, at) in enumerate(routes if "routes" in doc else ()):
        src, dst = ends = [device(get(entry, end, int, at, error=fault)) for end in ("src", "dst")]
        for end, node in zip(("src", "dst"), ends):
            if node not in first:
                raise fault(f"{node} is not in nodes", f"{at}.{end}")
        if (src, dst) in pairs:
            raise fault(f"route {src}->{dst} repeats routes[{pairs[src, dst]}]", at)
        pairs[src, dst] = i
        hops = get(entry, "links", list, at, error=fault)
        if src == dst and hops:
            raise fault("a route from a device to itself lists no links", f"{at}.links")
        cur = src  # the node the walk is at, as Topology walks a given route
        for j, li in enumerate(hops):
            number(li, f"{at}.links[{j}]", integer=True, error=fault)
            if not 0 <= li < len(link_ends):
                raise fault(f"no link {li}", f"{at}.links[{j}]")
            a, b = link_ends[li]
            if cur != a and cur != b:
                raise fault(f"route {src}->{dst} is not a connected walk at {cur}", f"{at}.links")
            cur = b if cur == a else a
        if cur != dst:
            raise fault(f"route {src}->{dst} ends at {cur}", f"{at}.links")
    devs = sorted(n.index for n in first if n.kind is NodeKind.DEVICE)
    for ai, i in enumerate(devs if "routes" in doc else ()):
        for j in devs[ai + 1 :]:
            if (device(i), device(j)) not in pairs and (device(j), device(i)) not in pairs:
                raise fault(f"route missing for device pair ({i}, {j})", "routes")


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

    node_ids = [parse_node(s) for s in doc["nodes"]]
    links = [
        Link(parse_node(ld["a"]), parse_node(ld["b"]), float(ld["gbps_per_dir"]) * 1e9,
             ld.get("lanes", 1))
        for ld in doc["links"]
    ]
    mem = float(doc.get("device_mem_bw_gbps", 800.0)) * 1e9
    routes = ({(rd["src"], rd["dst"]): rd["links"] for rd in doc["routes"]}
              if "routes" in doc else None)
    return Topology(node_ids, links, mem, routes=routes, name=str(doc.get("name", "inline")))
