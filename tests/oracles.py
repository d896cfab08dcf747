"""Reference implementations: grids, ghosts, arena rows, row blocks, routes and the simulator.

These are the implementations the faster versions in ``haloflow`` replaced,
kept word for word in their arithmetic and tie-breaks so the tests can
require ``==`` between the two.  The route searches take a topology's
``nodes`` and ``links``, so they also run on graphs ``Topology`` refuses.
They sort every row (the ring and the quad mesh), are quadratic (the random
grid), look up each neighbour of each owned element in turn (the arena
rows), cut each side's row blocks in a pass of their own (the plan), search
once per node pair (the routes) and re-evaluate every rate and utilisation
sum on every step (the simulator), so use them only on small inputs.
``gather_global`` is no reference: it reads a run's owned values back in
global element order.  ``route_hops``, ``route_links``, ``path_hops`` and
``bridge_path`` are no references either: they read a topology's compiled
records back as hops ``(link index, forward?)``, the form the reference
searches return.
"""

from __future__ import annotations

import math
import random

import numpy as np

from haloflow.halo import GlobalGrid
from haloflow.halo.partition import DegreeGroup
from haloflow.errors import TopologyError
from haloflow.netsim import FlowInterval, SimResult, Staging
from haloflow.topology import NodeId, NodeKind, device


def _sorted_rows(rows: np.ndarray) -> GlobalGrid:
    """Grid whose element ``i`` has the neighbours ``rows[i]``, sorted here."""
    n, degree = rows.shape
    return GlobalGrid(np.arange(0, n * degree + 1, degree, dtype=np.int64),
                      np.sort(rows, axis=1).ravel())


def reference_ring(n: int) -> GlobalGrid:
    """``ring`` from its cyclic adjacents, each row sorted; ``n`` must be valid."""
    i = np.arange(n, dtype=np.int64)
    cols = [(i - 1) % n]
    if n > 2:  # with two elements both cyclic adjacents are the same element
        cols.append((i + 1) % n)
    return _sorted_rows(np.stack(cols, axis=1))


def reference_quad_mesh(nx: int, ny: int) -> GlobalGrid:
    """``quad_mesh`` as four ``%``-based columns, stacked and sorted; arguments must be valid."""
    idx = np.arange(nx * ny, dtype=np.int64)
    x, y = idx % nx, idx // nx
    cols = [((x - 1) % nx) + y * nx]
    if nx > 2:
        cols.append(((x + 1) % nx) + y * nx)
    cols.append(x + ((y - 1) % ny) * nx)
    if ny > 2:
        cols.append(x + ((y + 1) % ny) * nx)
    return _sorted_rows(np.stack(cols, axis=1))


def reference_blocks(groups: tuple[DegreeGroup, ...], mask: np.ndarray) -> tuple[DegreeGroup, ...]:
    """The rows of each group that ``mask`` selects, one new non-empty block per group."""
    blocks = []
    for grp in groups:
        rows = np.flatnonzero(mask[grp.members])
        if len(rows):
            blocks.append(DegreeGroup(members=grp.members[rows],
                                      columns=grp.columns.take(rows, axis=1)))
    return tuple(blocks)


def reference_arena_rows(grid: GlobalGrid, owned, ghosts) -> dict[int, tuple[list, list]]:
    """Every rank's stencil rows in arena positions, by a loop over each rank's elements.

    The arena holds every rank's owned elements, rank after rank in the
    order of ``owned``, then every rank's ghosts, rank after rank in the
    order of ``ghosts`` (``(global, owner)`` pairs).  A neighbour is seen
    from its row's rank: its owned position if that rank owns it, else that
    rank's ghost slot for it.  Returns ``{degree: (members, columns)}`` in
    ascending degree, ``members`` the owned positions of that degree
    ascending and ``columns[k][i]`` the position of the k-th neighbour of
    ``members[i]``.
    """
    owned = [[int(g) for g in elems] for elems in owned]
    position = {g: p for p, g in enumerate(g for elems in owned for g in elems)}
    slot = {}
    for r, pairs in enumerate(ghosts):
        for g, _owner in pairs:
            slot[r, int(g)] = len(position) + len(slot)
    ptr, nb = grid.indptr.tolist(), grid.indices.tolist()
    rows: dict[int, tuple[list, list]] = {}
    for r, elems in enumerate(owned):
        mine = set(elems)
        for g in elems:
            cols = [position[j] if j in mine else slot[r, j] for j in nb[ptr[g]:ptr[g + 1]]]
            members, table = rows.setdefault(len(cols), ([], []))
            members.append(position[g])
            table.append(cols)
    return {d: (members, [list(col) for col in zip(*table)])
            for d, (members, table) in sorted(rows.items())}


def reference_ghosts(grid: GlobalGrid, owner, rank: int) -> list[tuple[int, int]]:
    """``rank``'s ghosts as ``(global, owner)`` pairs, sorted by (owner, global), by a loop.

    A ghost is a neighbour, owned elsewhere, of an element ``rank`` owns.
    """
    owner = [int(o) for o in owner]
    ptr, nb = grid.indptr.tolist(), grid.indices.tolist()
    found = set()
    for i in range(grid.n):
        if owner[i] == rank:
            for j in nb[ptr[i]:ptr[i + 1]]:
                if owner[j] != rank:
                    found.add((j, owner[j]))
    return sorted(found, key=lambda pair: (pair[1], pair[0]))


def gather_global(fields, part) -> np.ndarray:
    """Owned values of all ranks assembled into a new array in global element order."""
    owned = fields.arena[: len(part.owner)]
    return owned.copy() if part.rank_ordered else owned[part.position]


def reference_random_grid(n: int, max_degree: int = 8, seed: int = 0) -> GlobalGrid:
    """``random_grid`` by Python loops over every candidate pair; arguments must be valid."""
    rng = random.Random(seed)
    pos = [(rng.random(), rng.random()) for _ in range(n)]

    def dist2(i: int, j: int) -> float:
        dx = pos[i][0] - pos[j][0]
        dy = pos[i][1] - pos[j][1]
        return dx * dx + dy * dy

    nbrs: list[set[int]] = [set() for _ in range(n)]

    def connect(i: int, j: int) -> None:
        nbrs[i].add(j)
        nbrs[j].add(i)

    # spanning attachment: node i joins its nearest predecessor with room
    for i in range(1, n):
        candidates = [j for j in range(i) if len(nbrs[j]) < max_degree]
        j = min(candidates, key=lambda j: (dist2(i, j), j))
        connect(i, j)

    # densify with the shortest remaining edges, degree-capped
    edges = sorted(
        ((dist2(i, j), i, j) for i in range(n) for j in range(i + 1, n) if j not in nbrs[i]),
        key=lambda t: (t[0], t[1], t[2]),
    )
    budget = 2 * n
    added = 0
    for _d, i, j in edges:
        if added >= budget:
            break
        if len(nbrs[i]) < max_degree and len(nbrs[j]) < max_degree:
            connect(i, j)
            added += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(s) for s in nbrs], out=indptr[1:])
    indices = np.fromiter((j for s in nbrs for j in sorted(s)), dtype=np.int64,
                          count=int(indptr[-1]))
    return GlobalGrid(indptr, indices)


def _hops(ids) -> tuple[tuple[int, bool], ...]:
    """Link-direction ids ``2 * link + forward`` as hops ``(link, forward?)``."""
    return tuple((d >> 1, bool(d & 1)) for d in ids)


def route_hops(topo, src: int, dst: int) -> tuple[tuple[int, bool], ...]:
    """The hops of ``topo``'s compiled route from device ``src`` to ``dst``."""
    try:
        return _hops(topo._routes[(src, dst)][0])
    except KeyError:
        raise TopologyError(f"no route between device:{src} and device:{dst}") from None


def route_links(topo, src: int, dst: int) -> tuple:
    """The links along the route from ``src`` to ``dst`` (empty for src == dst)."""
    return tuple(topo.links[li] for li, _ in route_hops(topo, src, dst))


def path_hops(topo, a: NodeId, b: NodeId) -> tuple[tuple[int, bool], ...]:
    """The hops of ``topo``'s shortest-hop path between two nodes, from ``a``'s kept search."""
    for n in (a, b):
        if n not in topo._node_ids:
            raise TopologyError(f"unknown node {n}")
    return _hops(topo._path(topo._node_ids[a], topo._node_ids[b])[0])


def bridge_path(topo, dev: int) -> tuple[NodeId, tuple[tuple[int, bool], ...]]:
    """Device ``dev``'s nearest host bridge and the hops of its path up to it,
    from ``topo``'s bridge-leg record."""
    k, up, _down = topo._bridge_legs(dev)
    return topo._node_list[k], _hops(up[0])


def adjacency(nodes, links) -> dict[NodeId, list[tuple[NodeId, int, bool]]]:
    """Neighbours of each node sorted by (neighbour sort key, link index)."""
    adj: dict[NodeId, list[tuple[NodeId, int, bool]]] = {n: [] for n in nodes}
    for li, ln in enumerate(links):
        adj[ln.a].append((ln.b, li, True))
        adj[ln.b].append((ln.a, li, False))
    for n in adj:
        adj[n].sort(key=lambda t: (t[0].sort_key(), t[1]))
    return adj


def reference_path(nodes, links, src: NodeId, dst: NodeId, adj=None):
    """Shortest-hop path from ``src`` to ``dst`` by a search that stops at ``dst``'s level.

    Returns the hops ``(link index, forward?)``, or None if ``dst`` is
    unreachable.  ``adj`` is ``adjacency(nodes, links)``, built here if
    not given.
    """
    if src == dst:
        return ()
    adj = adjacency(nodes, links) if adj is None else adj
    parent: dict[NodeId, tuple[NodeId, int, bool] | None] = {src: None}
    frontier = [src]
    while frontier and dst not in parent:
        nxt: list[NodeId] = []
        for u in frontier:
            for v, li, fwd in adj[u]:
                if v not in parent:
                    parent[v] = (u, li, fwd)
                    nxt.append(v)
        frontier = nxt
    if dst not in parent:
        return None
    hops = []
    cur = dst
    while parent[cur] is not None:
        u, li, fwd = parent[cur]
        hops.append((li, fwd))
        cur = u
    hops.reverse()
    return tuple(hops)


def reference_routes(nodes, links) -> dict[tuple[int, int], tuple]:
    """Every device pair's route, searched once per pair from the lower-numbered device.

    Raises the derivation's TopologyError for the first unconnected pair.
    """
    adj = adjacency(nodes, links)
    routes = {}
    devs = sorted(n.index for n in set(nodes) if n.kind is NodeKind.DEVICE)
    for ai, i in enumerate(devs):
        routes[(i, i)] = ()
        for j in devs[ai + 1:]:
            hops = reference_path(nodes, links, device(i), device(j), adj)
            if hops is None:
                raise TopologyError(f"no path between device:{i} and device:{j}")
            routes[(i, j)] = hops
            routes[(j, i)] = tuple((li, not fwd) for li, fwd in reversed(hops))
    return routes


def reference_host_bridge(nodes, links, dev: int, adj=None) -> NodeId | None:
    """Host bridge fewest hops from ``device(dev)``, lowest index on ties, or None."""
    adj = adjacency(nodes, links) if adj is None else adj
    seen = {device(dev)}
    frontier = [device(dev)]
    while frontier:
        found = sorted((n for n in frontier if n.kind is NodeKind.HOST_BRIDGE),
                       key=NodeId.sort_key)
        if found:
            return found[0]
        nxt = []
        for u in frontier:
            for v, _li, _fwd in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return None


# ----------------------------------------------------------------------
# the simulator that re-evaluates everything on every step


class _ReferenceNetwork:
    """Resources interned to ints; routes compiled to legs of resource tuples."""

    def __init__(self, topo, cfg):
        self.topo = topo
        self.cfg = cfg
        self.index: dict[tuple, int] = {}
        self.cap: list[float] = []
        self.name: list[str] = []
        self.count: list[int] = []
        self.used: list[float] = []
        self.peak: list[float] = []
        self.first_use: list[int] = []
        self._bridge_paths: dict[tuple[int, bool], tuple] = {}

    def resource(self, key: tuple, capacity: float) -> int:
        r = self.index.get(key)
        if r is None:
            r = self.index[key] = len(self.cap)
            self.cap.append(capacity)
            self.name.append(_reference_resource_name(self.topo, key))
            self.count.append(0)
            self.used.append(0.0)
            self.peak.append(0.0)
        return r

    def peak_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.first_use:
            name = self.name[r]
            out[name] = max(out.get(name, 0.0), self.peak[r])
        return out

    def legs(self, f, rm) -> list[tuple]:
        src_dev = rm.device_of(f.src_rank)
        dst_dev = rm.device_of(f.dst_rank)
        alpha, fluid = self._route(src_dev, dst_dev)
        legs: list[tuple] = [(alpha, ())] if alpha > 0 else []
        if f.bytes > 0:
            nbytes = float(f.bytes)
            legs.extend((nbytes, res) for res in fluid)
        return legs

    def _route(self, src_dev: int, dst_dev: int) -> tuple[float, tuple]:
        topo, cfg = self.topo, self.cfg
        if src_dev == dst_dev:
            return cfg.alpha_intra, ((self.resource(("devmem", src_dev), topo.device_mem_bw),),)
        if cfg.staging is Staging.DEVICE_DIRECT:
            res, inter_node = self._path(device(src_dev), route_hops(topo, src_dev, dst_dev))
            return (cfg.alpha_inter if inter_node else cfg.alpha_intra), (res,)
        hb_s, up, nic_up = self._bridge_path(src_dev, True)
        hb_d, down, nic_down = self._bridge_path(dst_dev, False)
        inter_node = nic_up or nic_down
        legs = [up, (self.resource(("hostmem", hb_s.index), cfg.host_mem_bw),)]
        if hb_s != hb_d:
            across, nic_across = self._path(hb_s, path_hops(topo, hb_s, hb_d))
            inter_node = inter_node or nic_across
            legs.append(across)
            legs.append((self.resource(("hostmem", hb_d.index), cfg.host_mem_bw),))
        legs.append(down)
        return (cfg.alpha_inter if inter_node else cfg.alpha_intra), tuple(r for r in legs if r)

    def _bridge_path(self, dev: int, up: bool):
        got = self._bridge_paths.get((dev, up))
        if got is None:
            hb = bridge_path(self.topo, dev)[0]
            a, b = (device(dev), hb) if up else (hb, device(dev))
            got = self._bridge_paths[(dev, up)] = (hb, *self._path(a, path_hops(self.topo, a, b)))
        return got

    def _path(self, start: NodeId, hops):
        links = self.topo.links
        res = tuple(self.resource(("link", li, fwd), links[li].capacity) for li, fwd in hops)
        cur, nic = start, False
        for li, fwd in hops:
            cur = links[li].b if fwd else links[li].a
            if cur.kind is NodeKind.NIC:
                nic = True
                break
        return res, nic


def _reference_resource_name(topo, key: tuple) -> str:
    if key[0] == "link":
        ln = topo.links[key[1]]
        a, b = (ln.a, ln.b) if key[2] else (ln.b, ln.a)
        return f"{a}->{b}"
    if key[0] == "devmem":
        return f"devmem:device:{key[1]}"
    return f"hostmem:hostbridge:{key[1]}"


class _ReferenceFlowState:
    def __init__(self, flow_id: int, legs: list[tuple]):
        self.id = flow_id
        self.legs = legs
        self.leg_idx = 0
        self.remaining, self.res = legs[0] if legs else (0.0, ())
        self.rate = 0.0
        self.dt = 0.0
        self.seg_t0 = self.seg_t1 = self.seg_rate = 0.0


def _reference_close_segment(st, net, events, start) -> None:
    t0, t1 = start + st.seg_t0, start + st.seg_t1
    for r in st.res:
        events.append(FlowInterval(t0, t1, st.id, net.name[r], st.seg_rate))
    st.seg_rate = 0.0


def _reference_run_phase(t0, states, net, events, start):
    """One phase; every step re-evaluates every rate, sum and peak."""
    cap, count, used, peak = net.cap, net.count, net.used, net.peak
    done: dict[int, float] = {}
    active = []
    for st in states:
        if st.legs:
            active.append(st)
            for r in st.res:
                count[r] += 1
        else:
            done[st.id] = t0

    t = t0
    while active:
        dt = math.inf
        touched: list[int] = []
        for st in active:
            legres = st.res
            if legres:
                rate = min([cap[r] / count[r] for r in legres])
                st.rate = rate
                st.dt = d = st.remaining / rate
                for r in legres:
                    u = used[r]
                    if u == 0.0:
                        touched.append(r)
                    used[r] = u + rate
            else:
                st.dt = d = st.remaining
            if d < dt:
                dt = d

        for r in touched:
            util = used[r] / cap[r]
            used[r] = 0.0
            if util > peak[r]:
                if peak[r] == 0.0:
                    net.first_use.append(r)
                peak[r] = util

        t_end = t + dt
        trace = events is not None and dt > 0.0
        still = []
        for st in active:
            legres = st.res
            if trace and legres:
                if st.seg_rate == st.rate:
                    st.seg_t1 = t_end
                else:
                    if st.seg_rate:
                        _reference_close_segment(st, net, events, start)
                    st.seg_t0, st.seg_t1, st.seg_rate = t, t_end, st.rate
            if st.dt == dt:
                st.remaining = 0.0
            elif not legres:
                st.remaining -= dt
            else:
                st.remaining -= st.rate * dt
            if st.remaining <= 0.0:
                if legres:
                    if st.seg_rate:
                        _reference_close_segment(st, net, events, start)
                    for r in legres:
                        count[r] -= 1
                st.leg_idx += 1
                if st.leg_idx >= len(st.legs):
                    done[st.id] = t_end
                    continue
                st.remaining, st.res = st.legs[st.leg_idx]
                for r in st.res:
                    count[r] += 1
            still.append(st)
        active = still
        t = t_end
    return t, done


def reference_simulate(topo, rm, flows, cfg, start: float = 0.0) -> SimResult:
    """``simulate`` (``start == 0``) or the communication part of ``simulate_timestep``.

    ``rm`` is a ``RankMap``; the flows must be valid, since nothing is checked.
    """
    nphases = 1 + max((f.phase for f in flows), default=-1)
    grouped = [sorted((f for f in flows if f.phase == p), key=lambda f: f.id)
               for p in range(nphases)]
    net = _ReferenceNetwork(topo, cfg)
    events: list[FlowInterval] | None = [] if cfg.collect_events else None
    completion: dict[int, float] = {}
    phase_completion: list[float] = []
    t = 0.0
    rank_busy = [0.0] * rm.nranks
    for phase_flows in grouped:
        states = [_ReferenceFlowState(f.id, net.legs(f, rm)) for f in phase_flows]
        t_next, done = _reference_run_phase(t, states, net, events, start)
        for fid, end in done.items():
            completion[fid] = start + end
        ends: dict[int, float] = {}
        for f in phase_flows:
            end = done[f.id]
            for r in (f.src_rank, f.dst_rank):
                if end > ends.get(r, t):
                    ends[r] = end
        for r, end in ends.items():
            rank_busy[r] += end - t
        phase_completion.append(start + t_next)
        t = t_next
    return SimResult(
        flow_completion=completion,
        phase_completion=phase_completion,
        makespan=start + t,
        busy_seconds=rank_busy,
        busy_fraction=[b / t if t > 0 else 0.0 for b in rank_busy],
        link_peak_utilization=net.peak_by_name(),
        events=events if events is not None else [],
    )
