"""Reference builders: the direct loop versions of ``random_grid`` and route search.

These are the implementations the array versions in ``haloflow`` replaced,
kept word for word in their arithmetic and tie-breaks so the tests can
require ``==`` between the two.  The route searches take a topology's
``nodes`` and ``links``, so they also run on graphs ``Topology`` refuses.
They are quadratic (the grid) and search once per node pair (the routes),
so use them only on small inputs.
"""

from __future__ import annotations

import random

import numpy as np

from haloflow.halo import GlobalGrid
from haloflow.errors import TopologyError
from haloflow.topology import NodeId, NodeKind, device


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
