"""Replay checks for a simulator trace (``SimResult.events``).

``check_trace`` asserts that a trace is a physically consistent, fully
merged record of a run:

* capacity: between any two consecutive segment boundaries on a resource,
  the rates of the segments covering that stretch fit under its capacity;
* conservation: each flow moves its bytes over each resource it crosses,
  up to a relative ``rel`` plus the rounding of the segments' end points,
  and a flow of zero bytes crosses none;
* tiling: each flow's segments on one resource follow each other without
  gaps, its segments over all resources cover one unbroken stretch that
  ends at its completion time, and the resources of a segment are those
  of one leg (all share its start, end and rate);
* merging: no two adjacent segments of one flow on one resource carry the
  same rate, so every segment is a maximal constant-rate run.
"""

import math

from haloflow import NodeKind


def resource_capacities(topo, cfg) -> dict[str, float]:
    """Capacity of every resource a trace on ``topo`` may name."""
    cap = {}
    for ln in topo.links:
        cap[f"{ln.a}->{ln.b}"] = ln.capacity
        cap[f"{ln.b}->{ln.a}"] = ln.capacity
    for d in topo.devices:
        cap[f"devmem:device:{d}"] = topo.device_mem_bw
    for node in topo.nodes:
        if node.kind is NodeKind.HOST_BRIDGE:
            cap[f"hostmem:{node}"] = cfg.host_mem_bw
    return cap


def _check_capacity(events, capacity, slack):
    by_resource = {}
    for ev in events:
        by_resource.setdefault(ev.resource, []).append(ev)
    for name, evs in by_resource.items():
        evs.sort(key=lambda e: e.t0)
        cuts = sorted({e.t0 for e in evs} | {e.t1 for e in evs})
        live = []
        nxt = 0
        for lo in cuts[:-1]:
            # segments covering [lo, next cut): started by lo, ending after it
            while nxt < len(evs) and evs[nxt].t0 <= lo:
                live.append(evs[nxt])
                nxt += 1
            live = [e for e in live if e.t1 > lo]
            load = math.fsum(e.rate for e in live)
            assert load <= capacity[name] * (1 + slack), (name, lo, load)


def check_trace(topo, cfg, flows, res, rel=1e-9):
    """Assert that ``res.events`` replays ``flows`` run on ``topo`` under ``cfg``."""
    capacity = resource_capacities(topo, cfg)
    for ev in res.events:
        assert ev.resource in capacity, ev
        assert ev.t0 <= ev.t1 and ev.rate > 0, ev
    _check_capacity(res.events, capacity, rel)

    by_flow_resource = {}
    for ev in res.events:
        by_flow_resource.setdefault((ev.flow_id, ev.resource), []).append(ev)
    sizes = {f.id: f.bytes for f in flows}
    for (fid, name), evs in by_flow_resource.items():
        moved = math.fsum(e.rate * (e.t1 - e.t0) for e in evs)
        # trace times are absolute, so each end point of a segment has been
        # rounded once: a segment's bytes may be off by its rate times an
        # ulp of either end, however short the segment is
        rounding = math.fsum(e.rate * (math.ulp(e.t0) + math.ulp(e.t1)) for e in evs)
        assert abs(moved - sizes[fid]) <= rel * sizes[fid] + rounding, (fid, name, moved)
        evs.sort(key=lambda e: e.t0)
        for a, b in zip(evs, evs[1:]):
            assert a.t1 == b.t0, ("gap or overlap on one resource", fid, name, a, b)
            assert a.rate != b.rate, ("unmerged segments", fid, name, a, b)

    segments = {}
    for ev in res.events:
        segments.setdefault(ev.flow_id, {}).setdefault((ev.t0, ev.t1, ev.rate), set()).add(
            ev.resource
        )
    for f in flows:
        if f.bytes == 0:
            assert f.id not in segments, f
            continue
        assert f.id in segments, f
        runs = sorted(segments[f.id].items())
        for ((_a0, a1, _ra), _), ((b0, _b1, _rb), _) in zip(runs, runs[1:]):
            assert a1 == b0, ("gap between a flow's segments", f.id, a1, b0)
        assert runs[-1][0][1] == res.flow_completion[f.id], f
        # one leg's resources move together: a resource never shares a
        # segment with a resource of another leg
        leg_of = {}
        for _key, names in runs:
            leg = frozenset(names)
            for name in names:
                assert leg_of.setdefault(name, leg) == leg, (f.id, name)
