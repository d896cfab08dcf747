"""The simulator against the loop that re-evaluates every rate, sum and peak each step.

``reference_simulate`` (``oracles.py``) is the event loop and leg
compilation as they were before the loop was made to update only what
changed.  Every reported number, the key order of the dicts and the full
trace must be equal with ``==``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from haloflow import (Flow, Link, RankMap, SimConfig, Staging, TimestepScenario, Topology, preset,
                      simulate, simulate_timestep)
from haloflow.topology import device, host_bridge, switch
from oracles import reference_simulate
from trace_replay import check_trace

TOPOLOGIES = {
    "dgx1v": preset("dgx1v"),
    "dgx1v_x2": preset("dgx1v", servers=2),
    "fat_tree_edr_2x2": preset("fat_tree_edr", nodes=2, devices_per_node=2),
}

# a few repeated sizes make equal rates and simultaneous leg ends common
SIZES = st.one_of(
    st.just(0),
    st.sampled_from([1, 1000, 10**6, 4 * 10**6]),
    st.integers(1, 10**7),
)
ALLTOALL_SIZES = [1, 1000, 10**6, 4 * 10**6, None]  # None: a random size, 0 included


@st.composite
def cases(draw):
    """A topology, rank map, flows and config, and compute seconds or None."""
    topo = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    nphases = draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["alltoall", "phases", "one_flow_phases"]))
    if kind == "alltoall":
        # all-to-all over the whole machine: many flows of mixed rates share
        # each resource, and intra- and inter-node latencies end apart; its
        # 16-256 flows come from one seeded generator, far cheaper than draws
        devices = rnd.sample(topo.devices, len(topo.devices))
        n = len(devices)
        specs = [(a, b, rnd.choice(ALLTOALL_SIZES) or rnd.randint(0, 10**7),
                  rnd.randrange(min(nphases, 2))) for a in range(n) for b in range(n)]
    else:
        if draw(st.booleans()):
            devices = rnd.sample(topo.devices, draw(st.integers(1, min(8, topo.n_devices))))
        else:
            # ranks may share a device: self transfers between distinct ranks
            devices = draw(st.lists(st.sampled_from(topo.devices), min_size=1, max_size=8))
        rank = st.integers(0, len(devices) - 1)
        phase = st.integers(0, nphases - 1)
        specs = draw(st.lists(st.tuples(rank, rank, SIZES, phase), min_size=1, max_size=20))
        if kind == "one_flow_phases":
            # every flow alone in its phase, run as a walk over its legs
            specs = [(src, dst, nbytes, i) for i, (src, dst, nbytes, _) in enumerate(specs)]
    # renumber phases to 0..k and give ids in an order unrelated to the list
    order = {p: i for i, p in enumerate(sorted({s[3] for s in specs}))}
    ids = list(range(len(specs)))
    rnd.shuffle(ids)
    flows = [Flow(fid, src, dst, nbytes, order[phase])
             for fid, (src, dst, nbytes, phase) in zip(ids, specs)]
    alphas = draw(st.sampled_from([{}, {"alpha_intra": 0.0, "alpha_inter": 0.0}]))
    cfg = SimConfig(staging=draw(st.sampled_from(list(Staging))),
                    collect_events=draw(st.booleans()), **alphas)
    compute = None
    if draw(st.booleans()):
        compute = draw(st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 2.5e-3]),
                                min_size=len(devices), max_size=len(devices)))
    return topo, RankMap(devices), flows, cfg, compute


def assert_same(res, ref):
    assert list(res.flow_completion.items()) == list(ref.flow_completion.items())
    assert res.phase_completion == ref.phase_completion
    assert res.makespan == ref.makespan
    assert list(res.link_peak_utilization.items()) == list(ref.link_peak_utilization.items())
    assert len(res.events) == len(ref.events)
    assert list(res.events) == list(ref.events)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cases())
def test_simulate_matches_reference(case):
    topo, rm, flows, cfg, compute = case
    if compute is None:
        res = simulate(topo, rm, flows, cfg)
        ref = reference_simulate(topo, rm, flows, cfg)
        assert_same(res, ref)
        assert res.busy_seconds == ref.busy_seconds
        assert res.busy_fraction == ref.busy_fraction
    else:
        res = simulate_timestep(topo, rm, TimestepScenario(compute, flows), cfg)
        ref = reference_simulate(topo, rm, flows, cfg, start=max(compute))
        assert_same(res, ref)
        assert res.busy_seconds == [c + b for c, b in zip(compute, ref.busy_seconds)]
    if cfg.collect_events:
        check_trace(topo, cfg, flows, res)


@pytest.mark.parametrize("collect_events", [True, False])
@pytest.mark.parametrize("alphas", [{}, {"alpha_intra": 0.0, "alpha_inter": 0.0}])
@pytest.mark.parametrize("staging", list(Staging), ids=[s.value for s in Staging])
def test_route_revisiting_a_link_direction_matches_reference(staging, collect_events, alphas):
    """A route may list a link direction k times; a flow alone on it then gets cap / k.

    Such a topology runs its one-flow phases in the event loop, host-staged
    ones (whose legs are searched paths) too, among them a leg too short to
    move the clock and a zero-byte flow.
    """
    topo = Topology(
        [device(0), device(1), switch(0), host_bridge(0)],
        [Link(device(0), switch(0), 10e9), Link(switch(0), device(1), 10e9),
         Link(device(0), host_bridge(0), 12e9), Link(device(1), host_bridge(0), 12e9)],
        device_mem_bw=800e9,
        routes={(0, 1): [0, 0, 0, 1]},
    )
    rm = RankMap.identity(2)
    cfg = SimConfig(staging=staging, collect_events=collect_events, **alphas)
    lone = [Flow(0, 0, 1, 10**6)]
    for flows in (
        lone,
        lone + [Flow(1, 1, 0, 10**6, phase=1), Flow(2, 0, 1, 0, phase=2)],
        lone + [Flow(1, 0, 1, 4 * 10**5), Flow(2, 1, 0, 10**6, phase=1)],
        lone + [Flow(1, 0, 1, 5e-324, phase=1), Flow(2, 1, 0, 0, phase=2),
                Flow(3, 1, 1, 5e-324, phase=3), Flow(4, 1, 0, 10**6, phase=4)],
    ):
        assert_same(simulate(topo, rm, flows, cfg), reference_simulate(topo, rm, flows, cfg))
    if staging is Staging.HOST_STAGED:
        return
    res = simulate(topo, rm, lone, cfg)
    assert res.makespan == pytest.approx(cfg.alpha_intra + 1e6 / 5e9, rel=1e-12)
    assert list(res.link_peak_utilization.items()) == [
        ("device:0->switch:0", 1.0), ("switch:0->device:0", 0.5), ("switch:0->device:1", 0.5)
    ]


@pytest.mark.parametrize("staging", list(Staging))
def test_leg_too_short_to_move_the_clock_matches_reference(staging):
    """A leg whose time underflows to 0 ends at once and leaves no trace segment."""
    topo = TOPOLOGIES["dgx1v"]
    rm = RankMap.identity(2)
    flows = [Flow(0, 0, 1, 5e-324), Flow(1, 1, 0, 5e-324, phase=1), Flow(2, 0, 0, 5e-324, phase=1)]
    for alphas in ({}, {"alpha_intra": 0.0, "alpha_inter": 0.0}):
        cfg = SimConfig(staging=staging, **alphas)
        res = simulate(topo, rm, flows, cfg)
        assert_same(res, reference_simulate(topo, rm, flows, cfg))
        assert len(res.events) == 0
