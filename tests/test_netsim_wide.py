"""Wide multi-flow phases against the reference simulator.

``simulate`` steps a phase of several flows on arrays: one divide, one
multiply and one subtract per flow and step, with leg ends found as
``time to finish == dt`` or ``remaining <= 0``.  Python closes a flow's
trace segment only where its rate changed or its leg ended.  These cases
are wide enough that many legs end in one step, rates change for many
flows at once, and steps of ``dt == 0`` mix with steps that move the clock.
Every number, the dict key order and the trace must equal
``reference_simulate``'s with ``==``.
"""

import math
import random
from dataclasses import replace

import pytest

from haloflow import (Flow, Link, RankMap, ScheduleKind, SimConfig, Staging, Topology,
                      build_alltoall, preset, simulate, uniform_sizes)
from haloflow.topology import device, host_bridge
from oracles import reference_simulate
from test_netsim_oracle import assert_same
from trace_replay import check_trace

TOPO = preset("dgx1v", servers=2)
P = 16


def _sizes(kind):
    if kind == "uniform":  # equal flows on equal routes end in the same step
        return uniform_sizes(P, 10**6)
    rnd = random.Random(7)
    return [[rnd.randint(1, 10**6) for _ in range(P)] for _ in range(P)]


def _mixed_phase():
    """One phase in which flows too short to move the clock (``dt == 0``
    steps) run beside flows of ordinary sizes, on shared routes."""
    rnd = random.Random(3)
    flows = []
    for fid in range(48):
        src, dst = rnd.randrange(P), rnd.randrange(P)
        size = 5e-324 if fid % 3 == 0 else rnd.choice([1, 1000, 10**6, rnd.randint(1, 10**6)])
        flows.append(Flow(fid, src, dst, size))
    return flows


def _zero_left_an_ulp_late():
    """Two flows on disjoint routes whose legs end in the same step: flow 1
    (12 GB/s) sets ``dt``, and flow 0 (25 GB/s) has a time to finish one ulp
    above it, yet ``remaining - rate * dt`` is exactly 0.0 (device-direct)."""
    return [Flow(0, 2, 3, 5835767.0), Flow(1, 0, 8, 2801168.1599999997)]


CASES = {
    "rotated_uniform": build_alltoall(ScheduleKind.ROTATED_CONCURRENT, _sizes("uniform")),
    "rotated_seeded": build_alltoall(ScheduleKind.ROTATED_CONCURRENT, _sizes("seeded")),
    "tiny_and_normal": _mixed_phase(),
    "zero_left_an_ulp_late": _zero_left_an_ulp_late(),
}


@pytest.mark.parametrize("staging", list(Staging), ids=[s.value for s in Staging])
@pytest.mark.parametrize("case", sorted(CASES))
def test_wide_phase_matches_reference(case, staging):
    """Traced and untraced, against one traced reference run."""
    flows = CASES[case]
    rm = RankMap.identity(P)
    alphas = [{}]
    if case in ("tiny_and_normal", "zero_left_an_ulp_late"):
        # without latency legs the fluid legs start the phase together
        alphas.append({"alpha_intra": 0.0, "alpha_inter": 0.0})
    for alpha in alphas:
        cfg = SimConfig(staging=staging, **alpha)
        ref = reference_simulate(TOPO, rm, flows, cfg)
        res = simulate(TOPO, rm, flows, cfg)
        assert_same(res, ref)
        # a leg too short to move the clock leaves no segment, so the replay
        # covers the other flows
        moved = [f for f in flows if f.bytes >= 1]
        assert {ev.flow_id for ev in res.events} == {f.id for f in moved}
        check_trace(TOPO, cfg, moved, res)
        untraced = simulate(TOPO, rm, flows, replace(cfg, collect_events=False))
        assert_same(untraced, replace(ref, events=[]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("staging", list(Staging), ids=[s.value for s in Staging])
def test_every_quotient_overflowing_ends_the_live_legs_only(staging):
    """Once the 1-byte flow has finished, both huge flows need more than the
    largest double of seconds on the link they start on: ``dt`` is ``inf``
    and their legs end there, as in the reference, while the finished flow
    (also ``inf`` to go) stays done.  Host-staged, the huge flows then go on
    to their host copy, which the finished flow must not hold up."""
    topo = Topology([device(0), device(1), host_bridge(0)],
                    [Link(device(0), host_bridge(0), 0.5), Link(device(1), host_bridge(0), 0.5)],
                    device_mem_bw=1.0)
    rm = RankMap.identity(2)
    flows = [Flow(0, 0, 1, 1), Flow(1, 0, 1, 1e308), Flow(2, 1, 0, 1e308)]
    cfg = SimConfig(alpha_intra=0.0, alpha_inter=0.0, staging=staging)
    res = simulate(topo, rm, flows, cfg)
    assert_same(res, reference_simulate(topo, rm, flows, cfg))
    assert res.flow_completion[1] == res.flow_completion[2] == math.inf
