"""Golden gate for the flow simulator: every reported number stays bit-identical.

``netsim_golden.json`` holds, per case, the sha256 of the ``%.17g`` text of
``flow_completion`` (in dict order), ``phase_completion``, ``busy_seconds``
and ``link_peak_utilization`` (names and values, in dict order).  It was
recorded from the simulator before its event loop was rewritten; a change
to any of these numbers, or to the key order, fails here with ``==``.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from haloflow import (
    Flow,
    RankMap,
    ScheduleKind,
    SimConfig,
    Staging,
    TimestepScenario,
    build_alltoall,
    preset,
    simulate,
    simulate_timestep,
)
from trace_replay import check_trace

GOLDEN = Path(__file__).with_name("netsim_golden.json")
STAGED = SimConfig(staging=Staging.HOST_STAGED)


# (topology, config, flows) of every case: each records a trace to replay
INPUTS = {}


def _simulated(cases, name, topo, rm, flows, cfg=SimConfig()):
    cases[name] = lambda: simulate(topo, rm, flows, cfg)
    INPUTS[name] = (topo, cfg, flows)


def _netsim_flow_sets():
    """The flow sets of ``test_netsim.py``, run device-direct and host-staged."""
    random.seed(5)
    conservation = [
        Flow(i, random.randrange(8), (random.randrange(7) + 1 + i) % 8, random.randrange(1, 10**7))
        for i in range(20)
    ]
    sets = {
        "lone": (2, [Flow(0, 0, 1, 10**8)]),
        "zero": (2, [Flow(0, 0, 1, 0)]),
        "halve": (2, [Flow(0, 0, 1, 10**8), Flow(1, 0, 1, 10**8)]),
        "opposite": (2, [Flow(0, 0, 1, 10**8), Flow(1, 1, 0, 10**8)]),
        "release": (2, [Flow(0, 0, 1, 10**8), Flow(1, 0, 1, 3 * 10**8)]),
        "phases": (2, [Flow(0, 0, 1, 10**8, phase=0), Flow(1, 0, 1, 10**8, phase=1)]),
        "cross_bridge": (8, [Flow(0, 0, 5, 10**8)]),
        "engine": (4, [Flow(0, 0, 1, 10**8), Flow(1, 2, 3, 10**8)]),
        "determinism": (
            4, [Flow(i, i % 4, (i + 1 + i // 4) % 4, (i + 1) * 10**6) for i in range(12)]
        ),
        "conservation": (8, [f for f in conservation if f.src_rank != f.dst_rank]),
    }
    cases = {}
    topo = preset("dgx1v")
    for name, (nranks, flows) in sets.items():
        for tag, cfg in (("direct", SimConfig()), ("staged", STAGED)):
            _simulated(cases, f"netsim/{name}/{tag}", topo, RankMap.identity(nranks), flows, cfg)
    _simulated(cases, "netsim/self_copy", topo, RankMap([0, 0]), [Flow(0, 0, 1, 8 * 10**9)])
    _simulated(cases, "netsim/cross_machine", preset("fat_tree_edr", nodes=2, devices_per_node=1),
               RankMap.identity(2), [Flow(0, 0, 1, 0), Flow(1, 1, 0, 10**7)])
    return cases


def _acceptance_flow_sets():
    """The ten criterion-08 trials and its zero-latency scale set."""
    rng = np.random.default_rng(42)

    def random_flows(k):
        flows = []
        for i in range(k):
            src = int(rng.integers(0, 8))
            dst = int(rng.integers(0, 8))
            flows.append(Flow(i, src, dst, int(rng.integers(0, 10**7)),
                              phase=int(rng.integers(0, 2))))
        phases = sorted({f.phase for f in flows})
        remap = {p: i for i, p in enumerate(phases)}
        return [Flow(f.id, f.src_rank, f.dst_rank, f.bytes, remap[f.phase]) for f in flows]

    topo = preset("dgx1v")
    cases = {}
    for trial in range(10):
        _simulated(cases, f"acceptance/trial{trial}", topo, RankMap.identity(8), random_flows(25))
    flat = SimConfig(alpha_intra=0.0, alpha_inter=0.0)
    flows = [f for f in random_flows(20) if f.bytes > 0]
    for k in (1, 2, 10, 1024):
        scaled = [Flow(f.id, f.src_rank, f.dst_rank, f.bytes * k, f.phase) for f in flows]
        _simulated(cases, f"acceptance/scale{k}", topo, RankMap.identity(8), scaled, flat)
    return cases


def _alltoall_and_timestep_sets():
    topo = preset("dgx1v", servers=2)
    p = topo.n_devices
    rnd = random.Random(7)
    sizes = [[rnd.randint(1, 10**6) for _ in range(p)] for _ in range(p)]
    flows = build_alltoall(ScheduleKind.ROTATED_CONCURRENT, sizes)
    cases = {}
    _simulated(cases, "alltoall/rotated/staged", topo, RankMap.identity(p), flows, STAGED)
    _simulated(cases, "alltoall/rotated/direct", topo, RankMap.identity(p), flows)
    island = preset("dgx1v")
    compute = [1e-3 * (1 + (r * 5) % 8) for r in range(8)]
    exchange = tuple(
        Flow(i, i % 8, (i * 3 + 1) % 8, (i + 1) * 10**6, phase=i % 2) for i in range(16)
    )
    for barrier in (False, True):
        scen = TimestepScenario(compute, exchange, barrier_at_end=barrier)
        cases[f"timestep/barrier={barrier}"] = lambda s=scen: simulate_timestep(
            island, RankMap.identity(8), s
        )
        INPUTS[f"timestep/barrier={barrier}"] = (island, SimConfig(), exchange)
    return cases


CASES = {**_netsim_flow_sets(), **_acceptance_flow_sets(), **_alltoall_and_timestep_sets()}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fingerprint(res) -> dict[str, str]:
    return {
        "flow_completion": _sha(f"{k} {v:.17g}" for k, v in res.flow_completion.items()),
        "phase_completion": _sha(f"{v:.17g}" for v in res.phase_completion),
        "busy_seconds": _sha(f"{v:.17g}" for v in res.busy_seconds),
        "link_peak_utilization": _sha(
            f"{k} {v:.17g}" for k, v in res.link_peak_utilization.items()
        ),
    }


def _all_numbers(res):
    yield res.makespan
    yield from res.flow_completion.values()
    yield from res.phase_completion
    yield from res.busy_seconds
    yield from res.busy_fraction
    yield from res.link_peak_utilization.values()
    for ev in res.events:
        yield from (ev.t0, ev.t1, ev.rate)


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulation_matches_golden(name):
    res = CASES[name]()
    assert fingerprint(res) == json.loads(GOLDEN.read_text())[name]
    assert all(type(v) is float for v in _all_numbers(res))


def test_every_case_has_inputs():
    assert sorted(INPUTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_replays(name):
    # the fingerprints leave the trace out; this and the oracle test gate it
    topo, cfg, flows = INPUTS[name]
    check_trace(topo, cfg, flows, CASES[name]())
