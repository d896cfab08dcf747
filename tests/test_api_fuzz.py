"""The Python-API side of the contract ``test_cli_fuzz.py`` holds for the CLI.

Every numeric field of every public constructor, and of ``simulate`` and
``run_stencil``, is replaced in turn by each value in ``VALUES``.  The call
either raises the ``HaloflowError`` subclass that constructor raises for a
bad value, or gives the same result as the value's canonical ``int`` or
``float``; a value with no canonical form (a bool, text, ``None``, NaN, an
infinity, an int a double cannot hold, a list) is always refused.  The
inputs are small: an 8-device machine, a ring of 8 elements.
"""

import math

import numpy as np
import pytest

from haloflow import (
    ConfigurationError,
    HaloflowError,
    ScenarioError,
    SimulationError,
    TopologyError,
)
from haloflow.collectives import ScheduleKind, build_alltoall
from haloflow.energy import PowerModel, PowerSample, energy_per_step, fit_power_model
from haloflow.errors import TopologySpecError
from haloflow.halo import quad_mesh, random_grid, ring, run_stencil
from haloflow.netsim import Flow, SimConfig, TimestepScenario, simulate
from haloflow.perfmodel import KernelSample, MachineModel
from haloflow.scenario import AlltoallJob, HaloJob, Scenario, SweepPoint, SweepSpec
from haloflow.topology import Link, RankMap, Topology, device, from_spec, parse_node, preset, switch

DGX1V = preset("dgx1v")
RING8 = ring(8)
A2A = AlltoallJob(2, 8)
POINT = SweepPoint("p", {"preset": "dgx1v"}, 2, 1.0)
SCHED = ScheduleKind.ROTATED_CONCURRENT

# (value, its canonical form, or None where it has none)
VALUES = [
    (True, None), ("1", None), (None, None), (math.nan, None), (math.inf, None),
    (-math.inf, None), (10**400, None), ([1], None),
    (-0.0, -0.0), (2.5, 2.5), (np.int64(2), 2), (np.float32(2.5), 2.5),
]


def _simulate(**field):
    """Three one-flow phases on 4 ranks; ``field`` replaces one of the last flow's."""
    last = Flow(**{"id": 2, "src_rank": 2, "dst_rank": 3, "bytes": 1000, "phase": 2, **field})
    flows = [Flow(0, 0, 1, 1000), Flow(1, 1, 0, 1000, phase=1), last]
    return simulate(DGX1V, RankMap.identity(4), flows)


# name -> (call of one value, the error class the call raises for a bad one)
CASES = {
    "AlltoallJob.ranks": (lambda v: AlltoallJob(v, 8), ScenarioError),
    "AlltoallJob.msg_bytes": (lambda v: AlltoallJob(2, v), ScenarioError),
    "HaloJob.ranks": (lambda v: HaloJob("ring8", v, 1), ScenarioError),
    "HaloJob.steps": (lambda v: HaloJob("ring8", 2, v), ScenarioError),
    "HaloJob.bytes_per_element": (lambda v: HaloJob("ring8", 2, 1, bytes_per_element=v),
                                  ScenarioError),
    "HaloJob.compute_seconds": (lambda v: HaloJob("ring8", 2, 1, compute_seconds=v),
                                ScenarioError),
    "SweepPoint.ranks": (lambda v: SweepPoint("p", {"preset": "dgx1v"}, v, 1.0), ScenarioError),
    "SweepPoint.imbalance": (lambda v: SweepPoint("p", {"preset": "dgx1v"}, 2, v),
                             ScenarioError),
    "SweepSpec.total_bytes": (lambda v: SweepSpec(v, 0.0, SCHED, (POINT,)), ScenarioError),
    "SweepSpec.compute_seconds_total": (lambda v: SweepSpec(1e6, v, SCHED, (POINT,)),
                                        ScenarioError),
    "Scenario.seed": (lambda v: Scenario("s", v, {"preset": "dgx1v"}, A2A), ScenarioError),
    "TimestepScenario.compute_seconds": (lambda v: TimestepScenario((0.0, v)), ScenarioError),
    "SimConfig.alpha_intra": (lambda v: SimConfig(alpha_intra=v), SimulationError),
    "SimConfig.alpha_inter": (lambda v: SimConfig(alpha_inter=v), SimulationError),
    "SimConfig.host_mem_bw": (lambda v: SimConfig(host_mem_bw=v), SimulationError),
    "Link.bw_per_dir": (lambda v: Link(device(0), switch(0), v), TopologyError),
    "Link.lane_count": (lambda v: Link(device(0), switch(0), 25e9, v), TopologyError),
    "Topology.device_mem_bw": (lambda v: Topology([device(0)], [], v), TopologyError),
    "from_spec route src": (
        lambda v: from_spec({"nodes": ["device:0", "device:1", "device:2", "switch:0"],
                             "links": [{"a": f"device:{d}", "b": "switch:0", "gbps_per_dir": 1}
                                       for d in range(3)],
                             "routes": [{"src": 0, "dst": 1, "links": [0, 1]},
                                        {"src": 1, "dst": 2, "links": [1, 2]},
                                        {"src": v, "dst": 0, "links": [2, 0]}]}),
        TopologySpecError),
    "RankMap.devices": (lambda v: RankMap([0, v]), ConfigurationError),
    "preset.servers": (lambda v: preset("dgx1v", servers=v), ConfigurationError),
    "preset.nodes": (lambda v: preset("fat_tree_edr", nodes=v), ConfigurationError),
    "preset.devices_per_node": (lambda v: preset("fat_tree_edr", devices_per_node=v),
                                ConfigurationError),
    "preset.pcie_bw": (lambda v: preset("dgx1v", pcie_bw=v), TopologyError),
    "preset.cpu_interconnect_bw": (lambda v: preset("dgx1v", cpu_interconnect_bw=v),
                                   TopologyError),
    # one server has no NIC, so no link is built from ib_bw
    "preset.ib_bw": (lambda v: preset("dgx1v", ib_bw=v), TopologyError),
    "preset.nvlink_bw": (lambda v: preset("dgx1v", nvlink_bw=v), TopologyError),
    "preset.device_mem_bw": (lambda v: preset("dgx1v", device_mem_bw=v), TopologyError),
    "build_alltoall.sizes": (lambda v: build_alltoall(SCHED, [[0, v], [1, 0]]),
                             ConfigurationError),
    # a grid compares by identity, so its neighbour lists stand for it
    "ring.n": (lambda v: ring(v).indices.tolist(), ConfigurationError),
    "quad_mesh.ny": (lambda v: quad_mesh(4, v).indices.tolist(), ConfigurationError),
    "random_grid.seed": (lambda v: random_grid(8, 3, seed=v).indices.tolist(),
                         ConfigurationError),
    "MachineModel.peak_flops": (lambda v: MachineModel(v, 1e9), ConfigurationError),
    "MachineModel.stream_bandwidth": (lambda v: MachineModel(1e12, v), ConfigurationError),
    "KernelSample.flops": (lambda v: KernelSample("k", v, 1.0, 1.0), ConfigurationError),
    "KernelSample.bytes_moved": (lambda v: KernelSample("k", 1.0, v, 1.0), ConfigurationError),
    "KernelSample.seconds": (lambda v: KernelSample("k", 1.0, 1.0, v), ConfigurationError),
    "PowerModel.p_idle": (lambda v: PowerModel(v, 300.0), ConfigurationError),
    "PowerModel.p_max": (lambda v: PowerModel(1.0, v), ConfigurationError),
    "PowerModel.predict": (lambda v: PowerModel().predict(v), ConfigurationError),
    "PowerSample.t": (lambda v: PowerSample(v, 1.0), ConfigurationError),
    "PowerSample.watts": (lambda v: PowerSample(0.0, v), ConfigurationError),
    "energy_per_step.watts": (lambda v: energy_per_step(v, 1.0, 1), ConfigurationError),
    "energy_per_step.step_seconds": (lambda v: energy_per_step(1.0, v, 1), ConfigurationError),
    "energy_per_step.devices": (lambda v: energy_per_step(1.0, 1.0, v), ConfigurationError),
    "fit_power_model.watts": (lambda v: fit_power_model([(0.0, 1.0), (1.0, v)]),
                              ConfigurationError),
    "simulate.id": (lambda v: _simulate(id=v), SimulationError),
    "simulate.src_rank": (lambda v: _simulate(src_rank=v), SimulationError),
    "simulate.dst_rank": (lambda v: _simulate(dst_rank=v), SimulationError),
    "simulate.bytes": (lambda v: _simulate(bytes=v), SimulationError),
    "simulate.phase": (lambda v: _simulate(phase=v), SimulationError),
    "run_stencil.nranks": (lambda v: run_stencil(RING8, v, 1, np.arange(8.0))[3],
                           ConfigurationError),
    "run_stencil.steps": (lambda v: run_stencil(RING8, 2, v, np.arange(8.0))[3],
                          ConfigurationError),
}

# a flow id is a label, not a number: any int is its own canonical form,
# and the result names the flow by the id it was given
LABELS = {"simulate.id"}
# None keeps the preset's default here
DEFAULTED = {"preset.nvlink_bw", "preset.device_mem_bw"}


def _same(got, want, label: bool) -> bool:
    """Equal, and stored alike: a constructor keeps the canonical int or float."""
    return got == want and (label or repr(got) == repr(want))


@pytest.mark.parametrize("case", CASES)
def test_a_value_is_refused_or_runs_as_its_canonical_form(case):
    call, error = CASES[case]
    label = case in LABELS
    for value, canonical in VALUES:
        if label and type(value) is int:
            canonical = value
        if value is None and case in DEFAULTED:
            assert call(None) == DGX1V
            continue
        try:
            got = call(value)
        except HaloflowError as exc:
            assert isinstance(exc, error), (case, value, exc)
            continue
        assert canonical is not None, f"{case} accepted {value!r}"
        assert _same(got, call(canonical), label), (case, value, got)


# each was silently accepted, or ended in a raw TypeError, ValueError or
# OverflowError, before every constructor used the one checker
REPROS = {
    "RankMap([0.5])": (lambda: RankMap([0.5]), ConfigurationError),
    "RankMap(['a'])": (lambda: RankMap(["a"]), ConfigurationError),
    "HaloJob ranks 2.5": (lambda: HaloJob("ring8", 2.5, 1), ScenarioError),
    "HaloJob steps True": (lambda: HaloJob("ring8", 2, True), ScenarioError),
    "HaloJob compute_seconds True": (lambda: HaloJob("ring8", 2, 1, compute_seconds=True),
                                     ScenarioError),
    "HaloJob ranks '2'": (lambda: HaloJob("ring8", "2", 1), ScenarioError),
    "HaloJob bytes_per_element '8'": (lambda: HaloJob("ring8", 2, 1, bytes_per_element="8"),
                                      ScenarioError),
    "HaloJob bytes_per_element 10**400": (
        lambda: HaloJob("ring8", 2, 1, bytes_per_element=10**400), ScenarioError),
    "AlltoallJob(None, 1)": (lambda: AlltoallJob(None, 1), ScenarioError),
    "AlltoallJob(2, '1')": (lambda: AlltoallJob(2, "1"), ScenarioError),
    "preset servers True": (lambda: preset("dgx1v", servers=True), ConfigurationError),
    "preset servers 2.0": (lambda: preset("dgx1v", servers=2.0), ConfigurationError),
    # each was accepted, or ended in a raw ValueError or TypeError
    "preset ib_bw 'x' (one server)": (lambda: preset("dgx1v", ib_bw="x"), TopologyError),
    "preset dgx2 pcie_bw nan": (lambda: preset("dgx2", pcie_bw=math.nan), TopologyError),
    "build_alltoall size nan": (lambda: build_alltoall(SCHED, [[math.nan]]), ConfigurationError),
    "build_alltoall size True": (lambda: build_alltoall(SCHED, [[True]]), ConfigurationError),
    "ring(8.0)": (lambda: ring(8.0), ConfigurationError),
    "quad_mesh(4, 4.0)": (lambda: quad_mesh(4, 4.0), ConfigurationError),
    "random_grid seed 1.5": (lambda: random_grid(8, 3, seed=1.5), ConfigurationError),
    # a given route's link index went straight to a tuple index or a comparison
    "Topology route link 1.0": (
        lambda: Topology([device(0), device(1), switch(0)],
                         [Link(device(0), switch(0), 1e9), Link(switch(0), device(1), 1e9)],
                         1e9, routes={(0, 1): [0, 1.0]}), TopologyError),
    "Topology route link False": (
        lambda: Topology([device(0), device(1), switch(0)],
                         [Link(device(0), switch(0), 1e9), Link(switch(0), device(1), 1e9)],
                         1e9, routes={(0, 1): [False, 1]}), TopologyError),
    # a route of an absent device or a device's route to itself across links
    # was built, and a pair an inline spec repeats kept the later route
    "Topology route (5, 5)": (
        lambda: Topology([device(0), device(1)], [Link(device(0), device(1), 1e9)], 1e9,
                         routes={(0, 1): [0], (5, 5): []}), TopologyError),
    "Topology route (0, 0) across links": (
        lambda: Topology([device(0), device(1)], [Link(device(0), device(1), 1e9)], 1e9,
                         routes={(0, 1): [0], (0, 0): [0, 0]}), TopologyError),
    "inline route pair repeated": (
        lambda: from_spec({"nodes": ["device:0", "device:1"],
                           "links": [{"a": "device:0", "b": "device:1", "gbps_per_dir": 25}],
                           "routes": [{"src": 0, "dst": 1, "links": [0]},
                                      {"src": 0, "dst": 1, "links": [0]}]}),
        TopologySpecError),
    "inline route src 5": (
        lambda: from_spec({"nodes": ["device:0", "device:1"],
                           "links": [{"a": "device:0", "b": "device:1", "gbps_per_dir": 25}],
                           "routes": [{"src": 5, "dst": 5, "links": []}]}),
        TopologySpecError),
    "Link bandwidth '1'": (lambda: Link(device(0), switch(0), "1"), TopologyError),
    "Link lane_count 1.5": (lambda: Link(device(0), switch(0), 25e9, 1.5), TopologyError),
    "MachineModel(nan, 1e9)": (lambda: MachineModel(math.nan, 1e9), ConfigurationError),
    "MachineModel(inf, 1e9)": (lambda: MachineModel(math.inf, 1e9), ConfigurationError),
    "KernelSample flops inf": (lambda: KernelSample("k", math.inf, 1, 1), ConfigurationError),
    "PowerModel(nan, 100)": (lambda: PowerModel(math.nan, 100), ConfigurationError),
    "PowerModel(1, inf)": (lambda: PowerModel(1, math.inf), ConfigurationError),
    "SweepPoint imbalance inf": (lambda: SweepPoint("p", {"preset": "dgx1v"}, 2, math.inf),
                                 ScenarioError),
    "SweepSpec compute_seconds_total inf": (
        lambda: SweepSpec(1e6, math.inf, SCHED, (POINT,)), ScenarioError),
    "energy_per_step devices 1.5": (lambda: energy_per_step(1, 1, 1.5), ConfigurationError),
    # busy_fraction came out [nan, nan]
    "simulate with alpha_intra inf": (
        lambda: simulate(DGX1V, RankMap.identity(2),
                         [Flow(0, 0, 1, 10**6), Flow(1, 1, 0, 0, phase=1)],
                         SimConfig(alpha_intra=math.inf)), SimulationError),
    # each parsed as another node's name
    "parse_node device:01": (lambda: parse_node("device:01"), TopologyError),
    "parse_node 'device: 1'": (lambda: parse_node("device: 1"), TopologyError),
    "parse_node Arabic-Indic one": (lambda: parse_node("device:١"), TopologyError),
    "parse_node device:1_0": (lambda: parse_node("device:1_0"), TopologyError),
    "inline link endpoint 'device: 1'": (
        lambda: from_spec({"nodes": ["device:0", "device:1"],
                           "links": [{"a": "device:0", "b": "device: 1", "gbps_per_dir": 25}]}),
        TopologySpecError),
}


@pytest.mark.parametrize("repro", REPROS)
def test_repro_is_refused_by_name(repro):
    call, error = REPROS[repro]
    with pytest.raises(error):
        call()
