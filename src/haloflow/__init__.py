"""Topology-aware interconnect simulation and a functional halo-exchange engine.

The package has two halves that share one vocabulary:

* timing: :mod:`haloflow.topology` (machine graphs and routes),
  :mod:`haloflow.netsim` (fluid flow simulation) and
  :mod:`haloflow.collectives` (all-to-all schedules) predict how long
  communication patterns take on a modelled machine;
* function: :mod:`haloflow.halo` actually performs a distributed halo
  exchange and stencil over an in-process router, bit-identically to a
  single-rank run.

:mod:`haloflow.perfmodel` and :mod:`haloflow.energy` add roofline and
power/energy accounting; :mod:`haloflow.cli` runs scenario files.
"""

from .errors import (
    ConfigurationError,
    HaloflowError,
    ProtocolError,
    ScenarioError,
    SimulationError,
    TopologyError,
    UndefinedIntensityError,
)
from .topology import Link, NodeId, NodeKind, RankMap, Topology, preset
from .netsim import (
    Flow,
    SimConfig,
    SimResult,
    Staging,
    TimestepScenario,
    simulate,
    simulate_timestep,
)
from .collectives import ScheduleKind, build_alltoall, compare_schedules, uniform_sizes
from .perfmodel import (
    KernelPoint,
    KernelSample,
    MachineModel,
    RooflineConsistencyWarning,
    arithmetic_intensity,
    attainable_flops,
    percent_of_roofline,
    roofline_report,
)
from .energy import (
    EnergyPoint,
    PowerModel,
    PowerSample,
    energy_per_step,
    energy_vs_time_series,
    fit_power_model,
    window_average,
)
from .scenario import Scenario, load_scenario, parse_grid, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HaloflowError",
    "ConfigurationError",
    "TopologyError",
    "SimulationError",
    "ProtocolError",
    "UndefinedIntensityError",
    "ScenarioError",
    "NodeId",
    "NodeKind",
    "Link",
    "RankMap",
    "Topology",
    "preset",
    "Flow",
    "Staging",
    "SimConfig",
    "SimResult",
    "TimestepScenario",
    "simulate",
    "simulate_timestep",
    "ScheduleKind",
    "uniform_sizes",
    "build_alltoall",
    "compare_schedules",
    "MachineModel",
    "KernelSample",
    "KernelPoint",
    "RooflineConsistencyWarning",
    "arithmetic_intensity",
    "attainable_flops",
    "percent_of_roofline",
    "roofline_report",
    "PowerSample",
    "PowerModel",
    "EnergyPoint",
    "window_average",
    "energy_per_step",
    "fit_power_model",
    "energy_vs_time_series",
    "Scenario",
    "parse_grid",
    "parse_scenario",
    "load_scenario",
]
