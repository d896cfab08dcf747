"""Functional halo exchange for unstructured grids over an in-process router.

Unlike :mod:`haloflow.netsim`, which only predicts timings, this package
moves real values: a global grid is partitioned across ranks, ghost copies
of remote neighbours are discovered, a communication plan is negotiated by
an actual two-round protocol, and a stencil runs distributed with results
bit-identical to a single-rank execution.
"""

from .grid import GlobalGrid, quad_mesh, random_grid, ring
from .partition import Partition, partition_block
from .router import Router
from .plan import HaloPlan, RankPlan, build_plan
from .engine import (
    Field,
    Fields,
    OverlapMode,
    StepWorkspace,
    exchange,
    gather_global,
    global_checksum,
    make_fields,
    run_stencil,
    staged_vs_direct_cost,
    stencil_step,
    step_workspace,
)

__all__ = [
    "GlobalGrid",
    "ring",
    "quad_mesh",
    "random_grid",
    "Partition",
    "partition_block",
    "Router",
    "HaloPlan",
    "RankPlan",
    "build_plan",
    "Field",
    "Fields",
    "OverlapMode",
    "make_fields",
    "exchange",
    "StepWorkspace",
    "step_workspace",
    "stencil_step",
    "run_stencil",
    "gather_global",
    "global_checksum",
    "staged_vs_direct_cost",
]
