"""All-to-all schedule construction and schedule comparison.

Four ways to move the same size matrix, differing only in how transfers
are grouped into phases and in what order each rank issues them:

``STAGE_SERIALIZED``
    P phases.  Phase ``k`` (k < P-1) moves ``i -> (i + k + 1) mod P`` for
    every rank ``i``; the final phase holds the self copies.  This is the
    classic staged pattern: every phase is a clean permutation, but phases
    wait for each other.
``ROTATED_CONCURRENT``
    One phase containing everything.  Rank ``r`` issues its transfers in
    the order ``target = (k + r) mod P`` for ``k = 0..P-1``, so no two
    ranks start by hammering the same target; the rotation survives in the
    flow ordering, which is the issue order.
``PAIRWISE_XOR``
    P phases for P a power of two; phase ``k`` pairs ``i`` with ``i ^ k``
    (phase 0 is the self copies).
``LINEAR_SEQUENTIAL``
    One transfer at a time in rank-major order: the fully serialized
    baseline, P*P phases.

``build_alltoall`` emits one flow per ordered pair with a positive entry.
Empty phases left by zero entries are compacted away so the flow list
always satisfies the simulator's contiguous-phase requirement.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .errors import ConfigurationError, number
from .netsim import _EXACT_SIZE, Flow, SimConfig, SimResult, simulate
from .topology import RankMap, Topology

__all__ = [
    "ScheduleKind",
    "uniform_sizes",
    "build_alltoall",
    "compare_schedules",
]


class ScheduleKind(enum.Enum):
    STAGE_SERIALIZED = "stage_serialized"
    ROTATED_CONCURRENT = "rotated_concurrent"
    PAIRWISE_XOR = "pairwise_xor"
    LINEAR_SEQUENTIAL = "linear_sequential"


def uniform_sizes(nranks: int, bytes_per_pair: int) -> list[list[int]]:
    """Size matrix with the same payload for every ordered pair, self included."""
    nranks = number(nranks, "nranks", integer=True, low=1, error=ConfigurationError)
    bytes_per_pair = number(bytes_per_pair, "bytes_per_pair", integer=True, low=0,
                            error=ConfigurationError)
    return [[bytes_per_pair] * nranks for _ in range(nranks)]


def _check_sizes(sizes: Sequence[Sequence[int]]) -> list[list[int]]:
    """The matrix with each entry a finite non-negative integral real,
    checked by ``errors.number`` at ``size[i][j]``, as an ``int``."""
    p = len(sizes)
    if p < 1:
        raise ConfigurationError("size matrix must be at least 1x1")
    out: list[list[int]] = []
    for i, row in enumerate(sizes):
        row = list(row)
        if len(row) != p:
            raise ConfigurationError(f"size matrix row {i} has {len(row)} entries, expected {p}")
        for j, v in enumerate(row):
            if not (type(v) is int and 0 <= v < _EXACT_SIZE):
                at = f"size[{i}][{j}]"
                if number(v, at, error=ConfigurationError) < 0 or int(v) != v:
                    raise ConfigurationError(f"{at} must be a non-negative integer")
                row[j] = int(v)
        out.append(row)
    return out


def _pair_phases(kind: ScheduleKind, p: int) -> list[list[tuple[int, int]]]:
    """Ordered (src, dst) pairs per phase, before size filtering."""
    if kind is ScheduleKind.STAGE_SERIALIZED:
        phases = [
            [(i, (i + k + 1) % p) for i in range(p)] for k in range(p - 1)
        ]
        phases.append([(i, i) for i in range(p)])
        return phases
    if kind is ScheduleKind.ROTATED_CONCURRENT:
        return [[(r, (k + r) % p) for r in range(p) for k in range(p)]]
    if kind is ScheduleKind.PAIRWISE_XOR:
        if p & (p - 1) != 0:
            raise ConfigurationError(f"pairwise_xor needs a power-of-two rank count, got {p}")
        return [[(i, i ^ k) for i in range(p)] for k in range(p)]
    if kind is ScheduleKind.LINEAR_SEQUENTIAL:
        return [[(i, j)] for i in range(p) for j in range(p)]
    raise ConfigurationError(f"unknown schedule kind {kind!r}")


def build_alltoall(kind: ScheduleKind, sizes: Sequence[Sequence[int]]) -> list[Flow]:
    """Flows realizing ``sizes`` under the given schedule.

    Covers every ordered pair with a positive entry exactly once.  Flow ids
    are assigned in issue order (phase-major, then per-rank issue order), and
    the flow list order is the issue order.
    """
    mat = _check_sizes(sizes)
    p = len(mat)
    flows: list[Flow] = []
    next_id = 0
    next_phase = 0
    for pairs in _pair_phases(kind, p):
        emitted = False
        for src, dst in pairs:
            if mat[src][dst] > 0:
                flows.append(Flow(next_id, src, dst, mat[src][dst], next_phase))
                next_id += 1
                emitted = True
        if emitted:
            next_phase += 1
    return flows


def compare_schedules(
    topo: Topology,
    rank_map: RankMap | Sequence[int],
    sizes: Sequence[Sequence[int]],
    kinds: Sequence[ScheduleKind] = tuple(ScheduleKind),
    cfg: SimConfig | None = None,
) -> dict[ScheduleKind, SimResult]:
    """Simulate the same size matrix under each schedule kind."""
    out: dict[ScheduleKind, SimResult] = {}
    for kind in kinds:
        flows = build_alltoall(kind, sizes)
        out[kind] = simulate(topo, rank_map, flows, cfg)
    return out
