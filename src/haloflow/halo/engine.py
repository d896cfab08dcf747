"""Field storage, packing, the exchange itself, and the stencil driver.

The stencil is an unweighted neighbourhood mean: the next value of an owned
element is the mean of its neighbours' current values, accumulated in
ascending global-index order.  A step writes no value of its snapshot
before every gather of the step has read it, so the update does not depend
on how elements are grouped; that is what makes the distributed result
bit-identical to a single-rank run and the three overlap modes to each
other.

All ranks' values live in one arena laid out by the partition (every
rank's owned block, then every rank's ghost slots); a :class:`Field` is one
rank's ranges of it and :class:`Fields` holds them with the arena.  Each
degree block of stencil rows covers all ranks and costs one
``arena.take(columns)`` gather into a ``(d, m)`` array, ``d - 1`` in-place
adds of contiguous rows and one divide, ``((v0 + v1) + v2) + ...) / d``.

Overlap modes mirror the two standard ways of hiding the exchange:

``NONE``
    Refresh all ghosts, evaluate the partition's rows into the means
    buffer, then copy it over the owned block.
``MASK_ARRAY``
    Evaluate every owned element in one pass, like a mask kernel; write the
    results the plan's ``boundary_mask`` selects into the spare arena,
    exchange those fresh boundary values, then write the rest through its
    ``interior_mask``.
``INDIRECTION_ARRAY``
    Evaluate the plan's ``boundary`` blocks into the spare arena, exchange,
    then evaluate its ``interior`` blocks.

A step or exchange reads only a :class:`StepWorkspace`, built once per run
like a halo library's exchange set-up: the partition (arena layout, rows),
its plan (send lists, receive ranges, boundary split), the mode, each
rank's ``(peer, send positions)`` pairs per round of the matching all-to-all
schedule of :mod:`haloflow.collectives`, its receive ranges shifted into the
arena, and the buffers its mode uses.  The overlap modes write into a spare
arena and swap it with the fields', so a step allocates no field-sized
array.  Nothing is cached on the partition or the plan.

Every rank's exchange is its own generator on the router: it packs from its
send positions with one gather per destination, adding exactly the packed
count to its ``reads``, and copies arrivals into its ghost range.  The
overlap modes send the *new* boundary values and so leave ghosts valid for
the next step; ``NONE`` refreshes at the top of each step.  One flag on
:class:`Fields` (``ghosts_fresh``) tracks that state for all ranks, and the
overlap modes re-synchronize stale ghosts first, so the modes can be mixed
freely.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ProtocolError, number
from ..collectives import ScheduleKind, _pair_phases
from ..netsim import Flow, SimConfig, Staging, simulate
from ..topology import RankMap, Topology
from . import partition
from .grid import GlobalGrid
from .partition import DegreeGroup, Partition
from .plan import HaloPlan, RankPlan, build_plan
from .router import Router

__all__ = [
    "Field",
    "Fields",
    "OverlapMode",
    "make_fields",
    "exchange",
    "StepWorkspace",
    "step_workspace",
    "stencil_step",
    "run_stencil",
    "global_checksum",
    "staged_vs_direct_cost",
]


class OverlapMode(enum.Enum):
    NONE = "none"
    MASK_ARRAY = "mask_array"
    INDIRECTION_ARRAY = "indirection_array"


@dataclass
class Field:
    """One rank's share of the arena: its owned block, then its ghost slots.

    ``owned`` and ``ghosts`` are the arena ranges of the two.  ``reads``
    counts elements gathered to send to peers.
    """

    owned: slice
    ghosts: slice
    reads: int = 0

    @property
    def n_owned(self) -> int:
        return self.owned.stop - self.owned.start


class Fields(list):
    """Every rank's :class:`Field` in rank order and their ``arena``, which steps may swap.

    ``ghosts_fresh`` records whether every rank's ghost slots mirror the
    owners' values; exchanges and steps cover all ranks at once, so one
    flag holds for all of them.
    """

    def __init__(self, fields: Sequence[Field], arena: np.ndarray):
        super().__init__(fields)
        self.arena = arena
        self.ghosts_fresh = False


def make_fields(part: Partition, init: np.ndarray) -> Fields:
    """Every rank's field from ``grid.n`` initial values, ghost slots zero and stale.

    An ``init`` of any other shape raises ``ConfigurationError``.
    """
    src = np.asarray(init, dtype=np.float64)
    n = len(part.owner)
    if src.shape != (n,):
        raise ConfigurationError(
            f"initial values must have shape ({n},), one per grid element; got {src.shape}")
    arena = np.zeros(part.arena_size)
    arena[part.position] = src
    owned, ghosts = part.owned_base, part.ghost_base
    return Fields([Field(slice(owned[r], owned[r + 1]), slice(ghosts[r], ghosts[r + 1]))
                   for r in range(part.nranks)], arena)


# ----------------------------------------------------------------------
# exchange rounds


Rounds = tuple[tuple[tuple[int, ...], ...], ...]
Sends = tuple[tuple[tuple[int, np.ndarray], ...], ...]  # per round: (peer, send positions) pairs


@functools.cache
def _exchange_rounds(schedule: ScheduleKind, nranks: int) -> Rounds:
    """Per round, every rank's ordered targets: the schedule's all-to-all phases.

    Self copies are left out, and so is a phase that holds nothing else;
    each rank sends to its destinations in the schedule's issue order.
    Cached, so the value is shared and built of tuples.
    """
    rounds = []
    for pairs in _pair_phases(schedule, nranks):
        targets: list[list[int]] = [[] for _ in range(nranks)]
        for src, dst in pairs:
            if src != dst:
                targets[src].append(dst)
        if any(targets):
            rounds.append(tuple(map(tuple, targets)))
    return tuple(rounds)


def _rank_sends(rp: RankPlan, base: int, rounds: Rounds) -> tuple[Sends, int]:
    """Per round, ``rp``'s ``(peer, base + send index)`` pairs in issue order, and their total.

    ``base`` is the rank's owned arena base.  A target sent nothing is left
    out of its round; the round stays, since every rank takes part in it.
    """
    positions = {dst: base + idx for dst, idx in rp.send_index.items()}
    sends = tuple(tuple((dst, positions[dst]) for dst in targets[rp.rank] if dst in positions)
                  for targets in rounds)
    return sends, sum(len(pos) for outgoing in sends for _dst, pos in outgoing)


@dataclass(eq=False)
class StepWorkspace:
    """What every step of one run reuses, built once for a partition, its plan and a mode.

    Per rank ``r``: ``sends[r]`` holds its ``(peer, send positions)`` pairs
    per exchange round, in issue order, ``packed[r]`` the element total one
    exchange packs (and adds to ``reads``), and ``recv[r]`` the arena range
    each peer's buffer fills.  ``spare`` is a second arena that overlap
    modes write into and swap with the fields'; ``means`` receives all
    owned means (``none`` and ``mask_array``).  Unused buffers are ``None``.
    """

    part: Partition
    plan: HaloPlan
    mode: OverlapMode
    sends: tuple[Sends, ...]
    packed: tuple[int, ...]
    recv: tuple[dict[int, slice], ...]
    spare: np.ndarray | None
    means: np.ndarray | None


def step_workspace(
    part: Partition,
    plan: HaloPlan,
    mode: OverlapMode = OverlapMode.NONE,
    schedule: ScheduleKind = ScheduleKind.ROTATED_CONCURRENT,
) -> StepWorkspace:
    """The workspace of ``plan`` for ``part`` in ``mode``, sending in ``schedule``'s rounds."""
    rounds = _exchange_rounds(schedule, plan.nranks)
    sends, packed = zip(*(_rank_sends(rp, part.owned_base[rp.rank], rounds)
                          for rp in plan.ranks))
    # a rank's local ghost slot s sits at arena position s + shift
    recv = tuple({src: slice(slots.start + shift, slots.stop + shift)
                  for src, slots in rp.recv_slot.items()}
                 for rp, shift in ((rp, part.ghost_base[rp.rank] - part.n_owned(rp.rank))
                                   for rp in plan.ranks))
    return StepWorkspace(
        part=part, plan=plan, mode=mode, sends=sends, packed=packed, recv=recv,
        spare=None if mode is OverlapMode.NONE else np.empty(part.arena_size),
        means=None if mode is OverlapMode.INDIRECTION_ARRAY else np.empty(len(part.owner)))


def _exchange_program(ws: StepWorkspace, rank: int, f: Field, arena: np.ndarray):
    """Generator: ``rank``'s exchange over ``arena``, its packed count added to ``f.reads``."""
    f.reads += ws.packed[rank]
    recv = ws.recv[rank]
    received: set[int] = set()
    for outgoing in ws.sends[rank]:
        inbox = yield {dst: arena.take(pos) for dst, pos in outgoing}
        for src, buf in inbox.items():  # sources ascend
            slots = recv.get(src)
            if slots is None or len(buf) != slots.stop - slots.start:
                raise ProtocolError(
                    f"rank {rank} got {len(buf)} values from {src}, expected "
                    f"{0 if slots is None else slots.stop - slots.start}"
                )
            if src in received:
                raise ProtocolError(f"rank {rank} received twice from {src}")
            received.add(src)
            arena[slots] = buf
    if len(received) != len(recv):
        missing = sorted(set(recv) - received)
        raise ProtocolError(f"rank {rank} never heard from peers {missing}")
    return None


def exchange(fields: Fields, workspace: StepWorkspace, router: Router) -> Fields:
    """Refresh every ghost slot with its owner's current value.

    The workspace's schedule fixes only the rounds and issue order, not the result.
    """
    arena = fields.arena
    router.run(lambda rank: _exchange_program(workspace, rank, fields[rank], arena))
    fields.ghosts_fresh = True
    return fields


# ----------------------------------------------------------------------
# stencil

def _mean_into(blocks: Sequence[DegreeGroup], values: np.ndarray, out: np.ndarray) -> None:
    """out[m] = mean of values[neighbours of m] for the members of ``blocks``.

    One gather per block, then the accumulation row by row, i.e. per element
    strictly in ascending global order of its neighbours.  ``out`` must not
    be ``values``: a block's writes would reach the later blocks' gathers.
    """
    for blk in blocks:
        acc = values.take(blk.columns)
        head = acc[0]
        for row in acc[1:]:
            head += row
        degree = float(len(acc))  # numpy converts a float divisor faster than an int
        if type(blk.rows) is slice:
            np.divide(head, degree, out=out[blk.rows])
        else:
            head /= degree
            out[blk.rows] = head


def stencil_step(fields: Fields, workspace: StepWorkspace, router: Router) -> Fields:
    """Advance every rank's owned values by one neighbourhood-mean step.

    Each row block of the workspace is evaluated once for all ranks.
    ``none`` updates the arena in place; the overlap modes write into the
    spare arena and swap it with the fields', so the two alternate.
    """
    part, plan, mode = workspace.part, workspace.plan, workspace.mode
    if mode is OverlapMode.NONE or not fields.ghosts_fresh:
        exchange(fields, workspace, router)
    old, n = fields.arena, len(part.owner)
    if mode is OverlapMode.NONE:
        _mean_into(part.stencil, old, workspace.means)
        old[:n] = workspace.means
        fields.ghosts_fresh = False
        return fields
    new = workspace.spare  # the fields, and so their exchanges, use it from here on
    workspace.spare, fields.arena = old, new
    if mode is OverlapMode.MASK_ARRAY:  # every element evaluated, the masks pick writes
        _mean_into(part.stencil, old, workspace.means)
        np.copyto(new[:n], workspace.means, where=plan.boundary_mask)
        exchange(fields, workspace, router)
        np.copyto(new[:n], workspace.means, where=plan.interior_mask)
    else:
        _mean_into(plan.boundary, old, new)
        exchange(fields, workspace, router)
        _mean_into(plan.interior, old, new)
    return fields


def ensure_plan(part: Partition, router: Router, mode: OverlapMode, schedule: ScheduleKind
                ) -> StepWorkspace:
    """The workspace of a plan negotiated for ``part``; one name, so a profiler can wrap both."""
    return step_workspace(part, build_plan(part, router), mode, schedule)


def run_stencil(
    grid: GlobalGrid,
    nranks: int,
    steps: int,
    init: np.ndarray,
    mode: OverlapMode = OverlapMode.NONE,
    router: Router | None = None,
    schedule: ScheduleKind = ScheduleKind.ROTATED_CONCURRENT,
) -> tuple[Fields, Partition, HaloPlan, list[float]]:
    """Partition, plan, run ``steps`` stencil steps; returns per-step checksums.

    ``init`` holds one value per grid element; any other shape, a rank
    count that is not an integer >= 1 or a step count that is not an
    integer >= 0 raises ``ConfigurationError``.
    """
    steps = number(steps, "steps", integer=True, low=0, error=ConfigurationError)
    part = partition.partition_block(grid, nranks)
    router = router or Router(part.nranks)
    workspace = ensure_plan(part, router, mode, schedule)
    fields = make_fields(part, init)
    checksums = []
    for _ in range(steps):
        stencil_step(fields, workspace, router)
        checksums.append(global_checksum(fields, part))
    return fields, part, workspace.plan, checksums


def global_checksum(fields: Fields, part: Partition) -> float:
    """Sum of all owned values accumulated in global element order.

    Plain left-to-right float accumulation from ``0.0``, reproducible digit
    for digit across rank counts.  ``np.cumsum`` adds strictly in sequence
    (``ndarray.sum`` adds pairwise); it starts from the first value, not
    ``0.0``, which differs only when every value is ``-0.0``, and the final
    ``+ 0.0`` turns that into ``0.0``.  A rank-ordered owned block is read in place.
    """
    owned = fields.arena[: len(part.owner)]
    return float(np.cumsum(owned if part.rank_ordered else owned[part.position])[-1]) + 0.0


# ----------------------------------------------------------------------
# staged vs direct cost


def staged_vs_direct_cost(
    part: Partition,
    plan: HaloPlan,
    bytes_per_element: int,
    topo: Topology,
    rank_map: RankMap | Sequence[int],
    cfg: SimConfig | None = None,
) -> tuple[float, float]:
    """Predicted exchange seconds for host-staged versus device-direct transfers.

    Direct: one single-phase set of flows sized by the plan's per-peer halo
    counts.  Staged: the same flows routed through host memory, plus a
    full-field device-to-host copy before and host-to-device copy after
    (the whole local array moves, not just the halo), each crossing the
    device's host-bridge path.  Ranks copy concurrently, so the copy walls
    are the per-phase maxima.
    """
    cfg = cfg or SimConfig()
    rm = rank_map if isinstance(rank_map, RankMap) else RankMap(rank_map)
    if rm.nranks != part.nranks:
        raise ConfigurationError(
            f"rank map has {rm.nranks} ranks but the partition has {part.nranks}"
        )
    bytes_per_element = number(bytes_per_element, "bytes_per_element", low=0, low_open=True,
                               error=ConfigurationError)

    pairs = [(r, peer, len(idx)) for r in range(part.nranks)
             for peer, idx in sorted(plan.ranks[r].send_index.items()) if len(idx)]
    flows = [Flow(fid, r, peer, n * bytes_per_element) for fid, (r, peer, n) in enumerate(pairs)]

    direct = simulate(topo, rm, flows, replace(cfg, staging=Staging.DEVICE_DIRECT,
                                               collect_events=False)).makespan
    staged_exchange = simulate(topo, rm, flows, replace(cfg, staging=Staging.HOST_STAGED,
                                                        collect_events=False)).makespan

    copy_wall = 0.0
    for r in range(part.nranks):
        bw = topo._bridge_legs(rm.device_of(r))[1][2]  # the path up's bottleneck
        field_bytes = (part.n_owned(r) + part.n_ghosts(r)) * bytes_per_element
        copy_wall = max(copy_wall, field_bytes / bw)
    staged = copy_wall + staged_exchange + copy_wall
    return staged, direct
