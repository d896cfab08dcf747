"""Field storage, packing, the exchange itself, and the stencil driver.

The stencil is an unweighted neighbourhood mean: the next value of an owned
element is the mean of its neighbours' current values, accumulated in
ascending global-index order.  Each step reads a consistent snapshot (old
values) and writes into another array, so the update is independent of how
elements are grouped; that is what makes the distributed result
bit-identical to a single-rank run and the three overlap modes
bit-identical to each other.

Stencil rows are column-major (ELLPACK) blocks, one per degree: a block of
``m`` rows of degree ``d`` is one ``values.take(columns)`` gather into a
``(d, m)`` array, ``d - 1`` in-place adds of its contiguous rows and one
divide, i.e. ``((v0 + v1) + v2) + ...) / d`` per element; a block written
through a slice is divided straight into its target.

Overlap modes mirror the two standard ways of hiding the exchange:

``NONE``
    Refresh all ghosts, then update every owned element from the
    partition's stencil rows.
``MASK_ARRAY``
    Evaluate every owned element from the partition's stencil rows in one
    pass over the old snapshot, like a mask kernel that visits every
    element; write the results that ``boundary_mask`` selects, start the
    exchange with those fresh boundary values, then write the rest through
    the plan's ``interior_mask``, the inverse fixed when it was negotiated.
``INDIRECTION_ARRAY``
    Update the plan's ``boundary`` row blocks, exchange, then update its
    ``interior`` row blocks: the split is materialised once, when the plan
    is negotiated.

A step or exchange reads only a :class:`StepWorkspace`, which carries the
partition, its plan and the mode, and derives nothing from them.  The
partition fixes, when it is constructed, each rank's stencil rows, each
row block's write target (a slice when its members are one range) and
whether its owned sets are ``0..n-1`` in rank order, which makes the
checksum's global array one concatenate of the owned views.  The plan
fixes, when it is negotiated, each rank's send lists, boundary split and
both masks.  The exchange rounds are the phases of the matching
all-to-all schedule in :mod:`haloflow.collectives`, without self copies,
derived once per ``(schedule, nranks)``.  The workspace, built once per
run like a halo library's exchange set-up, holds each rank's ``(peer,
send indices)`` pairs per round and the step buffers its mode needs; the
overlap modes write a step into a spare array and swap it with the
field's, so a step allocates no field-sized array.  ``run_stencil``
builds it with the plan and passes it to every step; a caller stepping by
hand builds one with :func:`step_workspace`.  Nothing is cached on the
partition or the plan.

The overlap modes send the *new* boundary values, so they leave ghosts
valid for the next step; ``NONE`` refreshes at the top of each step
instead.  Fields track which state they are in (``ghosts_fresh``) and the
overlap modes re-synchronize stale ghosts before computing, so the modes
can be mixed freely and still agree bit for bit on owned values.

Packing is a single gather per destination: every source element is read
exactly once, and the field's ``reads`` counter advances by exactly the
packed element count so tests can audit that no mode rescans the field.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..collectives import ScheduleKind, _pair_phases
from ..netsim import Flow, SimConfig, Staging, simulate
from ..topology import RankMap, Topology
from . import partition
from .grid import GlobalGrid
from .partition import DegreeGroup, Partition
from .plan import HaloPlan, build_plan
from .router import Router

__all__ = [
    "Field",
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


class OverlapMode(enum.Enum):
    NONE = "none"
    MASK_ARRAY = "mask_array"
    INDIRECTION_ARRAY = "indirection_array"


@dataclass
class Field:
    """One rank's values: owned elements first, then ghost slots.

    ``reads`` counts elements gathered to send to peers; ``ghosts_fresh``
    records whether ghost slots currently mirror the owners' values.
    """

    n_owned: int
    values: np.ndarray
    reads: int = 0
    ghosts_fresh: bool = False


def make_fields(part: Partition, init: np.ndarray) -> list[Field]:
    """Per-rank fields initialized from a global array."""
    src = np.asarray(init, dtype=np.float64)
    fields = []
    for r in range(part.nranks):
        vals = np.zeros(part.local_size(r), dtype=np.float64)
        owned = part.owned[r]
        vals[: len(owned)] = src[owned]
        fields.append(Field(n_owned=len(owned), values=vals))
    return fields


# ----------------------------------------------------------------------
# exchange rounds


Rounds = tuple[tuple[tuple[int, ...], ...], ...]
Sends = tuple[tuple[tuple[int, np.ndarray], ...], ...]  # per round: (peer, send indices) pairs


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


def _rank_sends(send_index: dict[int, np.ndarray], rank: int, rounds: Rounds
                ) -> tuple[Sends, int]:
    """Per round, ``rank``'s ``(peer, send indices)`` pairs in issue order, and their element total.

    A target that ``send_index`` sends nothing is left out of its round; the
    round itself stays, since every rank takes part in every round.
    """
    sends = tuple(tuple((dst, send_index[dst]) for dst in targets[rank] if dst in send_index)
                  for targets in rounds)
    return sends, sum(len(idx) for outgoing in sends for _dst, idx in outgoing)


@dataclass(eq=False)
class StepWorkspace:
    """What every step of one run reuses, built once for a partition, its plan and a mode.

    A step reads the stencil rows of ``part``, the boundary split and receive
    slots of ``plan`` and the order of work of ``mode`` from here, and
    nothing else.  Per rank ``r``: ``sends[r]`` holds its ``(peer, send
    indices)`` pairs per exchange round, in the schedule's issue order, and
    ``packed[r]`` the element total one exchange packs and adds to the
    field's ``reads``.  ``spare[r]`` is a second values array (overlap modes
    only): a step writes into it and swaps it with the field's ``values``, so
    the two arrays alternate.  ``means[r]`` receives the owned means
    (``none`` and ``mask_array`` only).  Buffers a mode never uses are
    ``None``.
    """

    part: Partition
    plan: HaloPlan
    mode: OverlapMode
    sends: tuple[Sends, ...]
    packed: tuple[int, ...]
    spare: list[np.ndarray | None]
    means: tuple[np.ndarray | None, ...]


def step_workspace(
    part: Partition,
    plan: HaloPlan,
    mode: OverlapMode = OverlapMode.NONE,
    schedule: ScheduleKind = ScheduleKind.ROTATED_CONCURRENT,
) -> StepWorkspace:
    """The workspace of ``plan``, negotiated for ``part``, in ``mode``.

    Its send lists follow ``schedule``'s rounds and issue order.
    """
    rounds = _exchange_rounds(schedule, plan.nranks)
    sends, packed = zip(*(_rank_sends(rp.send_index, rp.rank, rounds) for rp in plan.ranks))
    spare = [None if mode is OverlapMode.NONE else np.empty(part.local_size(r))
             for r in range(part.nranks)]
    means = tuple(None if mode is OverlapMode.INDIRECTION_ARRAY else np.empty(part.n_owned(r))
                  for r in range(part.nranks))
    return StepWorkspace(part=part, plan=plan, mode=mode, sends=sends, packed=packed,
                         spare=spare, means=means)


def _exchange_program(ws: StepWorkspace, rank: int, f: Field, values: np.ndarray):
    """Generator: pack ``rank``'s sends from ``values`` round by round, scatter arrivals into it.

    The workspace's ``packed`` count for the rank is added to ``f.reads``.
    """
    f.reads += ws.packed[rank]
    recv_slot = ws.plan.ranks[rank].recv_slot
    received: set[int] = set()
    for outgoing in ws.sends[rank]:
        inbox = yield {dst: values[idx] for dst, idx in outgoing}
        for src, buf in inbox.items():  # sources ascend
            slots = recv_slot.get(src)
            if slots is None or len(buf) != len(slots):
                raise ProtocolError(
                    f"rank {rank} got {len(buf)} values from {src}, expected "
                    f"{0 if slots is None else len(slots)}"
                )
            if src in received:
                raise ProtocolError(f"rank {rank} received twice from {src}")
            received.add(src)
            values[slots] = buf
    if len(received) != len(recv_slot):
        missing = sorted(set(recv_slot) - received)
        raise ProtocolError(f"rank {rank} never heard from peers {missing}")
    return None


def exchange(fields: Sequence[Field], workspace: StepWorkspace, router: Router
             ) -> Sequence[Field]:
    """Refresh every ghost slot with its owner's current value.

    The schedule the workspace was built over only fixed the round structure
    and issue order; all schedules move the same data and end in the same
    state.
    """

    def program(rank: int):
        f = fields[rank]
        yield from _exchange_program(workspace, rank, f, f.values)
        f.ghosts_fresh = True
        return None

    router.run(program)
    return fields


# ----------------------------------------------------------------------
# stencil

def _mean_into(blocks: Sequence[DegreeGroup], values: np.ndarray, out: np.ndarray) -> None:
    """out[m] = mean of values[neighbours of m] for the members of ``blocks``.

    One gather per block, then the accumulation row by row, i.e. per element
    strictly in ascending global order of its neighbours, so the float
    result for an element never depends on which other elements share the
    block.  A block written through a slice is divided straight into it.
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


def stencil_step(fields: Sequence[Field], workspace: StepWorkspace, router: Router
                 ) -> Sequence[Field]:
    """Advance every rank's owned values by one neighbourhood-mean step.

    The stencil rows, boundary split and mode are the workspace's.  ``none``
    updates each field's ``values`` in place; the overlap modes write into
    the workspace's spare arrays and swap them with the fields', so each
    rank's two arrays alternate from step to step.
    """
    part, plan, mode = workspace.part, workspace.plan, workspace.mode
    fresh = {f.ghosts_fresh for f in fields}
    if len(fresh) > 1:
        raise ProtocolError("fields disagree about ghost freshness")
    ghosts_were_fresh = fresh.pop() if fresh else True

    def program(rank: int):
        f = fields[rank]
        groups, rp = part.stencil[rank], plan.ranks[rank]
        if mode is OverlapMode.NONE:
            yield from _exchange_program(workspace, rank, f, f.values)
            means = workspace.means[rank]
            _mean_into(groups, f.values, means)
            f.values[: f.n_owned] = means
            f.ghosts_fresh = False
            return None

        if not ghosts_were_fresh:
            yield from _exchange_program(workspace, rank, f, f.values)
        new_values = workspace.spare[rank]
        if mode is OverlapMode.MASK_ARRAY:  # every element evaluated, the mask picks writes
            means, new_owned = workspace.means[rank], new_values[: f.n_owned]
            _mean_into(groups, f.values, means)
            np.copyto(new_owned, means, where=rp.boundary_mask)
            yield from _exchange_program(workspace, rank, f, new_values)
            np.copyto(new_owned, means, where=rp.interior_mask)
        else:
            _mean_into(rp.boundary, f.values, new_values)
            yield from _exchange_program(workspace, rank, f, new_values)
            _mean_into(rp.interior, f.values, new_values)
        workspace.spare[rank], f.values = f.values, new_values
        f.ghosts_fresh = True
        return None

    router.run(program)
    return fields


def ensure_plan(part: Partition, router: Router, mode: OverlapMode, schedule: ScheduleKind
                ) -> StepWorkspace:
    """The workspace of a plan negotiated for ``part``: ``run_stencil``'s set-up past it.

    One name, so a profiler can wrap the two alone.
    """
    return step_workspace(part, build_plan(part, router), mode, schedule)


def run_stencil(
    grid: GlobalGrid,
    nranks: int,
    steps: int,
    init: np.ndarray,
    mode: OverlapMode = OverlapMode.NONE,
    router: Router | None = None,
    schedule: ScheduleKind = ScheduleKind.ROTATED_CONCURRENT,
) -> tuple[list[Field], Partition, HaloPlan, list[float]]:
    """Partition, plan, run ``steps`` stencil steps; returns per-step checksums."""
    router = router or Router(nranks)
    part = partition.partition_block(grid, nranks)
    workspace = ensure_plan(part, router, mode, schedule)
    fields = make_fields(part, init)
    checksums = []
    for _ in range(steps):
        stencil_step(fields, workspace, router)
        checksums.append(global_checksum(fields, part))
    return fields, part, workspace.plan, checksums


def gather_global(fields: Sequence[Field], part: Partition) -> np.ndarray:
    """Owned values of all ranks assembled into global element order."""
    if part.rank_ordered:  # every block partition: the owned views end to end
        return np.concatenate([f.values[: f.n_owned] for f in fields])
    out = np.empty(len(part.owner), dtype=np.float64)
    for r in range(part.nranks):
        out[part.owned[r]] = fields[r].values[: fields[r].n_owned]
    return out


def global_checksum(fields: Sequence[Field], part: Partition) -> float:
    """Sum of all owned values accumulated in global element order.

    Plain left-to-right float accumulation starting from ``0.0``: the fixed
    order makes the checksum reproducible digit for digit across rank
    counts.  ``np.cumsum`` adds strictly in sequence (``ndarray.sum`` adds
    pairwise and would round differently); its running sum starts from the
    first value rather than ``0.0``, which differs from the loop only when
    every value is ``-0.0``, and adding ``0.0`` at the end turns that ``-0.0``
    into the loop's ``0.0``.
    """
    return float(np.cumsum(gather_global(fields, part))[-1]) + 0.0


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
    if bytes_per_element <= 0:
        raise ConfigurationError("bytes_per_element must be positive")

    pairs = [(r, peer, len(idx)) for r in range(part.nranks)
             for peer, idx in sorted(plan.ranks[r].send_index.items()) if len(idx)]
    flows = [Flow(fid, r, peer, n * bytes_per_element) for fid, (r, peer, n) in enumerate(pairs)]

    direct = simulate(topo, rm, flows, replace(cfg, staging=Staging.DEVICE_DIRECT,
                                               collect_events=False)).makespan
    staged_exchange = simulate(topo, rm, flows, replace(cfg, staging=Staging.HOST_STAGED,
                                                        collect_events=False)).makespan

    copy_wall = 0.0
    for r in range(part.nranks):
        dev = rm.device_of(r)
        _hb, hops = topo.bridge_path(dev)
        bw = min(topo.links[li].capacity for li, _fwd in hops)
        field_bytes = part.local_size(r) * bytes_per_element
        copy_wall = max(copy_wall, field_bytes / bw)
    staged = copy_wall + staged_exchange + copy_wall
    return staged, direct
