"""Grid partitioning, the arena layout of all ranks' values and their stencil rows.

All ranks' values live in one float64 arena: first every rank's owned
elements, rank after rank, each rank's ascending (global order for a block
partition), then every rank's ghost slots (one per remote element an owned
element touches), rank after rank, each rank's sorted by (owner, global).
A rank's local index (owned elements, then ghosts) is what the plan's
indices point into.  Ghosts stay read-only ``(k, 2)`` int64 arrays of
``[global, owner]`` rows from their derivation to the plan, and the stencil
rows of all ranks are built in one pass over the adjacency.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from ..errors import ConfigurationError, ProtocolError, number
from .grid import GlobalGrid, _read_only_int64


@dataclass(frozen=True, eq=False)
class DegreeGroup:
    """Owned elements of one degree, with their neighbours in column-major form.

    ``members`` holds owned arena positions, ascending.  ``columns`` is a
    C-contiguous ``(degree, len(members))`` table of arena positions:
    ``columns[k, i]`` is the k-th neighbour (ascending global order) of
    ``members[i]`` as its rank sees it, owned or ghost.  The k-th neighbours
    of all members thus sit in one contiguous row (the ELLPACK layout), so a
    stencil pass is one gather and adds of contiguous rows.  ``rows`` is
    what a pass writes through: a ``slice`` when the members are one range,
    else ``members`` itself.
    """

    members: np.ndarray
    columns: np.ndarray
    rows: slice | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = self.members
        run = len(m) and int(m[-1]) - int(m[0]) == len(m) - 1  # members ascend
        object.__setattr__(self, "rows", slice(int(m[0]), int(m[-1]) + 1) if run else m)

    @property
    def degree(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class Partition:
    """Ownership of the elements of ``grid`` plus the arena layout of all ranks.

    ``owner[g]`` is the owning rank of global element ``g`` (total).
    ``owned[r]`` lists rank r's globals ascending; ``ghosts[r]`` is a
    read-only ``(k, 2)`` int64 array whose rows are ``[global, owner]``,
    sorted by (owner, global); ghosts given as anything else, such as
    ``(global, owner)`` tuples, are copied into one.  Built on construction:
    rank r owns arena range ``owned_base[r]:owned_base[r + 1]`` and its ghost
    slots are ``ghost_base[r]:ghost_base[r + 1]``; ``position[g]`` is the
    arena position of global ``g``, and ``rank_ordered`` whether that is
    ``g`` itself.  ``stencil`` holds every rank's stencil rows, one
    column-major :class:`DegreeGroup` per degree, ascending.  A neighbour
    that is neither owned nor a ghost of its row's rank raises
    ``ProtocolError`` naming the lowest such rank.  ``remote`` may pass in
    what :func:`_remote_entries` returns, so it is not computed twice.
    """

    grid: GlobalGrid
    nranks: int
    owner: np.ndarray
    owned: tuple[np.ndarray, ...]
    ghosts: tuple[np.ndarray, ...]
    owned_base: tuple[int, ...] = field(init=False, repr=False)
    ghost_base: tuple[int, ...] = field(init=False, repr=False)
    position: np.ndarray = field(init=False, repr=False)
    rank_ordered: bool = field(init=False, repr=False)
    stencil: tuple[DegreeGroup, ...] = field(init=False, repr=False)
    remote: InitVar[tuple[np.ndarray, np.ndarray] | None] = None

    def __post_init__(self, remote):
        ghosts = tuple(_ghost_pairs(r, g) for r, g in enumerate(self.ghosts))
        n, nranks, grid = len(self.owner), self.nranks, self.grid
        order = np.concatenate(self.owned)  # the global at each owned arena position
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        counts = [len(g) for g in ghosts]
        for name, value in (("ghosts", ghosts), ("position", position),
                            ("owned_base", tuple(np.cumsum([0, *map(len, self.owned)]).tolist())),
                            ("ghost_base", tuple((n + np.cumsum([0, *counts])).tolist())),
                            ("rank_ordered", np.array_equal(order, np.arange(n)))):
            object.__setattr__(self, name, value)

        # every adjacency entry in arena positions, seen from its row's rank:
        # a local neighbour is its owned position, a remote one the row
        # rank's ghost slot, found among all ghosts keyed rank * n + global
        nb = grid.indices
        entries, entry_rank = _remote_entries(grid, self.owner) if remote is None else remote
        col = position[nb]
        keys = np.repeat(np.arange(nranks), counts) * n + np.concatenate(ghosts)[:, 0]
        sorter = np.argsort(keys, kind="stable")
        sorted_keys = np.append(keys[sorter], nranks * n)  # a sentinel no entry equals
        want = entry_rank * n + nb[entries]
        at = np.searchsorted(sorted_keys, want)
        missing = sorted_keys[at] != want
        if missing.any():
            raise ProtocolError(f"rank {int(want[missing].min()) // n} has a neighbour "
                                "that is neither owned nor a ghost")
        col[entries] = n + sorter[at]

        # one group per degree for all ranks, rows in arena order; row k of
        # a group's table gathers the entries k places past its members' first
        starts = grid.indptr.take(order)
        degree = grid.indptr.take(order + 1) - starts
        groups = []
        for d in np.flatnonzero(np.bincount(degree)).tolist():  # ascending degrees
            members = np.flatnonzero(degree == d)
            first = starts[members]
            columns = np.empty((d, len(members)), dtype=np.int64)
            for k, row in enumerate(columns):  # "clip" never clips here; it skips a copy
                np.take(col[k:], first, out=row, mode="clip")
            groups.append(DegreeGroup(members=members, columns=columns))
        object.__setattr__(self, "stencil", tuple(groups))

    def n_owned(self, rank: int) -> int:
        return len(self.owned[rank])

    def n_ghosts(self, rank: int) -> int:
        return len(self.ghosts[rank])

    @property
    def arena_size(self) -> int:
        return self.ghost_base[-1]


def _ghost_pairs(rank: int, ghosts) -> np.ndarray:
    """``ghosts`` as a read-only ``(k, 2)`` int64 array, kept as it is if it already is one."""
    pairs = _read_only_int64(ghosts)
    if not pairs.size:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConfigurationError(f"ghosts of rank {rank} must be (global, owner) pairs")
    return pairs


def _remote_entries(grid: GlobalGrid, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries whose neighbour another rank owns, and their row's rank (compared narrow-typed)."""
    rank = owner.astype(np.min_scalar_type(max(len(owner) - 1, 0)))
    row_rank = np.repeat(rank, np.diff(grid.indptr))
    entries = np.flatnonzero(row_rank != rank[grid.indices])
    return entries, row_rank[entries].astype(np.int64)


def _derive_ghosts(grid: GlobalGrid, owner: np.ndarray, owned: list[np.ndarray],
                   nranks: int) -> Partition:
    # every remote adjacency entry names a ghost of its row's rank; (rank,
    # global) pairs are encoded as rank * n + global so one sort
    # deduplicates them
    n = grid.n
    remote = _remote_entries(grid, owner)
    entries, entry_rank = remote
    keys = np.sort(entry_rank * n + grid.indices[entries])
    rank, gid = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    gown = owner[gid]
    order = np.lexsort((gid, gown, rank))  # rank stays ascending
    pairs = np.stack((gid[order], gown[order]), axis=1)
    pairs.setflags(write=False)
    bounds = np.searchsorted(rank, np.arange(nranks + 1)).tolist()
    return Partition(
        grid=grid,
        nranks=nranks,
        owner=owner,
        owned=tuple(owned),
        ghosts=tuple(pairs[a:b] for a, b in zip(bounds, bounds[1:])),
        remote=remote,
    )


def partition_block(grid: GlobalGrid, nranks: int) -> Partition:
    """Contiguous block partition: rank r owns globals [r*B, (r+1)*B) for B = ceil(N/P).

    Trailing ranks may own fewer (or zero) elements when N is not a
    multiple of P; such ranks still take part in every collective step.
    """
    nranks = number(nranks, "nranks", integer=True, low=1, error=ConfigurationError)
    if nranks > grid.n:
        raise ConfigurationError(f"cannot split {grid.n} elements across {nranks} ranks")
    block = -(-grid.n // nranks)
    owner = np.empty(grid.n, dtype=np.int64)
    owned: list[np.ndarray] = []
    for r in range(nranks):
        lo = min(r * block, grid.n)
        hi = min(lo + block, grid.n)
        owner[lo:hi] = r
        owned.append(np.arange(lo, hi, dtype=np.int64))
    return _derive_ghosts(grid, owner, owned, nranks)
