"""Grid partitioning, the owned/ghost local index layout and each rank's stencil rows.

Each rank's local value array is laid out as its owned elements in
ascending global order followed by one slot per ghost (a remote element
some owned element touches), ghosts sorted by (owner rank, global index).
That layout is what the exchange plan's indices and the stencil rows point
into.  A rank's ghosts are one read-only ``(k, 2)`` int64 array of
``[global, owner]`` rows from their derivation to the plan's negotiation,
and every rank's stencil rows are looked up in one global-to-local table
whose entries are reset after each rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from .grid import GlobalGrid, _read_only_int64


@dataclass(frozen=True, eq=False)
class DegreeGroup:
    """Owned elements of one degree, with their neighbours in column-major form.

    ``members`` holds owned local indices, ascending.  ``columns`` is a
    C-contiguous ``(degree, len(members))`` table of local indices:
    ``columns[k, i]`` is the k-th neighbour, in ascending global order, of
    ``members[i]``.  The k-th neighbours of all members thus sit in one
    contiguous row (the ELLPACK layout of sparse mat-vec), so a stencil pass
    is one gather followed by adds of contiguous rows.  ``rows`` is what a
    pass writes through: a ``slice`` when the members are one contiguous
    range, else ``members`` itself.
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
    """Ownership of the elements of ``grid`` plus the per-rank local layout.

    ``owner[g]`` is the owning rank of global element ``g`` (total).
    ``owned[r]`` lists rank r's globals ascending; ``ghosts[r]`` is a
    read-only ``(k, 2)`` int64 array whose rows are ``[global, owner]``,
    sorted by (owner, global).  Ghosts given as anything else, such as a
    tuple of ``(global, owner)`` pairs, are copied into such an array.
    ``stencil[r]`` holds rank r's stencil rows, built on construction: one
    column-major :class:`DegreeGroup` per distinct degree among its owned
    elements, in ascending degree.  A neighbour that is neither owned nor a
    ghost raises ``ProtocolError``.  ``rank_ordered`` records whether the
    owned sets concatenated in rank order are exactly ``0..n-1``.
    """

    grid: GlobalGrid
    nranks: int
    owner: np.ndarray
    owned: tuple[np.ndarray, ...]
    ghosts: tuple[np.ndarray, ...]
    stencil: tuple[tuple[DegreeGroup, ...], ...] = field(init=False, repr=False)
    rank_ordered: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ghosts", tuple(
            _ghost_pairs(r, g) for r, g in enumerate(self.ghosts)))
        object.__setattr__(self, "rank_ordered", np.array_equal(
            np.concatenate(self.owned), np.arange(len(self.owner))))
        # one global-to-local table for every rank: -1 except where the
        # current rank wrote, and those entries are reset before the next
        local_of = np.full(self.grid.n, -1, dtype=np.int64)
        stencil = []
        for r, (owned, ghosts) in enumerate(zip(self.owned, self.ghosts)):
            gids = ghosts[:, 0]
            local_of[owned] = np.arange(len(owned))
            local_of[gids] = np.arange(len(owned), len(owned) + len(gids))
            stencil.append(self._stencil_rows(r, local_of))
            local_of[owned] = -1
            local_of[gids] = -1
        object.__setattr__(self, "stencil", tuple(stencil))

    def _stencil_rows(self, rank: int, local_of: np.ndarray) -> tuple[DegreeGroup, ...]:
        grid = self.grid
        owned = self.owned[rank]
        starts = grid.indptr[owned]
        degree = grid.indptr[owned + 1] - starts
        groups = []
        for d in np.flatnonzero(np.bincount(degree)).tolist():  # ascending degrees
            members = np.flatnonzero(degree == d)
            columns = local_of[grid.indices[np.arange(d)[:, None] + starts[members]]]
            if (columns < 0).any():
                raise ProtocolError(
                    f"rank {rank} has a neighbour that is neither owned nor a ghost")
            groups.append(DegreeGroup(members=members, columns=columns))
        return tuple(groups)

    def n_owned(self, rank: int) -> int:
        return len(self.owned[rank])

    def n_ghosts(self, rank: int) -> int:
        return len(self.ghosts[rank])

    def local_size(self, rank: int) -> int:
        return self.n_owned(rank) + self.n_ghosts(rank)


def _ghost_pairs(rank: int, ghosts) -> np.ndarray:
    """``ghosts`` as a read-only ``(k, 2)`` int64 array, kept as it is if it already is one."""
    pairs = _read_only_int64(ghosts)
    if not pairs.size:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConfigurationError(f"ghosts of rank {rank} must be (global, owner) pairs")
    return pairs


def _derive_ghosts(grid: GlobalGrid, owner: np.ndarray, owned: list[np.ndarray],
                   nranks: int) -> Partition:
    # every adjacency entry whose neighbour lives on another rank than its
    # row names a ghost of the row's rank; (rank, global) pairs are encoded
    # as rank * n + global so one sort deduplicates them
    n = grid.n
    row_rank = np.repeat(owner, np.diff(grid.indptr))
    remote = row_rank != owner[grid.indices]
    keys = np.sort(row_rank[remote] * n + grid.indices[remote])
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
    )


def partition_block(grid: GlobalGrid, nranks: int) -> Partition:
    """Contiguous block partition: rank r owns globals [r*B, (r+1)*B) for B = ceil(N/P).

    Trailing ranks may own fewer (or zero) elements when N is not a
    multiple of P; such ranks still take part in every collective step.
    """
    if nranks < 1:
        raise ConfigurationError("nranks must be >= 1")
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
