"""Halo-exchange plan and the distributed setup protocol that builds it.

The plan is negotiated, not computed globally: each rank only inspects its
own owned elements and ghosts, and learns what to send from messages.  The
protocol takes exactly two collective rounds whatever the rank count:

1. counts: every rank tells every other rank how many ghost indices it
   will request from it (zero included);
2. indices: every rank sends each owner one ascending array of global
   indices, a slice of the global column of the owner's run in its ghost
   array (rows sorted by owner, global), read as it stands.

An owner finds the requests in its owned list with one binary search; a
request that lands on no equal element signals a corrupt partition and
raises ``ProtocolError``.

Send lists are kept in ascending global order per destination, and each
peer's receive slots are one range in the same order, so packed buffers line
up end to end without any per-element tags.  A rank plan holds only these
negotiated lists and ranges; counts are their lengths.

The plan also fixes, once, the boundary split of all ranks' stencil rows
(see :class:`HaloPlan`), because it depends on the negotiated send lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ProtocolError
from .partition import DegreeGroup, Partition
from .router import Router


@dataclass
class RankPlan:
    """One rank's view of the exchange.

    ``send_index[peer]`` holds local indices (into the owned region) to
    gather for that peer; ``recv_slot[peer]`` is the range of local ghost
    slots the matching incoming buffer fills.  Peers never include the rank
    itself, and a peer that sends or receives nothing has no entry.
    """

    rank: int
    send_index: dict[int, np.ndarray]
    recv_slot: dict[int, range]


@dataclass
class HaloPlan:
    """Every rank's :class:`RankPlan` and the boundary split of all ranks' stencil rows.

    ``boundary_mask`` marks, over the partition's owned arena block, the
    elements sent to at least one peer, and ``interior_mask`` the rest.
    ``boundary`` and ``interior`` split the partition's stencil rows by that
    mask: per degree group, the block of its masked (unmasked) rows, as a
    :class:`DegreeGroup` whose members and columns are the group's for those
    rows, in the group's order; a group wholly on one side is that side's
    block itself.  Empty blocks are left out.
    """

    nranks: int
    ranks: tuple[RankPlan, ...]
    boundary_mask: np.ndarray
    interior_mask: np.ndarray
    boundary: tuple[DegreeGroup, ...]
    interior: tuple[DegreeGroup, ...]

    def total_sent(self) -> int:
        return sum(len(idx) for rp in self.ranks for idx in rp.send_index.values())


def _split(groups: tuple[DegreeGroup, ...], boundary: np.ndarray
           ) -> tuple[tuple[DegreeGroup, ...], tuple[DegreeGroup, ...]]:
    """The ``boundary`` and ``interior`` blocks of ``groups``, in one pass over them.

    A group whose rows all fall on one side of ``boundary`` is that side's
    block as it stands; a group with rows on both sides is cut into two new
    blocks.  Empty blocks are left out.
    """
    sides: tuple[list[DegreeGroup], list[DegreeGroup]] = ([], [])
    for grp in groups:
        on = boundary[grp.members]
        count = np.count_nonzero(on)
        if count == len(on):
            sides[0].append(grp)
        elif not count:
            sides[1].append(grp)
        else:
            for blocks, rows in zip(sides, (np.flatnonzero(on), np.flatnonzero(~on))):
                blocks.append(DegreeGroup(members=grp.members[rows],
                                          columns=grp.columns.take(rows, axis=1)))
    return tuple(sides[0]), tuple(sides[1])


def build_plan(part: Partition, router: Router) -> HaloPlan:
    """Negotiate the exchange plan over the router (two collective rounds)."""
    if router.nranks != part.nranks:
        raise ProtocolError(
            f"router has {router.nranks} ranks but the partition has {part.nranks}"
        )
    nranks = part.nranks
    boundary = np.zeros(len(part.owner), dtype=bool)  # each rank marks its own block

    def program(rank: int):
        # my ghosts' [global, owner] rows, sorted by (owner, global), so
        # each owner's requests are one run and ascend
        ghosts = part.ghosts[rank]
        gids = ghosts[:, 0]
        bounds = np.searchsorted(ghosts[:, 1], np.arange(nranks + 1)).tolist()
        runs = list(zip(bounds, bounds[1:]))

        peers = [p for p in range(nranks) if p != rank]
        counts_in = yield {p: runs[p][1] - runs[p][0] for p in peers}
        requests_in = yield {p: gids[runs[p][0]:runs[p][1]] for p in peers}

        owned = part.owned[rank]
        sources = list(requests_in)  # ascending
        # every request in one array, source after source (none with one rank)
        wanted = np.concatenate([requests_in[src] for src in sources] or [gids[:0]])
        # one search both finds every request and, by the equality check,
        # proves it owned; a request past the last owned element (or to a
        # rank owning nothing) finds no equal
        idx = np.searchsorted(owned, wanted)
        bad = (owned.take(idx, mode="clip") != wanted if len(owned)
               else np.ones(len(wanted), dtype=bool))
        first_bad = int(bad.argmax()) if bad.any() else len(wanted)
        send_index: dict[int, np.ndarray] = {}
        end = 0
        for src in sources:
            start, end = end, end + len(requests_in[src])
            if end - start != counts_in.get(src, 0):
                raise ProtocolError(
                    f"rank {src} announced {counts_in.get(src, 0)} indices "
                    f"but requested {end - start}"
                )
            if start <= first_bad < end:
                raise ProtocolError(
                    f"corrupt partition: rank {src} asked rank {rank} "
                    f"for element {int(wanted[first_bad])} it does not own"
                )
            if end > start:
                send_index[src] = idx[start:end]

        base = len(owned)
        recv_slot = {p: range(base + a, base + b) for p, (a, b) in enumerate(runs) if b > a}
        boundary[part.owned_base[rank] + idx] = True
        return RankPlan(rank=rank, send_index=send_index, recv_slot=recv_slot)

    plans = router.run(program)
    boundary_blocks, interior_blocks = _split(part.stencil, boundary)
    return HaloPlan(nranks=nranks, ranks=tuple(plans), boundary_mask=boundary,
                    interior_mask=~boundary, boundary=boundary_blocks,
                    interior=interior_blocks)
