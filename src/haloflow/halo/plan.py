"""Halo-exchange plan and the distributed setup protocol that builds it.

The plan is negotiated, not computed globally: each rank only inspects its
own owned elements and ghosts, and learns what to send from messages.  The
protocol takes exactly two collective rounds whatever the rank count:

1. counts: every rank tells every other rank how many ghost indices it
   will request from it (zero included);
2. indices: every rank sends the requested global indices, ascending.

A rank receiving a request for an element it does not own signals a
corrupt partition by raising ``ProtocolError``.

Send lists are kept in ascending global order per destination, and receive
slots are stored in the same order, so packed buffers line up end to end
without any per-element tags.  ``send_counts``/``recv_counts`` plus their
prefix-sum displacement arrays give the flattened variable-size collective
view of the same plan.

Each rank also records its boundary split, because it depends on the
negotiated send lists: ``boundary_mask`` marks the owned elements packed for
at least one peer, and the partition's stencil rows are split by that mask
into two tuples of column-major row blocks, ``boundary`` and ``interior``.
The blocks are materialised once, here, so a step that computes from them
gathers through contiguous rows and derives nothing.
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
    gather for that peer; ``recv_slot[peer]`` holds the local ghost slots
    the matching incoming buffer scatters into.  Peers never include the
    rank itself.  ``boundary_mask`` marks the owned elements sent to at
    least one peer.  ``boundary`` and ``interior`` split the rank's stencil
    rows by that mask: per degree group of the partition, the block of its
    masked (unmasked) rows, as a :class:`DegreeGroup` whose members and
    columns are the group's for those rows, in the group's order.  Empty
    blocks are left out.
    """

    rank: int
    send_index: dict[int, np.ndarray]
    recv_slot: dict[int, np.ndarray]
    send_counts: np.ndarray
    recv_counts: np.ndarray
    send_displs: np.ndarray
    recv_displs: np.ndarray
    boundary_mask: np.ndarray
    boundary: tuple[DegreeGroup, ...]
    interior: tuple[DegreeGroup, ...]

    def boundary_locals(self) -> np.ndarray:
        """Ascending local indices of owned elements sent to at least one peer."""
        return np.flatnonzero(self.boundary_mask)


@dataclass
class HaloPlan:
    nranks: int
    ranks: tuple[RankPlan, ...]

    def total_sent(self) -> int:
        return int(sum(rp.send_counts.sum() for rp in self.ranks))


def _displs(counts: np.ndarray) -> np.ndarray:
    out = np.zeros_like(counts)
    if len(counts) > 1:
        np.cumsum(counts[:-1], out=out[1:])
    return out


def _blocks(groups: tuple[DegreeGroup, ...], mask: np.ndarray) -> tuple[DegreeGroup, ...]:
    """The rows of each group that ``mask`` selects, one non-empty block per group."""
    blocks = []
    for grp in groups:
        rows = np.flatnonzero(mask[grp.members])
        if len(rows):
            blocks.append(DegreeGroup(members=grp.members[rows],
                                      columns=grp.columns.take(rows, axis=1)))
    return tuple(blocks)


def build_plan(part: Partition, router: Router) -> HaloPlan:
    """Negotiate the exchange plan over the router (two collective rounds)."""
    if router.nranks != part.nranks:
        raise ProtocolError(
            f"router has {router.nranks} ranks but the partition has {part.nranks}"
        )
    nranks = part.nranks

    def program(rank: int):
        # group my ghosts by owner; globals ascend per owner because the
        # ghost list is sorted by (owner, global)
        needs: dict[int, list[int]] = {}
        slots: dict[int, list[int]] = {}
        base = part.n_owned(rank)
        for slot, (gid, owner) in enumerate(part.ghosts[rank]):
            needs.setdefault(owner, []).append(gid)
            slots.setdefault(owner, []).append(base + slot)

        peers = [p for p in range(nranks) if p != rank]
        counts_in = yield {p: len(needs.get(p, ())) for p in peers}
        requests_in = yield {p: tuple(needs.get(p, ())) for p in peers}

        owned = part.owned[rank]
        send_index: dict[int, np.ndarray] = {}
        for src in sorted(requests_in):
            wanted = requests_in[src]
            if len(wanted) != counts_in.get(src, 0):
                raise ProtocolError(
                    f"rank {src} announced {counts_in.get(src, 0)} indices "
                    f"but requested {len(wanted)}"
                )
            if not wanted:
                continue
            wanted_arr = np.asarray(wanted, dtype=np.int64)
            bad = ~np.isin(wanted_arr, owned)
            if bad.any():
                raise ProtocolError(
                    f"corrupt partition: rank {src} asked rank {rank} "
                    f"for element {int(wanted_arr[bad][0])} it does not own"
                )
            send_index[src] = np.searchsorted(owned, wanted_arr).astype(np.int64)

        recv_slot = {p: np.asarray(sl, dtype=np.int64) for p, sl in slots.items()}
        send_counts = np.zeros(nranks, dtype=np.int64)
        send_counts[list(send_index)] = [len(idx) for idx in send_index.values()]
        recv_counts = np.zeros(nranks, dtype=np.int64)
        recv_counts[list(recv_slot)] = [len(sl) for sl in recv_slot.values()]
        boundary = np.zeros(len(owned), dtype=bool)
        for idx in send_index.values():
            boundary[idx] = True
        groups = part.stencil[rank]
        return RankPlan(
            rank=rank,
            send_index=send_index,
            recv_slot=recv_slot,
            send_counts=send_counts,
            recv_counts=recv_counts,
            send_displs=_displs(send_counts),
            recv_displs=_displs(recv_counts),
            boundary_mask=boundary,
            boundary=_blocks(groups, boundary),
            interior=_blocks(groups, ~boundary),
        )

    plans = router.run(program)
    return HaloPlan(nranks=nranks, ranks=tuple(plans))
