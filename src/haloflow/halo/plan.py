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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ProtocolError
from .partition import Partition
from .router import Router


@dataclass
class RankPlan:
    """One rank's view of the exchange.

    ``send_index[peer]`` holds local indices (into the owned region) to
    gather for that peer; ``recv_slot[peer]`` holds the local ghost slots
    the matching incoming buffer scatters into.  Peers never include the
    rank itself.
    """

    rank: int
    send_index: dict[int, np.ndarray]
    recv_slot: dict[int, np.ndarray]
    send_counts: np.ndarray
    recv_counts: np.ndarray
    send_displs: np.ndarray
    recv_displs: np.ndarray

    def boundary_locals(self) -> np.ndarray:
        """Ascending local indices of owned elements sent to at least one peer."""
        if not self.send_index:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(list(self.send_index.values())))


@dataclass
class HaloPlan:
    nranks: int
    ranks: tuple[RankPlan, ...]
    # per-rank stencil workspaces attach here lazily; see engine._stencil_ws
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def total_sent(self) -> int:
        return int(sum(rp.send_counts.sum() for rp in self.ranks))


def _displs(counts: np.ndarray) -> np.ndarray:
    out = np.zeros_like(counts)
    if len(counts) > 1:
        np.cumsum(counts[:-1], out=out[1:])
    return out


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
            if len(owned) == 0:
                raise ProtocolError(
                    f"corrupt partition: rank {src} asked rank {rank} (which owns nothing) "
                    f"for element {int(wanted_arr[0])}"
                )
            locs = np.searchsorted(owned, wanted_arr)
            bad = (locs >= len(owned)) | (owned[np.minimum(locs, len(owned) - 1)] != wanted_arr)
            if bad.any():
                missing = int(wanted_arr[bad][0])
                raise ProtocolError(
                    f"corrupt partition: rank {src} asked rank {rank} "
                    f"for element {missing} it does not own"
                )
            send_index[src] = locs.astype(np.int64)

        recv_slot = {
            p: np.asarray(sl, dtype=np.int64) for p, sl in slots.items()
        }
        send_counts = np.zeros(nranks, dtype=np.int64)
        for p, idx in send_index.items():
            send_counts[p] = len(idx)
        recv_counts = np.zeros(nranks, dtype=np.int64)
        for p, sl in recv_slot.items():
            recv_counts[p] = len(sl)
        return RankPlan(
            rank=rank,
            send_index=send_index,
            recv_slot=recv_slot,
            send_counts=send_counts,
            recv_counts=recv_counts,
            send_displs=_displs(send_counts),
            recv_displs=_displs(recv_counts),
        )

    plans = router.run(program)
    return HaloPlan(nranks=nranks, ranks=tuple(plans))


def ensure_plan(part: Partition, router: Router) -> HaloPlan:
    """Plan for ``part``, negotiated once and cached on the partition object.

    The cache key is the partition's identity: repartitioning produces a new
    object and therefore a fresh negotiation, while repeated steps on the
    same partition reuse the plan without extra protocol rounds.
    """
    cached = getattr(part, "_plan_cache", None)
    if cached is None:
        cached = build_plan(part, router)
        part._plan_cache = cached  # type: ignore[attr-defined]
    return cached
