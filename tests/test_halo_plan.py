"""Exchange-plan construction over the rank router."""

import re
import threading
from dataclasses import replace
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haloflow import ProtocolError, ScheduleKind
from haloflow.halo import (
    Partition,
    Router,
    build_plan,
    exchange,
    make_fields,
    partition_block,
    quad_mesh,
    random_grid,
    ring,
    run_stencil,
    step_workspace,
)
from haloflow.halo.engine import _rank_sends

from oracles import reference_blocks


MODES = ("rounds", "threads")


class Boom(RuntimeError):
    pass


def _one_round_program(rank):
    yield {}
    return rank


def _desync_program(rank):
    yield {}
    if rank == 0:
        yield {}  # one rank runs an extra round
    return rank


def _rank_1_fails_program(rank):
    yield {}
    if rank == 1:
        raise Boom("rank 1 failed")
    yield {}
    return rank


class TestRouter:
    @pytest.mark.parametrize("mode", MODES)
    def test_round_count_is_two_for_plan_build(self, mode):
        part = partition_block(ring(8), 2)
        router = Router(2, mode)
        before = router.rounds_executed
        build_plan(part, router)
        assert router.rounds_executed - before == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_one_exchange_counts_its_schedule_rounds(self, mode):
        part = partition_block(quad_mesh(6, 6), 4)
        ws = step_workspace(part, build_plan(part, Router(4)),
                            schedule=ScheduleKind.PAIRWISE_XOR)
        router = Router(4, mode)
        exchange(make_fields(part, np.arange(36.0)), ws, router)
        assert router.rounds_executed == len(ws.sends[0]) > 1

    def test_modes_agree(self):
        nranks = 4

        def factory(rank):
            def program():
                inbox = yield {(rank + 1) % nranks: rank * 10}
                inbox2 = yield {(rank - 1) % nranks: sum(inbox.values())}
                return (sorted(inbox.items()), sorted(inbox2.items()))
            return program()

        a = Router(nranks, "rounds").run(factory)
        b = Router(nranks, "threads").run(factory)
        assert a == b

    @pytest.mark.parametrize("mode", MODES)
    def test_desync_detected(self, mode):
        text = "desynchronized rank programs: [1] finished while [0] still exchange"
        with pytest.raises(ProtocolError, match=re.escape(text)):
            Router(2, mode).run(_desync_program)

    @pytest.mark.parametrize("mode", MODES)
    def test_peer_error_propagates(self, mode):
        with pytest.raises(Boom):
            Router(3, mode).run(_rank_1_fails_program)

    @pytest.mark.parametrize("mode", MODES)
    def test_lowest_failing_rank_wins_a_round(self, mode):
        rank_2_failed = threading.Event()

        def program(rank):
            yield {}
            if rank == 1:
                if mode == "threads":  # let rank 2 fail first in time
                    rank_2_failed.wait(0.2)
                raise Boom("rank 1 failed")
            if rank == 2:
                rank_2_failed.set()
                raise Boom("rank 2 failed")
            yield {}

        with pytest.raises(Boom, match="rank 1 failed"):
            Router(3, mode).run(program)

    @pytest.mark.parametrize("mode", MODES)
    def test_error_before_the_first_yield_propagates(self, mode):
        def program(rank):
            if rank == 1:
                raise Boom("rank 1 failed before its first yield")
            yield {}

        with pytest.raises(Boom, match="before its first yield"):
            Router(2, mode).run(program)

    def test_send_to_missing_rank_rejected(self):
        def factory(rank):
            def program():
                yield {99: b"x"}
                return None
            return program()

        with pytest.raises(ProtocolError):
            Router(2).run(factory)

    def test_bad_mode_and_size(self):
        with pytest.raises(ProtocolError):
            Router(0)
        with pytest.raises(ProtocolError):
            Router(2, "fibers")


class TestThreadsModeLeavesNoThread:
    """After a ``threads``-mode run returns or raises, no rank thread is left."""

    def test_run_that_returns(self):
        before = threading.active_count()
        assert Router(3, "threads").run(_one_round_program) == [0, 1, 2]
        assert threading.active_count() == before

    def test_run_that_raises_a_peer_error(self):
        before = threading.active_count()
        with pytest.raises(Boom):
            Router(3, "threads").run(_rank_1_fails_program)
        assert threading.active_count() == before

    def test_run_that_desyncs(self):
        before = threading.active_count()
        with pytest.raises(ProtocolError, match="desynchronized"):
            Router(2, "threads").run(_desync_program)
        assert threading.active_count() == before

    def test_run_stencil(self):
        before = threading.active_count()
        run_stencil(quad_mesh(6, 6), 4, 3, np.arange(36.0), router=Router(4, "threads"))
        assert threading.active_count() == before


class TestPlanOracles:
    def test_ring_two_ranks(self):
        part = partition_block(ring(8), 2)
        assert part.owned[0].tolist() == [0, 1, 2, 3]
        assert part.ghosts[0].tolist() == [[4, 1], [7, 1]]
        plan = build_plan(part, Router(2))
        assert plan.ranks[0].send_index[1].tolist() == [0, 3]
        assert plan.ranks[1].send_index[0].tolist() == [0, 3]
        # ghost slots sit after the owned block, ordered like the ghost list
        assert plan.ranks[0].recv_slot[1] == range(4, 6)

    def test_send_lists_ascend_in_global_order(self):
        part = partition_block(quad_mesh(8, 8), 4)
        plan = build_plan(part, Router(4))
        for r in range(4):
            for dst, idx in plan.ranks[r].send_index.items():
                glob = part.owned[r][idx]
                assert np.all(np.diff(glob) > 0)

    def test_total_sent_matches_ghost_total(self):
        part = partition_block(quad_mesh(10, 10), 5)
        plan = build_plan(part, Router(5))
        assert plan.total_sent() == sum(part.n_ghosts(r) for r in range(5))

    def test_boundary_locals_are_senders(self):
        part = partition_block(ring(12), 3)
        plan = build_plan(part, Router(3))
        for r in range(3):
            rp = plan.ranks[r]
            expect = sorted({i for idx in rp.send_index.values() for i in idx.tolist()})
            own = slice(part.owned_base[r], part.owned_base[r + 1])
            assert np.flatnonzero(plan.boundary_mask[own]).tolist() == expect


class TestProtocolHardening:
    def test_corrupt_ownership_claims_are_caught(self):
        part = partition_block(ring(8), 2)
        # forge rank 0's ghost list to request element 3 (its own) from rank 1
        bad = Partition(
            grid=part.grid,
            nranks=2,
            owner=part.owner,
            owned=part.owned,
            ghosts=(((3, 1), (4, 1), (7, 1)), part.ghosts[1]),
        )
        with pytest.raises(ProtocolError, match="does not own"):
            build_plan(bad, Router(2))

    def test_empty_owner_cannot_serve_requests(self):
        part = partition_block(ring(9), 8)  # ranks 5..7 own nothing
        bad_ghosts = list(part.ghosts)
        bad_ghosts[0] = (*map(tuple, bad_ghosts[0].tolist()), (8, 7))  # rank 7 owns nothing
        bad = Partition(
            grid=part.grid, nranks=8, owner=part.owner, owned=part.owned,
            ghosts=tuple(bad_ghosts),
        )
        with pytest.raises(ProtocolError):
            build_plan(bad, Router(8))

    def test_request_past_the_owners_last_element_is_caught(self):
        part = partition_block(ring(9), 3)  # rank 1 owns 3..5
        bad = Partition(grid=part.grid, nranks=3, owner=part.owner, owned=part.owned,
                        ghosts=(((3, 1), (6, 1), (8, 2)), part.ghosts[1], part.ghosts[2]))
        with pytest.raises(ProtocolError, match="asked rank 1 for element 6 it does not own"):
            build_plan(bad, Router(3))


class _DroppingRouter(Router):
    """Drops the last index rank 1 requests from rank 0 in the second round of a run."""

    def run(self, program_factory):
        def tampered(rank):
            gen = program_factory(rank)
            outbox = next(gen)
            for round_no in count():
                if rank == 1 and round_no == 1:
                    outbox = {**outbox, 0: outbox[0][:-1]}
                try:
                    outbox = gen.send((yield outbox))
                except StopIteration as stop:
                    return stop.value
        return super().run(tampered)


def _with_rank_plan(plan, rank, **changes):
    ranks = list(plan.ranks)
    ranks[rank] = replace(ranks[rank], **changes)
    return replace(plan, ranks=tuple(ranks))


def _exchange_by_hand(part, plan, rounds, router):
    """Run ``exchange`` over hand-made ``rounds`` on every rank."""
    sends, packed = zip(*(_rank_sends(rp, part.owned_base[rp.rank], rounds)
                          for rp in plan.ranks))
    workspace = replace(step_workspace(part, plan), sends=sends, packed=packed)
    exchange(make_fields(part, np.arange(float(part.grid.n))), workspace, router)


@pytest.mark.parametrize("mode", ["rounds", "threads"])
class TestProtocolChecks:
    """Each check of the plan protocol and of an exchange raises its own message."""

    def test_announced_count_must_match_the_request(self, mode):
        part = partition_block(ring(8), 2)
        with pytest.raises(ProtocolError, match="rank 1 announced 2 indices but requested 1"):
            build_plan(part, _DroppingRouter(2, mode))

    def test_buffer_of_the_wrong_length(self, mode):
        part = partition_block(ring(8), 4)
        plan = build_plan(part, Router(4))
        forged = _with_rank_plan(plan, 1, send_index={0: np.array([0, 1]), 2: np.array([1])})
        fields = make_fields(part, np.arange(8.0))
        with pytest.raises(ProtocolError, match="rank 0 got 2 values from 1, expected 1"):
            exchange(fields, step_workspace(part, forged), Router(4, mode))

    def test_unexpected_sender(self, mode):
        part = partition_block(ring(8), 4)
        plan = build_plan(part, Router(4))
        forged = _with_rank_plan(plan, 2, send_index={**plan.ranks[2].send_index,
                                                      0: np.array([0])})
        fields = make_fields(part, np.arange(8.0))
        with pytest.raises(ProtocolError, match="rank 0 got 1 values from 2, expected 0"):
            exchange(fields, step_workspace(part, forged), Router(4, mode))

    def test_received_twice_across_rounds(self, mode):
        part = partition_block(ring(8), 2)
        plan = build_plan(part, Router(2))
        rounds = (((1,), (0,)), ((), (0,)))
        with pytest.raises(ProtocolError, match="rank 0 received twice from 1"):
            _exchange_by_hand(part, plan, rounds, Router(2, mode))

    def test_never_heard_from(self, mode):
        part = partition_block(ring(8), 2)
        plan = build_plan(part, Router(2))
        with pytest.raises(ProtocolError, match=re.escape("rank 0 never heard from peers [1]")):
            _exchange_by_hand(part, plan, (((1,), ()),), Router(2, mode))

    def test_hand_made_rounds_that_follow_the_plan_pass(self, mode):
        part = partition_block(ring(8), 2)
        plan = build_plan(part, Router(2))
        _exchange_by_hand(part, plan, (((1,), ()), ((), (0,))), Router(2, mode))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    st.integers(8, 64),
    st.integers(2, 6),
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 4, 8]),
)
def test_plan_symmetry_random_grids(n, maxdeg, seed, nranks):
    g = random_grid(n, maxdeg, seed=seed)
    nranks = min(nranks, n)
    part = partition_block(g, nranks)
    plan = build_plan(part, Router(nranks))
    for a in range(nranks):
        for b, idx in plan.ranks[a].send_index.items():
            # what a sends to b is exactly what b expects from a, in order
            sent_globals = part.owned[a][idx]
            expect = [g0 for g0, owner in part.ghosts[b] if owner == a]
            assert sent_globals.tolist() == expect


@pytest.mark.parametrize("grid", [ring(12), quad_mesh(2, 5), quad_mesh(9, 7),
                                  random_grid(60, 6, seed=4), random_grid(90, 8, seed=1)],
                         ids=["ring12", "quad2x5", "quad9x7", "random60d6", "random90d8"])
@pytest.mark.parametrize("nranks", range(1, 10))
def test_row_blocks_equal_the_two_pass_reference(grid, nranks):
    """Each side's blocks are the per-side reference's, array for array."""
    part = partition_block(grid, nranks)
    plan = build_plan(part, Router(nranks))
    for blocks, mask in ((plan.boundary, plan.boundary_mask),
                         (plan.interior, plan.interior_mask)):
        want = reference_blocks(part.stencil, mask)
        assert len(blocks) == len(want)
        for got, ref in zip(blocks, want):
            assert got.members.dtype == ref.members.dtype
            assert got.columns.dtype == ref.columns.dtype and got.columns.flags.c_contiguous
            assert np.array_equal(got.members, ref.members)
            assert np.array_equal(got.columns, ref.columns)
            assert (got.rows == ref.rows if isinstance(ref.rows, slice)
                    else np.array_equal(got.rows, ref.rows))
