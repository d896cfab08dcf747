"""Field exchange and stencil execution: values, counters, cost model."""

import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from haloflow import RankMap, ScheduleKind, SimConfig, preset
from haloflow.errors import ConfigurationError, ProtocolError
from haloflow.halo import (
    OverlapMode,
    Partition,
    Router,
    build_plan,
    exchange,
    global_checksum,
    make_fields,
    partition_block,
    quad_mesh,
    random_grid,
    ring,
    run_stencil,
    staged_vs_direct_cost,
    stencil_step,
    step_workspace,
)
from haloflow.halo import engine
from haloflow.halo.engine import _exchange_rounds
from haloflow.halo.partition import _derive_ghosts

from oracles import gather_global, reference_arena_rows


def reference_step(grid, values):
    """Unweighted neighbour mean, accumulating in ascending global order."""
    out = np.empty_like(values)
    for i, row in enumerate(grid.adjacency):
        acc = float(values[row[0]])
        for j in row[1:]:
            acc += float(values[j])
        out[i] = acc / len(row)
    return out


class TestFields:
    def test_local_layout_owned_then_ghosts(self):
        part = partition_block(ring(8), 2)
        fields = make_fields(part, np.arange(8, dtype=float))
        assert fields[0].n_owned == 4
        # every rank's owned block first, then every rank's two ghost slots
        assert [(f.owned, f.ghosts) for f in fields] == [
            (slice(0, 4), slice(8, 10)), (slice(4, 8), slice(10, 12))]
        assert fields.arena.tolist() == [*range(8), 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("init", [np.arange(5.0), np.arange(10.0), np.ones((2, 4)),
                                      np.float64(1.0)],
                             ids=["short", "long", "2-D", "scalar"])
    def test_initial_values_must_be_one_per_element(self, init):
        part = partition_block(ring(8), 2)
        shape = re.escape(f"must have shape (8,), one per grid element; got {init.shape}")
        with pytest.raises(ConfigurationError, match=shape):
            make_fields(part, init)
        with pytest.raises(ConfigurationError, match=shape):
            run_stencil(ring(8), 2, 1, init)


class TestExchange:
    @pytest.mark.parametrize("schedule", list(ScheduleKind))
    def test_ghosts_equal_owner_values(self, schedule):
        g = quad_mesh(6, 6)
        part = partition_block(g, 4)
        router = Router(4)
        plan = build_plan(part, router)
        fields = make_fields(part, np.arange(36, dtype=float) * 1.5)
        exchange(fields, step_workspace(part, plan, schedule=schedule), router)
        for r in range(4):
            ghosts = fields.arena[fields[r].ghosts]
            assert ghosts.tolist() == (part.ghosts[r][:, 0] * 1.5).tolist()
        assert fields.ghosts_fresh

    def test_exchange_marks_ghosts_fresh(self):
        part = partition_block(ring(8), 2)
        router = Router(2)
        plan = build_plan(part, router)
        fields = make_fields(part, np.arange(8, dtype=float))
        assert not fields.ghosts_fresh
        exchange(fields, step_workspace(part, plan), router)
        assert fields.ghosts_fresh


def _reference_round_targets(schedule, rank, p):
    """One rank's per-round ordered targets, written out per schedule: the reference table."""
    if schedule is ScheduleKind.ROTATED_CONCURRENT:
        return [[(k + rank) % p for k in range(p) if (k + rank) % p != rank]]
    if schedule is ScheduleKind.STAGE_SERIALIZED:
        return [[(rank + k + 1) % p] for k in range(p - 1)]
    if schedule is ScheduleKind.PAIRWISE_XOR:
        return [[rank ^ k] for k in range(1, p)]
    return [[j] if (i == rank and j != rank) else [] for i in range(p) for j in range(p)]


class TestExchangeRounds:
    @pytest.mark.parametrize("schedule, p", [
        (kind, p) for kind in ScheduleKind for p in range(1, 17)
        if kind is not ScheduleKind.PAIRWISE_XOR or p & (p - 1) == 0])
    def test_rounds_are_the_reference_table_without_empty_rounds(self, schedule, p):
        table = [_reference_round_targets(schedule, r, p) for r in range(p)]
        busy = [k for k in range(len(table[0])) if any(table[r][k] for r in range(p))]
        rounds = _exchange_rounds(schedule, p)
        assert rounds == tuple(tuple(tuple(table[r][k]) for r in range(p)) for k in busy)

    @pytest.mark.parametrize("schedule", list(ScheduleKind))
    def test_the_cached_value_is_a_tuple_of_tuples(self, schedule):
        rounds = _exchange_rounds(schedule, 4)
        assert _exchange_rounds(schedule, 4) is rounds
        assert type(rounds) is tuple
        assert all(type(targets) is tuple for targets in rounds)
        assert all(type(t) is tuple for targets in rounds for t in targets)

    def test_only_empty_rounds_are_dropped(self):
        assert len(_exchange_rounds(ScheduleKind.LINEAR_SEQUENTIAL, 5)) == 5 * 5 - 5
        assert _exchange_rounds(ScheduleKind.ROTATED_CONCURRENT, 1) == ()
        assert len(_exchange_rounds(ScheduleKind.STAGE_SERIALIZED, 5)) == 4
        assert len(_exchange_rounds(ScheduleKind.PAIRWISE_XOR, 8)) == 7

    def test_pairwise_xor_needs_a_power_of_two(self):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            _exchange_rounds(ScheduleKind.PAIRWISE_XOR, 6)


class TestStencilValues:
    def test_ring_mean_oracle(self):
        fields, part, _plan, _sums = run_stencil(ring(8), 2, 1, np.arange(8, dtype=float))
        assert gather_global(fields, part).tolist() == [4.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 3.0]

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4])
    def test_matches_reference_step(self, nranks):
        g = random_grid(30, 5, seed=8)
        init = np.linspace(-2.0, 3.0, 30)
        expect = reference_step(g, reference_step(g, init))
        fields, part, _plan, _sums = run_stencil(g, nranks, 2, init)
        assert np.array_equal(gather_global(fields, part), expect)

    @pytest.mark.parametrize("mode", list(OverlapMode))
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4])
    def test_blocks_written_through_index_arrays_match_reference_step(self, nranks, mode):
        g = random_grid(60, 8, seed=2)  # degrees 2..8 interleave, so members are not ranges
        init = np.linspace(-2.0, 3.0, 60)
        expect = reference_step(g, reference_step(g, reference_step(g, init)))
        fields, part, _plan, _sums = run_stencil(g, nranks, 3, init, mode=mode)
        assert any(type(grp.rows) is np.ndarray for grp in part.stencil)
        assert gather_global(fields, part).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("mode", list(OverlapMode))
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_partitioning_and_mode_never_change_values(self, mode, nranks):
        g = quad_mesh(8, 8)
        init = np.sin(np.arange(64.0))
        ref_fields, ref_part, _p, _s = run_stencil(g, 1, 4, init)
        ref = gather_global(ref_fields, ref_part)
        fields, part, _p2, _s2 = run_stencil(g, nranks, 4, init, mode=mode)
        assert np.array_equal(gather_global(fields, part), ref)

    @pytest.mark.parametrize("schedule", list(ScheduleKind))
    def test_message_schedule_never_changes_values(self, schedule):
        g = random_grid(24, 4, seed=3)
        init = np.cos(np.arange(24.0))
        ref_fields, ref_part, _p, _s = run_stencil(g, 1, 3, init)
        ref = gather_global(ref_fields, ref_part)
        fields, part, _p2, _s2 = run_stencil(g, 4, 3, init, schedule=schedule)
        assert np.array_equal(gather_global(fields, part), ref)

    @pytest.mark.parametrize("mode", list(OverlapMode))
    def test_thread_router_matches_lockstep(self, mode):
        # rank threads, more than there are cores and switched often, share one
        # arena (each writing only its own ghost range) and one boundary mask
        g = random_grid(40, 5, seed=12)
        init = np.arange(40.0) * 0.25
        a, pa, xa, sa = run_stencil(g, 8, 3, init, mode=mode, router=Router(8, "rounds"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b, pb, xb, sb = run_stencil(g, 8, 3, init, mode=mode, router=Router(8, "threads"))
        finally:
            sys.setswitchinterval(interval)
        assert gather_global(a, pa).tobytes() == gather_global(b, pb).tobytes()
        assert sa == sb
        assert np.array_equal(xa.boundary_mask, xb.boundary_mask)

    def test_checksum_accumulates_in_global_order(self):
        g = ring(8)
        fields, part, _p, sums = run_stencil(g, 4, 1, np.arange(8, dtype=float))
        total = 0.0
        for v in gather_global(fields, part):
            total += float(v)
        assert sums[-1] == total
        assert len(sums) == 1


@st.composite
def _decompositions(draw):
    """A ring, quad or random grid of at most 121 elements, 1..9 ranks, 3..4 steps.

    Three steps at least, so a step that reads or writes the wrong one of a
    field's two alternating arrays shows.
    """
    kind = draw(st.sampled_from(["ring", "quad", "random"]))
    if kind == "ring":
        grid = ring(draw(st.integers(2, 120)))
    elif kind == "quad":
        grid = quad_mesh(draw(st.integers(2, 11)), draw(st.integers(2, 11)))
    else:
        grid = random_grid(draw(st.integers(2, 120)), draw(st.integers(2, 8)),
                           seed=draw(st.integers(0, 2**16)))
    return grid, draw(st.integers(1, min(9, grid.n))), draw(st.integers(3, 4))


def assert_blocks_split_groups(part, plan):
    """The plan's ``boundary`` and ``interior`` blocks split the partition's groups exactly."""
    n = len(part.owner)
    arena_to_global = np.concatenate([*part.owned, *(g[:, 0] for g in part.ghosts)])
    blocks = {}
    for name in ("boundary", "interior"):
        degrees = [blk.degree for blk in getattr(plan, name)]
        assert degrees == sorted(set(degrees)), name  # one block per group, in order
        blocks[name] = {blk.degree: blk for blk in getattr(plan, name)}
    assert set(blocks["boundary"]) | set(blocks["interior"]) == {
        g.degree for g in part.stencil}
    for blk in (*part.stencil, *plan.boundary, *plan.interior):
        # a block is written through a slice exactly when its members are one range
        run = blk.members[-1] - blk.members[0] == len(blk.members) - 1
        if run:
            assert blk.rows == slice(int(blk.members[0]), int(blk.members[-1]) + 1)
        else:
            assert blk.rows is blk.members
    assert plan.boundary_mask.shape == plan.interior_mask.shape == (n,)
    assert (plan.boundary_mask ^ plan.interior_mask).all()
    for grp in part.stencil:
        assert grp.columns.shape == (grp.degree, len(grp.members))
        assert grp.columns.flags.c_contiguous
        assert [list(row) for row in arena_to_global[grp.columns].T] == [
            list(part.grid.adjacency[g]) for g in arena_to_global[grp.members]]
        on = plan.boundary_mask[grp.members]
        for name, rows in (("boundary", np.flatnonzero(on)),
                           ("interior", np.flatnonzero(~on))):
            blk = blocks[name].get(grp.degree)
            if blk is None:  # empty blocks are left out
                assert len(rows) == 0, name
                continue
            assert len(blk.members) and (np.diff(blk.members) > 0).all()
            assert blk.members.tolist() == grp.members[rows].tolist()
            assert blk.columns.flags.c_contiguous
            assert np.array_equal(blk.columns, grp.columns[:, rows])
        b, i = blocks["boundary"].get(grp.degree), blocks["interior"].get(grp.degree)
        if b is not None and i is not None:
            assert not np.intersect1d(b.members, i.members).size
    assert sorted(m for blk in plan.boundary for m in blk.members.tolist()) == (
        np.flatnonzero(plan.boundary_mask).tolist())


class TestRowBlocks:
    @pytest.mark.parametrize("grid, nranks", [
        (ring(9), 8),             # trailing ranks own nothing, none has interior rows
        (quad_mesh(6, 6), 1),     # one rank: no boundary rows
        (quad_mesh(8, 8), 4),
        (random_grid(60, 6, seed=4), 5),
    ])
    def test_boundary_and_interior_split_each_degree_group(self, grid, nranks):
        part = partition_block(grid, nranks)
        assert_blocks_split_groups(part, build_plan(part, Router(nranks)))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_decompositions())
    @example((ring(9), 8, 3))
    @example((quad_mesh(4, 4), 1, 3))
    @example((quad_mesh(2, 5), 9, 3))
    def test_every_mode_and_schedule_equals_the_one_rank_run(self, case):
        grid, nranks, steps = case
        init = np.sin(np.arange(grid.n) * 0.7) + 0.1
        ref_fields, ref_part, _plan, ref_sums = run_stencil(grid, 1, steps, init)
        ref = gather_global(ref_fields, ref_part).tobytes()
        for mode in OverlapMode:
            for schedule in ScheduleKind:
                if schedule is ScheduleKind.PAIRWISE_XOR and nranks & (nranks - 1):
                    continue
                fields, part, plan, sums = run_stencil(grid, nranks, steps, init,
                                                       mode=mode, schedule=schedule)
                assert gather_global(fields, part).tobytes() == ref, (mode, schedule)
                assert sums == ref_sums, (mode, schedule)
        assert_blocks_split_groups(part, plan)


class TestWorkspace:
    @pytest.mark.parametrize("mode", list(OverlapMode))
    def test_run_stencil_alternates_the_two_arenas(self, mode, monkeypatch):
        seen = []

        def checksum(fields, part):
            seen.append(fields.arena)
            return global_checksum(fields, part)

        monkeypatch.setattr(engine, "global_checksum", checksum)
        run_stencil(quad_mesh(8, 8), 4, 5, np.arange(64.0), mode=mode)
        if mode is OverlapMode.NONE:  # updated in place, no spare arena
            assert all(a is seen[0] for a in seen)
            return
        assert seen[1] is not seen[0]
        for k in range(2, len(seen)):
            assert seen[k] is seen[k - 2] and seen[k] is not seen[k - 1]

    @pytest.mark.parametrize("mode", list(OverlapMode))
    def test_buffers_only_where_the_mode_uses_them(self, mode):
        part = partition_block(quad_mesh(6, 6), 3)
        plan = build_plan(part, Router(3))
        ws = step_workspace(part, plan, mode)
        assert (ws.part, ws.plan, ws.mode) == (part, plan, mode)
        assert (ws.spare is None) is (mode is OverlapMode.NONE)
        assert (ws.means is None) is (mode is OverlapMode.INDIRECTION_ARRAY)
        assert part.arena_size == 36 + sum(part.n_ghosts(r) for r in range(3))
        if ws.spare is not None:
            assert ws.spare.shape == (part.arena_size,)
        if ws.means is not None:
            assert ws.means.shape == (36,)


class TestReadCounter:
    @pytest.mark.parametrize("mode", list(OverlapMode))
    def test_reads_advance_by_exactly_the_packed_counts(self, mode):
        g = quad_mesh(8, 8)
        nranks, steps = 4, 3
        fields, part, plan, _sums = run_stencil(g, nranks, steps, np.arange(64.0), mode=mode)
        # overlap modes sync once more at the cold start before the first step
        exchanges = steps if mode is OverlapMode.NONE else steps + 1
        for r in range(nranks):
            expect = exchanges * sum(map(len, plan.ranks[r].send_index.values()))
            assert fields[r].reads == expect

    def test_a_mask_array_step_after_a_none_step_resyncs_once(self):
        g = quad_mesh(6, 6)
        part = partition_block(g, 3)
        router = Router(3)
        plan = build_plan(part, router)
        fields = make_fields(part, np.arange(36.0))
        sent = [sum(map(len, rp.send_index.values())) for rp in plan.ranks]
        stencil_step(fields, step_workspace(part, plan, OverlapMode.NONE), router)
        assert not fields.ghosts_fresh
        assert [f.reads for f in fields] == sent
        stencil_step(fields, step_workspace(part, plan, OverlapMode.MASK_ARRAY), router)
        assert fields.ghosts_fresh
        # the stale ghosts' re-sync, then the step's own boundary exchange
        assert [f.reads for f in fields] == [3 * n for n in sent]
        one_fields, one_part, _plan, _sums = run_stencil(g, 1, 2, np.arange(36.0))
        assert (gather_global(fields, part).tolist()
                == gather_global(one_fields, one_part).tolist())


class TestStagedVersusDirect:
    def test_staged_transfers_cost_more(self):
        part = partition_block(quad_mesh(16, 16), 4)
        plan = build_plan(part, Router(4))
        topo = preset("dgx1v")
        staged, direct = staged_vs_direct_cost(
            part, plan, 8.0, topo, RankMap.identity(4), SimConfig()
        )
        assert staged > direct > 0.0

    def test_cost_scales_with_element_size(self):
        part = partition_block(quad_mesh(16, 16), 4)
        plan = build_plan(part, Router(4))
        topo = preset("dgx1v")
        cfg = SimConfig(alpha_intra=0.0, alpha_inter=0.0)
        s1, d1 = staged_vs_direct_cost(part, plan, 8.0, topo, RankMap.identity(4), cfg)
        s2, d2 = staged_vs_direct_cost(part, plan, 16.0, topo, RankMap.identity(4), cfg)
        assert s2 == pytest.approx(2 * s1, rel=1e-12)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)


def _owners(layout, n, nranks):
    """Owner of each element: blocks in rank order, blocks in reverse, or round robin."""
    block = -(-n // nranks)
    if layout == "block":
        return np.arange(n) // block
    if layout == "reversed":  # ranges, but rank 0 owns the upper end
        return nranks - 1 - np.arange(n) // block
    return np.arange(n) % nranks


def _loop_assembly(fields, part):
    """Owned values scattered into global order through the owned indices."""
    out = np.full(len(part.owner), np.nan)
    for r in range(part.nranks):
        out[part.owned[r]] = fields.arena[fields[r].owned]
    return out


class TestLayouts:
    """Partitions not in rank order take the scatter path and agree bit for bit."""

    @pytest.mark.parametrize("layout, ordered", [
        ("block", True), ("reversed", False), ("round_robin", False)])
    @pytest.mark.parametrize("grid", [quad_mesh(6, 6), random_grid(40, 5, seed=12)])
    def test_steps_gather_and_checksum(self, layout, ordered, grid):
        nranks = 3
        owner = _owners(layout, grid.n, nranks)
        part = _derive_ghosts(grid, owner, [np.flatnonzero(owner == r) for r in range(nranks)],
                              nranks)
        assert part.rank_ordered is ordered
        init = np.sin(np.arange(grid.n) * 0.3)
        for mode in OverlapMode:
            router = Router(nranks)
            workspace = step_workspace(part, build_plan(part, router), mode)
            fields = make_fields(part, init)
            expect = init
            for _ in range(3):
                stencil_step(fields, workspace, router)
                expect = reference_step(grid, expect)
                got = gather_global(fields, part)
                assert got.tobytes() == expect.tobytes(), mode
                assert got.tobytes() == _loop_assembly(fields, part).tobytes(), mode
                assert global_checksum(fields, part) == _loop_sum(expect.tolist()), mode


@st.composite
def _owned_grids(draw):
    """A ring, quad or random grid of at most 100 elements, 1..6 ranks and an owner layout."""
    kind = draw(st.sampled_from(["ring", "quad", "random"]))
    if kind == "ring":
        grid = ring(draw(st.integers(2, 100)))
    elif kind == "quad":
        grid = quad_mesh(draw(st.integers(2, 10)), draw(st.integers(2, 10)))
    else:
        grid = random_grid(draw(st.integers(2, 100)), draw(st.integers(2, 8)),
                           seed=draw(st.integers(0, 2**16)))
    nranks = draw(st.integers(1, min(6, grid.n)))
    return grid, nranks, draw(st.sampled_from(["block", "reversed", "round_robin"]))


class TestArena:
    """All ranks in one arena: rows equal the loop oracle, each rank stays in its own ranges."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_owned_grids())
    @example((ring(9), 6, "block"))              # trailing ranks own nothing
    @example((quad_mesh(2, 5), 3, "round_robin"))
    @example((random_grid(40, 6, seed=3), 4, "reversed"))
    def test_rows_ranges_and_checksums(self, case):
        grid, nranks, layout = case
        owner = _owners(layout, grid.n, nranks)
        part = _derive_ghosts(grid, owner, [np.flatnonzero(owner == r) for r in range(nranks)],
                              nranks)
        want = reference_arena_rows(grid, part.owned, part.ghosts)
        assert [grp.degree for grp in part.stencil] == list(want)
        for grp in part.stencil:
            assert grp.members.tolist() == want[grp.degree][0]
            assert grp.columns.tolist() == want[grp.degree][1]

        owned, ghosts = np.array(part.owned_base), np.array(part.ghost_base)
        assert ghosts[0] == owned[-1] == grid.n and ghosts[-1] == part.arena_size

        def inside(positions, bounds, r):
            return (bounds[r] <= positions) & (positions < bounds[r + 1])

        rank_of = np.repeat(np.arange(nranks), np.diff(owned))  # of each owned position
        for grp in part.stencil:
            r = rank_of[grp.members]
            assert (inside(grp.columns, owned, r) | inside(grp.columns, ghosts, r)).all()
        ws = step_workspace(part, build_plan(part, Router(nranks)))
        for r in range(nranks):
            for outgoing in ws.sends[r]:
                assert all(inside(pos, owned, r).all() for _dst, pos in outgoing)
            # the receive ranges tile the rank's ghost slots end to end
            recv = sorted((sl.start, sl.stop) for sl in ws.recv[r].values())
            assert [ghosts[r], *(b for _a, b in recv)] == [*(a for a, _b in recv), ghosts[r + 1]]

        init = np.sin(np.arange(grid.n) * 0.7) + 0.1
        _f, _p, _plan, ref_sums = run_stencil(grid, 1, 3, init)
        for router_mode in ("rounds", "threads"):
            for mode in OverlapMode:
                router = Router(nranks, router_mode)
                workspace = step_workspace(part, build_plan(part, router), mode)
                fields = make_fields(part, init)
                sums = []
                for _ in range(3):
                    stencil_step(fields, workspace, router)
                    sums.append(global_checksum(fields, part))
                assert sums == ref_sums, (router_mode, mode)


class TestGather:
    def test_round_trip(self):
        g = quad_mesh(5, 5)
        part = partition_block(g, 3)
        init = np.arange(25.0) ** 2
        fields = make_fields(part, init)
        assert np.array_equal(gather_global(fields, part), init)
        assert global_checksum(fields, part) == sum(float(v) for v in init)


# Summands that stress a fixed-order float sum: signed zeros, subnormals,
# values near the overflow threshold, and ordinary magnitudes.
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 1e-16]
_SUMMAND = st.one_of(
    st.sampled_from(_EDGE),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
)


@st.composite
def _summands(draw):
    """1..5000 values, optionally followed or interleaved by their negations."""
    base = draw(st.lists(_SUMMAND, min_size=1, max_size=2500))
    shape = draw(st.sampled_from(["plain", "mirrored", "interleaved"]))
    if shape == "mirrored":
        return base + [-v for v in reversed(base)]
    if shape == "interleaved":
        return [x for v in base for x in (v, -v)]
    return base


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestChecksum:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_summands(), st.integers(1, 4), st.sampled_from(["block", "reversed", "round_robin"]))
    @example([-0.0], 1, "block")
    @example([-0.0, -0.0, -0.0], 2, "block")
    @example([1e308, 1e308, -1e308], 1, "block")
    @example([1e308, 1e308, -1e308, -1e308], 3, "block")
    @example([1.0, 1e-16, 1e-16, -1.0], 2, "block")
    @example([-0.0, -0.0, -0.0], 2, "reversed")
    @example([1e308, 1e308, -1e308, -1e308], 3, "round_robin")
    @example([1.0, 1e-16, 1e-16, -1.0], 2, "reversed")
    def test_equals_left_to_right_loop(self, values, nranks, layout):
        n = len(values)
        nranks = min(nranks, n)
        owner = _owners(layout, n, nranks)
        # the checksum reads owned values only; an edgeless grid (which
        # GlobalGrid rejects) keeps one-element sums in the domain
        edgeless = SimpleNamespace(n=n, indptr=np.zeros(n + 1, dtype=np.int64),
                                   indices=np.empty(0, dtype=np.int64))
        part = Partition(
            grid=edgeless,
            nranks=nranks,
            owner=owner,
            owned=tuple(np.flatnonzero(owner == r) for r in range(nranks)),
            ghosts=((),) * nranks,
        )
        fields = make_fields(part, np.array(values))
        assert gather_global(fields, part).tobytes() == np.array(values).tobytes()
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is part of the domain
            got = global_checksum(fields, part)
        assert type(got) is float
        assert repr(got) == repr(_loop_sum(values))


class TestStencilRows:
    def test_missing_ghost_is_a_protocol_error(self):
        grid = ring(8)
        part = partition_block(grid, 2)
        # forge rank 0's ghost list without element 7, a neighbour of element 0
        with pytest.raises(ProtocolError, match="rank 0 has a neighbour that is neither"):
            Partition(grid=grid, nranks=2, owner=part.owner, owned=part.owned,
                      ghosts=(((4, 1),), part.ghosts[1]))
        # and rank 1's without element 3, which rank 0, looked up before it, owns
        with pytest.raises(ProtocolError, match="rank 1 has a neighbour that is neither"):
            Partition(grid=grid, nranks=2, owner=part.owner, owned=part.owned,
                      ghosts=(part.ghosts[0], ((0, 0),)))

    def test_missing_ghost_of_a_later_rank_is_a_protocol_error(self):
        # quad 4x4 over 4 ranks, one row each: rank 1 holds element 0 (rank
        # 0's) as a ghost before rank 3, whose forged list leaves it out
        grid = quad_mesh(4, 4)
        part = partition_block(grid, 4)
        assert 0 in part.ghosts[1][:, 0] and 0 in part.ghosts[3][:, 0]
        forged = part.ghosts[:3] + (part.ghosts[3][part.ghosts[3][:, 0] != 0],)
        with pytest.raises(ProtocolError, match="rank 3 has a neighbour that is neither"):
            Partition(grid=grid, nranks=4, owner=part.owner, owned=part.owned, ghosts=forged)

    def test_two_grids_of_equal_size_get_their_own_partitions(self):
        init = np.arange(8.0) ** 2
        for grid in (ring(8), quad_mesh(2, 4), ring(8), quad_mesh(4, 2)):
            part = partition_block(grid, 1)
            router = Router(1)
            fields = make_fields(part, init)
            stencil_step(fields, step_workspace(part, build_plan(part, router)), router)
            assert np.array_equal(gather_global(fields, part), reference_step(grid, init))
