"""Grid builders and block partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haloflow import ConfigurationError, ScenarioError
from haloflow.halo import (GlobalGrid, Partition, Router, build_plan, partition_block, quad_mesh,
                           random_grid, ring)
from haloflow.halo.grid import MAX_MESH_ELEMENTS, check_quad_mesh, check_ring
from haloflow.halo.partition import _derive_ghosts

from oracles import reference_ghosts, reference_quad_mesh, reference_random_grid, reference_ring


def csr(rows):
    """``GlobalGrid`` from per-element neighbour lists."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return GlobalGrid(indptr, [j for r in rows for j in r])


class TestGridValidation:
    def test_mesh_size_bound(self):
        check_ring(MAX_MESH_ELEMENTS)
        check_quad_mesh(2048, 2048)
        for check, args in ((check_ring, (MAX_MESH_ELEMENTS + 1,)), (check_quad_mesh, (2049, 2048)),
                            (ring, (10**11,)), (quad_mesh, (10**5, 10**5))):
            with pytest.raises(ScenarioError, match="at most 4194304 elements") as err:
                check(*args)
            assert err.value.path == "grid"

    def test_rows_must_be_sorted_unique_in_range(self):
        with pytest.raises(ConfigurationError, match="element 1 must be ascending and unique"):
            csr(((1, 2), (0, 0), (0, 1)))
        with pytest.raises(ConfigurationError, match="element 0 must be ascending and unique"):
            csr(((2, 1), (0,), (0,)))
        with pytest.raises(ConfigurationError, match="element 0 has out-of-range neighbour 3"):
            csr(((3,), (0,), (1,)))
        with pytest.raises(ConfigurationError, match="element 1 has out-of-range neighbour -1"):
            csr(((1,), (-1,)))

    def test_no_self_neighbours_or_empty_rows(self):
        with pytest.raises(ConfigurationError, match="element 0 lists itself as neighbour"):
            csr(((0,), (0,)))
        with pytest.raises(ConfigurationError, match="element 1 has no neighbours"):
            csr(((1,), ()))

    def test_first_bad_element_and_first_rule_are_reported(self):
        # element 1 is both unsorted and self-referencing; element 2 is empty
        with pytest.raises(ConfigurationError, match="element 1 must be ascending and unique"):
            csr(((1,), (1, 0), ()))

    def test_indptr_must_cover_indices(self):
        for indptr, indices in (([0], []), ([1, 2], [1, 0]), ([0, 2, 1], [1, 0]),
                                ([0, 1, 3], [1, 0]), ([[0, 1]], [1])):
            with pytest.raises(ConfigurationError, match="must list every element"):
                GlobalGrid(indptr, indices)

    def test_arrays_are_int64_and_read_only(self):
        g = csr(((1,), (0,)))
        assert g.indptr.dtype == g.indices.dtype == np.int64
        with pytest.raises(ValueError):
            g.indices[0] = 0
        assert g.n == 2 and g.adjacency == ((1,), (0,))

    def test_read_only_int64_arrays_are_kept_and_others_copied(self):
        indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
        g = GlobalGrid(indptr, indices)
        assert g.indptr is not indptr and g.indices is not indices
        indices[0] = 0  # the caller's writable array stays the caller's
        assert indptr.flags.writeable and g.indices.tolist() == [1, 0]
        indices = np.array([1, 0])
        for a in (indptr, indices):
            a.setflags(write=False)
        g = GlobalGrid(indptr, indices)
        assert g.indptr is indptr and g.indices is indices
        assert GlobalGrid(indptr, indices.astype(np.int32)).indices.dtype == np.int64

    def test_first_bad_element_past_the_narrow_row_types(self):
        # 70 000 elements: each entry's row is held as int32, not int16
        g = ring(70000)
        indices = g.indices.copy()
        row = slice(2 * 65540, 2 * 65540 + 2)  # element 65540 lists 65539, 65541
        for nbrs, message in (((65540, 65541), "lists itself as neighbour"),
                              ((-1, 65541), "has out-of-range neighbour -1"),
                              ((65539, 70000), "has out-of-range neighbour 70000"),
                              ((65541, 65539), "must be ascending and unique")):
            indices[row] = nbrs
            with pytest.raises(ConfigurationError, match=f"element 65540 {message}"):
                GlobalGrid(g.indptr, indices)


class TestBuilders:
    def test_ring_neighbours(self):
        g = ring(5)
        assert g.adjacency[0] == (1, 4)
        assert g.adjacency[2] == (1, 3)
        assert g.max_degree == 2

    def test_two_element_ring_collapses_duplicates(self):
        g = ring(2)
        assert g.adjacency == ((1,), (0,))

    def test_quad_mesh_periodic_neighbours(self):
        g = quad_mesh(3, 3)
        # element 4 is the centre: all four axis neighbours
        assert g.adjacency[4] == (1, 3, 5, 7)
        # element 0 wraps both ways
        assert g.adjacency[0] == (1, 2, 3, 6)
        assert g.max_degree == 4

    def test_tiny_quad_mesh_deduplicates_wrap(self):
        g = quad_mesh(2, 2)
        assert g.adjacency[0] == (1, 2)
        assert g.max_degree == 2

    def test_size_floors(self):
        with pytest.raises(ConfigurationError):
            ring(1)
        with pytest.raises(ConfigurationError):
            quad_mesh(1, 4)
        with pytest.raises(ConfigurationError):
            random_grid(1, 2, seed=0)
        with pytest.raises(ConfigurationError):
            random_grid(8, 1, seed=0)


def assert_same_grid(got, want):
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int64 and not a.flags.writeable, name
        assert a.shape == b.shape and (a == b).all(), name


class TestClosedFormBuilders:
    """The closed-form builders equal the sorted-rows references entry for entry."""

    @pytest.mark.parametrize("nx", range(2, 21))
    def test_quad_mesh_equals_the_sorted_reference(self, nx):
        for ny in range(2, 21):
            assert_same_grid(quad_mesh(nx, ny), reference_quad_mesh(nx, ny))

    @pytest.mark.parametrize("nx, ny", [(100, 100), (160, 160), (2, 160), (160, 2), (3, 97)])
    def test_large_and_thin_quad_meshes_equal_the_sorted_reference(self, nx, ny):
        assert_same_grid(quad_mesh(nx, ny), reference_quad_mesh(nx, ny))

    def test_ring_equals_the_sorted_reference(self):
        for n in (*range(2, 41), 1000):
            assert_same_grid(ring(n), reference_ring(n))


class TestRandomGrid:
    def test_deterministic_per_seed(self):
        a = random_grid(40, 5, seed=3)
        b = random_grid(40, 5, seed=3)
        assert a.adjacency == b.adjacency

    def test_seeds_differ(self):
        a = random_grid(40, 5, seed=3)
        b = random_grid(40, 5, seed=4)
        assert a.adjacency != b.adjacency

    @pytest.mark.parametrize("seed", [0, 1, 2, 9, 17])
    def test_connected_within_degree_cap(self, seed):
        g = random_grid(60, 4, seed=seed)
        assert g.max_degree <= 4
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in g.adjacency[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        assert len(seen) == 60

    def test_symmetry(self):
        g = random_grid(50, 6, seed=11)
        for i, row in enumerate(g.adjacency):
            for j in row:
                assert i in g.adjacency[j]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(2, 400), st.integers(2, 9), st.integers())
    def test_equals_the_loop_reference(self, n, max_degree, seed):
        got = random_grid(n, max_degree, seed)
        want = reference_random_grid(n, max_degree, seed)
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()

    def test_large_grid_equals_the_loop_reference(self):
        assert random_grid(1000, 8, 1).adjacency == reference_random_grid(1000, 8, 1).adjacency


class TestPartition:
    def test_block_sizes_ceil_then_remainder(self):
        part = partition_block(ring(10), 4)
        assert [part.n_owned(r) for r in range(4)] == [3, 3, 3, 1]
        assert part.owner.tolist() == [0] * 3 + [1] * 3 + [2] * 3 + [3]

    def test_owned_lists_match_owner_array(self):
        part = partition_block(quad_mesh(4, 4), 3)
        for r in range(3):
            assert np.array_equal(np.flatnonzero(part.owner == r), part.owned[r])

    def test_ghosts_sorted_and_foreign(self):
        part = partition_block(quad_mesh(6, 6), 4)
        for r in range(4):
            gids, owners = part.ghosts[r].T
            assert np.array_equal(np.lexsort((gids, owners)), np.arange(len(gids)))
            assert (owners != r).all()
            assert np.array_equal(part.owner[gids], owners)

    def test_more_ranks_than_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_block(ring(4), 8)

    def test_trailing_ranks_may_be_empty(self):
        part = partition_block(ring(9), 8)
        assert [part.n_owned(r) for r in range(8)] == [2, 2, 2, 2, 1, 0, 0, 0]

    def test_known_halo_fraction(self):
        part = partition_block(quad_mesh(160, 160), 4)
        ghosts = sum(part.n_ghosts(r) for r in range(4))
        assert ghosts / 25600 == 0.05


@st.composite
def _layouts(draw):
    """A ring, quad or random grid of at most 120 elements, 1..9 ranks, and an owner array.

    Owners come in blocks in rank order, blocks in reverse rank order, or
    round robin.
    """
    kind = draw(st.sampled_from(["ring", "quad", "random"]))
    if kind == "ring":
        grid = ring(draw(st.integers(2, 120)))
    elif kind == "quad":
        grid = quad_mesh(draw(st.integers(2, 10)), draw(st.integers(2, 12)))
    else:
        grid = random_grid(draw(st.integers(2, 120)), draw(st.integers(2, 8)),
                           seed=draw(st.integers(0, 2**16)))
    nranks = draw(st.integers(1, min(9, grid.n)))
    block = -(-grid.n // nranks)
    layout = draw(st.sampled_from(["block", "reversed", "round_robin"]))
    if layout == "block":
        owner = np.arange(grid.n) // block
    elif layout == "reversed":
        owner = nranks - 1 - np.arange(grid.n) // block
    else:
        owner = np.arange(grid.n) % nranks
    return grid, nranks, owner


def _decompose(grid, nranks, owner):
    return _derive_ghosts(grid, owner, [np.flatnonzero(owner == r) for r in range(nranks)],
                          nranks)


def _same_blocks(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.members, y.members) and np.array_equal(x.columns, y.columns)
        assert (x.rows == y.rows if isinstance(x.rows, slice)
                else np.array_equal(x.rows, y.rows))


class TestGhosts:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_layouts())
    def test_every_rank_equals_the_loop_reference(self, case):
        grid, nranks, owner = case
        part = _decompose(grid, nranks, owner)
        for r in range(nranks):
            ghosts = part.ghosts[r]
            assert ghosts.dtype == np.int64 and ghosts.shape == (part.n_ghosts(r), 2)
            assert not ghosts.flags.writeable
            assert ghosts.tolist() == [list(pair) for pair in reference_ghosts(grid, owner, r)]

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_layouts())
    def test_tuple_built_partitions_equal_array_built_ones(self, case):
        grid, nranks, owner = case
        part = _decompose(grid, nranks, owner)
        as_tuples = tuple(tuple(map(tuple, g.tolist())) for g in part.ghosts)
        twin = Partition(grid=grid, nranks=nranks, owner=owner, owned=part.owned,
                         ghosts=as_tuples)
        plan, twin_plan = build_plan(part, Router(nranks)), build_plan(twin, Router(nranks))
        for r in range(nranks):
            assert twin.ghosts[r].dtype == np.int64 and not twin.ghosts[r].flags.writeable
            assert np.array_equal(twin.ghosts[r], part.ghosts[r])
            a, b = plan.ranks[r], twin_plan.ranks[r]
            for name in ("send_index", "recv_slot"):
                x, y = getattr(a, name), getattr(b, name)
                assert list(x) == list(y)
                assert all(np.array_equal(x[k], y[k]) for k in x)
        _same_blocks(twin.stencil, part.stencil)
        for name in ("boundary_mask", "interior_mask"):
            assert np.array_equal(getattr(plan, name), getattr(twin_plan, name))
        _same_blocks(plan.boundary, twin_plan.boundary)
        _same_blocks(plan.interior, twin_plan.interior)

    def test_ghosts_that_are_not_pairs_are_refused(self):
        part = partition_block(ring(8), 2)
        with pytest.raises(ConfigurationError, match="ghosts of rank 0 must be"):
            Partition(grid=part.grid, nranks=2, owner=part.owner, owned=part.owned,
                      ghosts=((4, 1, 7), part.ghosts[1]))
