"""Unstructured grid descriptions and generators.

A :class:`GlobalGrid` is a symmetric adjacency stored in compressed sparse
row (CSR) form, the ``xadj``/``adjncy`` layout of METIS: the neighbours of
element ``i`` are ``indices[indptr[i]:indptr[i + 1]]``, ascending, and both
arrays are read-only int64.  Three generators cover the test space: a ring,
a periodic quadrilateral mesh (both built in closed form), and seeded random
planar-ish graphs with bounded degree.  All of them are deterministic
functions of their arguments.

Every consumer walks an element's neighbours in that stored ascending
order, which is what fixes the order of floating-point accumulation in the
stencil and makes its results bit-identical across partitionings.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ScenarioError

# Most elements a random grid may have.  Building one holds two n x n
# float64 arrays: about 0.5 GB of peak memory at this bound.
MAX_RANDOM_GRID_ELEMENTS = 4096


@dataclass(frozen=True, eq=False)
class GlobalGrid:
    """CSR adjacency: ``indices[indptr[i]:indptr[i + 1]]`` are the neighbours of ``i``.

    Every element must have at least one neighbour (the stencil takes a
    neighbourhood mean, which is undefined for isolated elements), lists
    them ascending and unique, and is not its own neighbour.  The arrays
    are converted to int64 and made read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        indptr = np.array(self.indptr, dtype=np.int64)
        indices = np.array(self.indices, dtype=np.int64)
        if (indptr.ndim != 1 or indices.ndim != 1 or len(indptr) < 2 or indptr[0] != 0
                or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any()):
            raise ConfigurationError("adjacency must list every element")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        self._check_rows()

    def _check_rows(self) -> None:
        n = self.n
        degree = np.diff(self.indptr)
        row = np.repeat(np.arange(n, dtype=np.int64), degree)
        nb = self.indices
        bad_entry = (nb < 0) | (nb >= n) | (nb == row)
        bad_step = (nb[1:] <= nb[:-1]) & (row[1:] == row[:-1])
        bad_row = degree == 0
        bad_row[row[bad_entry]] = True
        bad_row[row[1:][bad_step]] = True
        if not bad_row.any():
            return
        i = int(np.argmax(bad_row))
        nbrs = self.indices[self.indptr[i]:self.indptr[i + 1]].tolist()
        if not nbrs:
            raise ConfigurationError(f"element {i} has no neighbours")
        if nbrs != sorted(set(nbrs)):
            raise ConfigurationError(f"adjacency of element {i} must be ascending and unique")
        for j in nbrs:
            if not 0 <= j < n:
                raise ConfigurationError(f"element {i} has out-of-range neighbour {j}")
            if j == i:
                raise ConfigurationError(f"element {i} lists itself as neighbour")

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max())

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[i]`` lists the neighbours of element ``i``, ascending.

        Derived from the CSR arrays on first access; the halo engine never
        reads it.
        """
        nb = self.indices.tolist()
        ptr = self.indptr.tolist()
        return tuple(tuple(nb[a:b]) for a, b in zip(ptr, ptr[1:]))


def _uniform(rows: np.ndarray) -> GlobalGrid:
    """Grid whose element ``i`` has the neighbours ``rows[i]``, sorted here."""
    n, degree = rows.shape
    return GlobalGrid(np.arange(0, n * degree + 1, degree, dtype=np.int64),
                      np.sort(rows, axis=1).ravel())


def check_ring(n: int) -> None:
    """Raise what :func:`ring` raises for ``n``, without building anything."""
    if n < 2:
        raise ConfigurationError("ring needs n >= 2")


def ring(n: int) -> GlobalGrid:
    """Cycle of ``n`` elements; each neighbours its two cyclic adjacents."""
    check_ring(n)
    i = np.arange(n, dtype=np.int64)
    cols = [(i - 1) % n]
    if n > 2:  # with two elements both cyclic adjacents are the same element
        cols.append((i + 1) % n)
    return _uniform(np.stack(cols, axis=1))


def check_quad_mesh(nx: int, ny: int) -> None:
    """Raise what :func:`quad_mesh` raises for its arguments, without building anything."""
    if nx < 2 or ny < 2:
        raise ConfigurationError("quad_mesh needs nx >= 2 and ny >= 2")


def quad_mesh(nx: int, ny: int) -> GlobalGrid:
    """Periodic structured mesh, 4-point stencil, row-major numbering.

    With ``nx == 2`` (or ``ny == 2``) the left and right (or lower and
    upper) neighbours coincide and are listed once.
    """
    check_quad_mesh(nx, ny)
    idx = np.arange(nx * ny, dtype=np.int64)
    x, y = idx % nx, idx // nx
    cols = [((x - 1) % nx) + y * nx]
    if nx > 2:
        cols.append(((x + 1) % nx) + y * nx)
    cols.append(x + ((y - 1) % ny) * nx)
    if ny > 2:
        cols.append(x + ((y + 1) % ny) * nx)
    return _uniform(np.stack(cols, axis=1))


def check_random_grid(n: int, max_degree: int = 8, seed: int = 0) -> None:
    """Raise what :func:`random_grid` raises for its arguments, without building anything.

    An ``n`` above ``MAX_RANDOM_GRID_ELEMENTS`` raises :class:`ScenarioError`
    at path ``grid``, before anything is allocated.
    """
    if n < 2:
        raise ConfigurationError("random_grid needs n >= 2")
    if n > MAX_RANDOM_GRID_ELEMENTS:
        raise ScenarioError(f"random grids hold at most {MAX_RANDOM_GRID_ELEMENTS} elements, "
                            f"got {n}", "grid")
    if max_degree < 2:
        raise ConfigurationError("random_grid needs max_degree >= 2")


def random_grid(n: int, max_degree: int = 8, seed: int = 0) -> GlobalGrid:
    """Connected random graph with geometric flavour and bounded degree.

    Elements get random positions in the unit square; each element first
    attaches to its nearest already-placed element with spare degree (which
    guarantees connectivity), then the shortest remaining candidate edges
    are added while both endpoints stay under ``max_degree``.  Everything
    is driven by one seeded generator, so equal arguments give equal grids.

    Ties go to the lower index in both steps: attachment takes the first
    nearest predecessor, and candidate edges ``(i, j)``, ``i < j``, are
    taken in ``(distance, i, j)`` order.  Squared distances are
    ``dx*dx + dy*dy`` in float64.

    Cost: O(n^2) time and memory (two n x n float64 arrays) in array
    operations for the distance matrix; only the shortest candidate edges
    are sorted and visited one by one.  ``random_grid(1000)`` takes about
    0.06 s on one core of a 2-core Xeon virtual machine.  ``n`` is capped at
    ``MAX_RANDOM_GRID_ELEMENTS``.
    """
    check_random_grid(n, max_degree, seed)
    rng = random.Random(seed)
    x, y = np.array([rng.random() for _ in range(2 * n)]).reshape(n, 2).T
    # dist[i, j] = dx*dx + dy*dy, in place to hold two n x n arrays at most;
    # exactly symmetric, since x[j] - x[i] == -(x[i] - x[j])
    dist = x[:, None] - x
    dist *= dist
    dy = y[:, None] - y
    dy *= dy
    dist += dy
    del dy
    dist[np.tri(n, dtype=bool)] = np.inf  # keep the pairs (i, j) with i < j

    # spanning attachment: element j joins its nearest predecessor i with
    # room; j predecessors hold at most 2*(j-1) edge endpoints, so someone
    # always has room while max_degree >= 2
    nearest = np.argmin(dist, axis=0).tolist()
    parent = np.zeros(n, dtype=np.int64)
    degree = np.zeros(n, dtype=np.int64)
    for j in range(1, n):
        i = nearest[j]
        if degree[i] >= max_degree:  # the first minimum among predecessors with room
            i = int(np.argmin(np.where(degree[:j] < max_degree, dist[:j, j], np.inf)))
        parent[j] = i
        degree[i] += 1
        degree[j] += 1

    # densify with the shortest remaining edges, degree-capped
    child = np.arange(1, n)
    dist[parent[1:], child] = np.inf  # tree edges are taken already
    # 2n extra edges beyond the tree at most keep the graph sparse
    a, b = _densify(dist, degree.tolist(), max_degree, budget=2 * n)

    src = np.concatenate([child, parent[1:], a, b])
    dst = np.concatenate([parent[1:], child, b, a])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return GlobalGrid(indptr, dst[np.argsort(src * n + dst)])


def _densify(length: np.ndarray, degree: list[int], max_degree: int,
             budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Add candidate edges greedily in ``(length[i, j], i, j)`` order; return their ends.

    ``length[i, j]`` is finite exactly for the candidates, each with
    ``i < j``.  A candidate is added while both ends have room under
    ``max_degree``, until ``budget`` are added; ``degree`` is updated in
    place.  Candidates are visited in blocks of ascending length.  A block
    holds every remaining candidate up to a threshold length, ties
    included, so the blocks, each sorted stably from ``(i, j)`` order, are
    exactly the full sorted sequence, and candidates past the last block
    needed are never sorted.  Each block looks only at the elements that
    still have room, since a full element stays full.
    """
    added_i: list[int] = []
    added_j: list[int] = []
    low = -np.inf
    size = budget
    while len(added_i) < budget:
        room = np.flatnonzero(np.array(degree) < max_degree)
        sub = (length if len(room) == len(degree) else length[np.ix_(room, room)]).ravel()
        live = np.flatnonzero((sub > low) & (sub < np.inf))
        if not len(live):
            break
        k = min(size, len(live))
        low = np.partition(sub[live], k - 1)[k - 1]
        block = live[sub[live] <= low]
        block = block[np.argsort(sub[block], kind="stable")]
        size *= 2
        for i, j in zip(room[block // len(room)].tolist(), room[block % len(room)].tolist()):
            if degree[i] < max_degree and degree[j] < max_degree:
                degree[i] += 1
                degree[j] += 1
                added_i.append(i)
                added_j.append(j)
                if len(added_i) == budget:
                    break
    return np.array(added_i, dtype=np.int64), np.array(added_j, dtype=np.int64)
