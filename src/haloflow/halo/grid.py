"""Unstructured grid descriptions and generators.

A :class:`GlobalGrid` is a symmetric adjacency stored in compressed sparse
row (CSR) form, the ``xadj``/``adjncy`` layout of METIS: the neighbours of
element ``i`` are ``indices[indptr[i]:indptr[i + 1]]``, ascending, and both
arrays are read-only int64.  Three generators cover the test space: a ring,
a periodic quadrilateral mesh, and seeded random planar-ish graphs with
bounded degree.  All of them are deterministic functions of their
arguments.  The ring and the mesh are written in closed form, each row
already ascending: a quad element's four neighbours lie in the row below,
its own row and the row above, so their order is known from its position
(see :func:`quad_mesh`) and nothing is sorted.

Every consumer walks an element's neighbours in that stored ascending
order, which is what fixes the order of floating-point accumulation in the
stencil and makes its results bit-identical across partitionings.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ScenarioError, number

# Most elements a random grid may have.  Building one holds an n x n float64
# array and, briefly, its finite half: about 0.26 GB of peak memory at this
# bound.
MAX_RANDOM_GRID_ELEMENTS = 4096

# Most elements a ring or quad mesh may have.  A halo run holds about 0.2 kB
# per element at its peak (a one-step ``haloflow halo`` on quad1024x1024 with
# 8 ranks peaks at 216 MB), so about 0.8 GB at this bound (quad2048x2048).
MAX_MESH_ELEMENTS = 2**22


@dataclass(frozen=True, eq=False)
class GlobalGrid:
    """CSR adjacency: ``indices[indptr[i]:indptr[i + 1]]`` are the neighbours of ``i``.

    Every element must have at least one neighbour (the stencil takes a
    neighbourhood mean, which is undefined for isolated elements), lists
    them ascending and unique, and is not its own neighbour.  An array that
    is already read-only int64 is kept as it is, and must not change later;
    anything else is copied into a new read-only int64 array.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        indptr, indices = _read_only_int64(self.indptr), _read_only_int64(self.indices)
        if (indptr.ndim != 1 or indices.ndim != 1 or len(indptr) < 2 or indptr[0] != 0
                or indptr[-1] != len(indices) or (indptr[1:] < indptr[:-1]).any()):
            raise ConfigurationError("adjacency must list every element")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        self._check_rows()

    def _check_rows(self) -> None:
        n, indptr, nb = self.n, self.indptr, self.indices
        # the row of each entry, in the narrowest signed type that holds n,
        # so that a large grid's temporaries stay small
        row = np.repeat(np.arange(n, dtype=np.min_scalar_type(-n)), np.diff(indptr))
        bad_entry = nb.view(np.uint64) >= n  # negatives wrap to beyond n
        bad_entry |= nb == row
        bad_step = nb[1:] <= nb[:-1]
        bad_step &= row[1:] == row[:-1]
        bad_row = indptr[1:] == indptr[:-1]
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


def _read_only_int64(a) -> np.ndarray:
    """``a`` itself when it is a read-only int64 array, else a read-only int64 copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.int64 and not a.flags.writeable):
        a = np.array(a, dtype=np.int64)
        a.setflags(write=False)
    return a


def _uniform(rows: np.ndarray) -> GlobalGrid:
    """Grid whose element ``i`` has the neighbours ``rows[i]``, already ascending.

    ``rows`` is a fresh int64 array of this module; the grid keeps it, read-only.
    """
    n, degree = rows.shape
    indptr = np.arange(0, n * degree + 1, degree, dtype=np.int64)
    indices = rows.reshape(-1)
    for a in (indptr, indices):
        a.setflags(write=False)
    return GlobalGrid(indptr, indices)


def _check_mesh_size(n: int) -> None:
    if n > MAX_MESH_ELEMENTS:
        raise ScenarioError(f"ring and quad grids hold at most {MAX_MESH_ELEMENTS} elements, "
                            f"got {n}", "grid")


_count = functools.partial(number, integer=True, error=ConfigurationError)


def check_ring(n: int) -> int:
    """Raise what :func:`ring` raises for ``n``, without building; return ``n`` as an int.

    An ``n`` above ``MAX_MESH_ELEMENTS`` raises :class:`ScenarioError` at
    path ``grid``.
    """
    n = _count(n, "n")
    if n < 2:
        raise ConfigurationError("ring needs n >= 2")
    _check_mesh_size(n)
    return n


def ring(n: int) -> GlobalGrid:
    """Cycle of ``n`` elements; each neighbours its two cyclic adjacents."""
    n = check_ring(n)
    i = np.arange(n, dtype=np.int64)
    left, right = (i - 1) % n, (i + 1) % n
    # the lower first; with two elements both are the same element, listed once
    cols = [np.minimum(left, right), np.maximum(left, right)] if n > 2 else [left]
    return _uniform(np.stack(cols, axis=1))


def check_quad_mesh(nx: int, ny: int) -> tuple[int, int]:
    """Raise what :func:`quad_mesh` raises, without building; return ``nx, ny`` as ints.

    More than ``MAX_MESH_ELEMENTS`` elements (``nx * ny``) raise
    :class:`ScenarioError` at path ``grid``.
    """
    nx, ny = _count(nx, "nx"), _count(ny, "ny")
    if nx < 2 or ny < 2:
        raise ConfigurationError("quad_mesh needs nx >= 2 and ny >= 2")
    _check_mesh_size(nx * ny)
    return nx, ny


def quad_mesh(nx: int, ny: int) -> GlobalGrid:
    """Periodic structured mesh, 4-point stencil, row-major numbering.

    Element ``y * nx + x`` neighbours ``down`` and ``up``, the same ``x`` in
    the cyclic rows ``y - 1`` and ``y + 1``, and the two cyclic
    x-neighbours in its own row, the lower ``lo`` and the higher ``hi``.
    Rows are numbered in order, so the ascending order of the four is known
    in closed form: ``down, lo, hi, up`` in the interior rows, ``lo, hi, up,
    down`` in row 0 (its ``down`` is the last row) and ``up, down, lo, hi``
    in the last row (its ``up`` is row 0).  With ``nx == 2`` (or ``ny ==
    2``) ``lo`` and ``hi`` (or ``down`` and ``up``) coincide and are listed
    once.
    """
    nx, ny = check_quad_mesh(nx, ny)
    x = np.arange(nx, dtype=np.int64)
    row = np.arange(0, nx * ny, nx, dtype=np.int64)  # first element of each row
    left, right = (x - 1) % nx, (x + 1) % nx
    # each neighbour is a per-row term plus a per-column term
    terms = {"down": (np.roll(row, 1), x), "lo": (row, np.minimum(left, right)),
             "hi": (row, np.maximum(left, right)), "up": (np.roll(row, -1), x)}
    if nx == 2:
        del terms["hi"]
    if ny == 2:
        del terms["down"]
    out = np.empty((ny, nx, len(terms)), dtype=np.int64)
    for rows, order in ((slice(0, 1), ("lo", "hi", "up", "down")),
                        (slice(1, ny - 1), ("down", "lo", "hi", "up")),
                        (slice(ny - 1, ny), ("up", "down", "lo", "hi"))):
        for k, name in enumerate(t for t in order if t in terms):
            per_row, per_col = terms[name]
            np.add(per_row[rows, None], per_col, out=out[rows, :, k])
    return _uniform(out.reshape(nx * ny, -1))


def check_random_grid(n: int, max_degree: int = 8, seed: int = 0) -> tuple[int, int, int]:
    """Raise what :func:`random_grid` raises, without building; return its arguments as ints.

    An ``n`` above ``MAX_RANDOM_GRID_ELEMENTS`` raises :class:`ScenarioError`
    at path ``grid``, before anything is allocated.
    """
    n, max_degree, seed = _count(n, "n"), _count(max_degree, "max_degree"), _count(seed, "seed")
    if n < 2:
        raise ConfigurationError("random_grid needs n >= 2")
    if n > MAX_RANDOM_GRID_ELEMENTS:
        raise ScenarioError(f"random grids hold at most {MAX_RANDOM_GRID_ELEMENTS} elements, "
                            f"got {n}", "grid")
    if max_degree < 2:
        raise ConfigurationError("random_grid needs max_degree >= 2")
    return n, max_degree, seed


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

    Cost: O(n^2) time and memory (one n x n float64 array) in array
    operations for the distance matrix; only the shortest candidate edges
    are sorted and visited one by one.  ``random_grid(1000)`` takes about
    0.03 s on one core of a 2-core Xeon virtual machine.  ``n`` is capped at
    ``MAX_RANDOM_GRID_ELEMENTS``.
    """
    n, max_degree, seed = check_random_grid(n, max_degree, seed)
    rng = random.Random(seed)
    x, y = np.array([rng.random() for _ in range(2 * n)]).reshape(n, 2).T
    # dist[i, j] = dx*dx + dy*dy, exactly symmetric, since x[j] - x[i] ==
    # -(x[i] - x[j]); dy*dy is added a few rows at a time through a scratch
    # of at most 8192 floats, so the build holds one n x n float64 array
    dist = x[:, None] - x
    dist *= dist
    rows = max(1, 8192 // n)
    scratch = np.empty((rows, n))
    for a in range(0, n, rows):
        dy = np.subtract(y[a:a + rows, None], y, out=scratch[:min(rows, n - a)])
        dy *= dy
        dist[a:a + rows] += dy
    dist[np.tri(n, dtype=bool)] = np.inf  # keep the pairs (i, j) with i < j

    # spanning attachment: element j joins its nearest predecessor i with
    # room; j predecessors hold at most 2*(j-1) edge endpoints, so someone
    # always has room while max_degree >= 2
    nearest = np.argmin(dist, axis=0).tolist()
    parent = [0] * n
    degree = [0] * n
    room = np.ones(n, dtype=bool)  # degree < max_degree, read only past a full nearest
    for j in range(1, n):
        i = nearest[j]
        if degree[i] >= max_degree:  # the first minimum among predecessors with room
            i = int(np.argmin(np.where(room[:j], dist[:j, j], np.inf)))
        parent[j] = i
        degree[i] += 1
        degree[j] += 1  # j had no edge yet, and max_degree >= 2 leaves it room
        if degree[i] == max_degree:
            room[i] = False

    # densify with the shortest remaining edges, degree-capped
    child = np.arange(1, n)
    parent = np.array(parent[1:], dtype=np.int64)
    dist[parent, child] = np.inf  # tree edges are taken already
    # 2n extra edges beyond the tree at most keep the graph sparse
    a, b = _densify(dist, degree, max_degree, budget=2 * n)

    src = np.concatenate([child, parent, a, b])
    dst = np.concatenate([parent, child, b, a])
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
    needed are never sorted.  ``length`` itself, used up here, records
    what remains: a visited block, and the rows and columns of the elements
    that are full, are set to inf, since a full element stays full.
    """
    n = len(degree)
    flat = length.reshape(-1)  # a view: writes through it reach length
    full = np.zeros(n, dtype=bool)
    added_i: list[int] = []
    added_j: list[int] = []
    size = 2 * budget  # some of the shortest candidates meet a full end
    while len(added_i) < budget:
        now_full = np.array(degree) >= max_degree
        filled = np.flatnonzero(now_full & ~full)
        full = now_full
        length[filled] = np.inf
        length[:, filled] = np.inf
        live = flat[flat < np.inf]
        if not len(live):
            break
        k = min(size, len(live))
        live.partition(k - 1)
        block = np.flatnonzero(flat <= live[k - 1])
        block = block[np.argsort(flat[block], kind="stable")]
        flat[block] = np.inf
        size *= 2
        for i, j in zip(*(ends.tolist() for ends in np.divmod(block, n))):
            if degree[i] < max_degree and degree[j] < max_degree:
                degree[i] += 1
                degree[j] += 1
                added_i.append(i)
                added_j.append(j)
                if len(added_i) == budget:
                    break
    return np.array(added_i, dtype=np.int64), np.array(added_j, dtype=np.int64)
