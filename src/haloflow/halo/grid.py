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

from ..errors import ConfigurationError


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
    """Raise what :func:`random_grid` raises for its arguments, without building anything."""
    if n < 2:
        raise ConfigurationError("random_grid needs n >= 2")
    if max_degree < 2:
        raise ConfigurationError("random_grid needs max_degree >= 2")


def random_grid(n: int, max_degree: int = 8, seed: int = 0) -> GlobalGrid:
    """Connected random graph with geometric flavour and bounded degree.

    Elements get random positions in the unit square; each element first
    attaches to its nearest already-placed element with spare degree (which
    guarantees connectivity), then the shortest remaining candidate edges
    are added while both endpoints stay under ``max_degree``.  Everything
    is driven by one seeded generator, so equal arguments give equal grids.
    """
    check_random_grid(n, max_degree, seed)
    rng = random.Random(seed)
    pos = [(rng.random(), rng.random()) for _ in range(n)]

    def dist2(i: int, j: int) -> float:
        dx = pos[i][0] - pos[j][0]
        dy = pos[i][1] - pos[j][1]
        return dx * dx + dy * dy

    nbrs: list[set[int]] = [set() for _ in range(n)]

    def connect(i: int, j: int) -> None:
        nbrs[i].add(j)
        nbrs[j].add(i)

    # spanning attachment: node i joins its nearest predecessor with room
    for i in range(1, n):
        candidates = [j for j in range(i) if len(nbrs[j]) < max_degree]
        # degree budget: i predecessors hold at most 2*(i-1) edge endpoints,
        # so someone always has room while max_degree >= 2
        j = min(candidates, key=lambda j: (dist2(i, j), j))
        connect(i, j)

    # densify with the shortest remaining edges, degree-capped
    edges = sorted(
        ((dist2(i, j), i, j) for i in range(n) for j in range(i + 1, n) if j not in nbrs[i]),
        key=lambda t: (t[0], t[1], t[2]),
    )
    budget = 2 * n  # extra edges beyond the tree; keeps the graph sparse
    added = 0
    for _d, i, j in edges:
        if added >= budget:
            break
        if len(nbrs[i]) < max_degree and len(nbrs[j]) < max_degree:
            connect(i, j)
            added += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(s) for s in nbrs], out=indptr[1:])
    indices = np.fromiter((j for s in nbrs for j in sorted(s)), dtype=np.int64,
                          count=int(indptr[-1]))
    return GlobalGrid(indptr, indices)
