"""The 100 random grids and initial fields of acceptance criterion 01.

Built once per test session, since both criterion 01 and the halo golden
gate walk these inputs.
"""

import functools

import numpy as np

from haloflow.halo import random_grid


@functools.cache
def criterion01_inputs():
    """``(grid, init)`` pairs in the order criterion 01 draws them from its seed."""
    rng = np.random.default_rng(20260819)
    out = []
    for _ in range(100):
        n = int(rng.integers(2, 513))
        maxdeg = int(rng.integers(2, 9))
        grid = random_grid(n, maxdeg, seed=int(rng.integers(0, 2**31)))
        out.append((grid, rng.standard_normal(n)))
    return tuple(out)
