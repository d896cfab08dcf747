"""Golden gate for the halo engine: grids, ghosts, plans and checksums stay bit-identical.

``halo_golden.json`` holds, per case, sha256 fingerprints of

* a grid's adjacency (one line per element, neighbours in stored order);
* each rank's ghost list ``(global, owner)`` for a block partition;
* each rank's plan ``send_index`` arrays and ``recv_slot`` ranges, per peer in key order;
* the per-step checksums (``%.17g``), the final owned field and the field
  read counters of stencil runs, for every overlap mode and schedule.

It was recorded from the tuple-of-tuples grid before the halo path moved to
CSR arrays; any change to these values fails here with ``==``.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from haloflow import ScheduleKind
from haloflow.halo import (
    OverlapMode,
    Router,
    build_plan,
    gather_global,
    partition_block,
    run_stencil,
)
from haloflow.scenario import parse_grid

from criterion01 import criterion01_inputs

GOLDEN = Path(__file__).with_name("halo_golden.json")

SHORTHANDS = (
    "ring2", "ring3", "ring8", "ring32",
    "quad2x2", "quad2x5", "quad5x2", "quad3x3", "quad4x6", "quad12x9", "quad100x100",
    "random2d2s0", "random32d4s9", "random33d3s2", "random64d6s3", "random120d6s5",
    "random300d8s1",
)

# (grid, ranks, steps) runs repeated under every overlap mode and schedule
STENCIL_RUNS = (
    ("ring32", 4, 6),
    ("quad12x9", 4, 6),
    ("quad16x16", 8, 6),
    ("random33d3s2", 2, 6),
    ("random120d6s5", 8, 6),
)


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _adjacency_fp(grid) -> dict[str, str]:
    return {
        "n": str(grid.n),
        "adjacency": _sha(" ".join(map(str, row)) for row in grid.adjacency),
    }


def _decomposition_fp(grid, nranks) -> dict[str, str]:
    part = partition_block(grid, nranks)
    plan = build_plan(part, Router(nranks))
    ghosts, plans = [], []
    for r in range(nranks):
        ghosts.append(f"rank {r}")
        ghosts.extend(f"{g} {o}" for g, o in part.ghosts[r])
        rp = plan.ranks[r]
        plans.append(f"rank {r}")
        plans.extend(f"send {peer}: {idx.tolist()}" for peer, idx in rp.send_index.items())
        plans.extend(f"recv {peer}: {list(sl)}" for peer, sl in rp.recv_slot.items())
    return {f"p{nranks}.ghosts": _sha(ghosts), f"p{nranks}.plan": _sha(plans)}


def _stencil_fp(grid, nranks, steps, init, mode, schedule) -> dict[str, str]:
    fields, part, _plan, checksums = run_stencil(
        grid, nranks, steps, init, mode=mode, schedule=schedule
    )
    return {
        "checksums": _sha(f"{c:.17g}" for c in checksums),
        "field": _sha(f"{v:.17g}" for v in gather_global(fields, part).tolist()),
        "reads": str(sum(f.reads for f in fields)),
    }


def _cases():
    cases = {}
    for k in range(100):
        def crit01(k=k):
            grid, init = criterion01_inputs()[k]
            fp = _adjacency_fp(grid)
            for nranks in (2, 3, 4, 8):
                if nranks <= grid.n:
                    fp.update(_decomposition_fp(grid, nranks))
            fp.update(_stencil_fp(grid, min(3, grid.n), 5, init,
                                  OverlapMode.NONE, ScheduleKind.ROTATED_CONCURRENT))
            return fp
        cases[f"criterion01/{k:03d}"] = crit01
    for spec in SHORTHANDS:
        def shorthand(spec=spec):
            grid = parse_grid(spec)
            fp = _adjacency_fp(grid)
            for nranks in (1, 2, 3, 4, 8):
                if nranks <= grid.n:
                    fp.update(_decomposition_fp(grid, nranks))
            return fp
        cases[f"grid/{spec}"] = shorthand
    for spec, nranks, steps in STENCIL_RUNS:
        for mode in OverlapMode:
            for schedule in ScheduleKind:
                def stencil(spec=spec, nranks=nranks, steps=steps, mode=mode, schedule=schedule):
                    grid = parse_grid(spec)
                    init = np.random.default_rng(11).standard_normal(grid.n)
                    return _stencil_fp(grid, nranks, steps, init, mode, schedule)
                cases[f"stencil/{spec}/p{nranks}/{mode.value}/{schedule.value}"] = stencil
    return cases


CASES = _cases()


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_halo_matches_golden(name):
    assert CASES[name]() == _golden()[name]

