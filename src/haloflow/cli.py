"""Command-line front end.

Every subcommand is one section of ``report``: ``alltoall`` and ``halo`` run
the workload, ``sweep``, ``roofline`` and ``energy`` their sections, and
``report`` every section the scenario has, plus ``summary.json``.  Tables go
to stdout as CSV (``--format json`` for JSON) or under fixed names into
``--output DIR``.  Each section is one function that computes its tables
and returns them with their file names and ``summary.json`` entries.

A job comes from ``--scenario FILE`` or, for ``alltoall`` and ``halo``, from
workload flags, never both (``--seed``, ``--output`` and ``--format`` combine
with ``--scenario``).  Flags build a one-workload scenario through the same
job and topology checks as a file.  A scenario is checked whole before any
work runs: NaN, infinities (also ``1e400``), unknown keys (topology keys
too) and negative seeds are errors.  Every table is computed before the
first file is written, so a failing job leaves no artifacts.

Exit codes: 0 success, 2 bad command line, 3 invalid scenario or
configuration, 4 simulation or protocol failure, 5 output I/O failure.
Failures print a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import topology as topo_mod
from .collectives import ScheduleKind, build_alltoall, uniform_sizes
from .energy import energy_vs_time_series
from .errors import (
    ConfigurationError,
    HaloflowError,
    ProtocolError,
    ScenarioError,
    SimulationError,
    number,
)
from .halo import OverlapMode, run_stencil, staged_vs_direct_cost
from .netsim import SimConfig, simulate, simulate_timestep
from .perfmodel import roofline_report
from .reporting import render_csv, roofline_svg, write_json
from .scenario import (
    AlltoallJob,
    HaloJob,
    Scenario,
    load_scenario,
    parse_grid,
)
from .topology import RankMap, Topology

__all__ = ["main", "resolve_seed", "parse_topology_arg"]

SEED_ENV = "HALOFLOW_SEED"

EXIT_SCENARIO = 3
EXIT_SIMULATION = 4
EXIT_IO = 5

Table = tuple[list[str], list[list[object]]]


def resolve_seed(flag_value: int | None, scenario_value: int = 0) -> int:
    """Seed precedence: environment, then --seed, then the scenario.  Seeds are >= 0."""
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV} must be an integer, got {env!r}") from None
        if seed < 0:
            raise ConfigurationError(f"{SEED_ENV} must be >= 0, got {env!r}")
        return seed
    if flag_value is not None:
        return number(flag_value, "seed", integer=True, low=0)
    return scenario_value


def _topology_doc(spec: str) -> dict:
    """The topology spec of ``name`` or ``name:key=value,...``; values are JSON."""
    name, _, params = spec.partition(":")
    doc: dict = {"preset": name}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key or not value:
                raise ConfigurationError(f"bad topology parameter {item!r} in {spec!r}")
            try:
                doc[key] = json.loads(value)
            except json.JSONDecodeError:
                msg = f"bad topology parameter value {value!r} in {spec!r}"
                raise ConfigurationError(msg) from None
    return doc


def parse_topology_arg(spec: str) -> Topology:
    """Build a preset topology from ``name`` or ``name:key=value,...``."""
    return topo_mod.from_spec(_topology_doc(spec))


# --- sections ---------------------------------------------------------------
# A section function returns its artifacts as (file name, (header, rows) or
# SVG text, summary.json entry) triples.

Artifact = tuple[str, "Table | str", dict]

# Every simulation of a section runs without a trace: no section reads one.
UNTRACED = SimConfig(collect_events=False)


def _check_ranks(ranks: int, topo: Topology) -> None:
    """Refuse more ranks than ``topo`` has devices, before a size matrix or a stencil is built."""
    if ranks > topo.n_devices:
        raise ConfigurationError(
            f"{ranks} ranks exceed the {topo.n_devices} devices of topology {topo.name!r}")


def _json_number(x: float) -> float | None:
    """``x``, or None when it is infinite: JSON has no infinity."""
    return x if math.isfinite(x) else None


def _workload_artifacts(scn: Scenario) -> list[Artifact]:
    """The workload's tables: one uniform all-to-all timed under each requested
    schedule, a halo stencil run (checksums, then staged versus direct
    timing), or per-rank busy time for one compute+exchange timestep."""
    topo = topo_mod.from_spec(scn.topology)
    job = scn.workload
    if isinstance(job, AlltoallJob):
        _check_ranks(job.ranks, topo)
        rank_map = RankMap.identity(job.ranks)
        sizes = uniform_sizes(job.ranks, job.msg_bytes)
        rows: list[list[object]] = []
        for kind in job.schedules:
            flows = build_alltoall(kind, sizes)
            phases = 1 + max((f.phase for f in flows), default=0)
            res = simulate(topo, rank_map, flows, UNTRACED)
            rows.append([kind.value, job.ranks, job.msg_bytes, phases, res.makespan])
        header = ["schedule", "ranks", "msg_bytes", "phases", "makespan_seconds"]
        return [("alltoall.csv", (header, rows),
                 {"makespans": {str(r[0]): _json_number(r[4]) for r in rows}})]
    if isinstance(job, HaloJob):
        _check_ranks(job.ranks, topo)
        grid = parse_grid(job.grid)
        rng = np.random.default_rng(scn.seed)
        init = rng.standard_normal(grid.n)
        _fields, part, plan, checksums = run_stencil(
            grid, job.ranks, job.steps, init, mode=job.mode, schedule=job.schedule
        )
        staged, direct = staged_vs_direct_cost(
            part, plan, job.bytes_per_element, topo, RankMap.identity(job.ranks), UNTRACED
        )
        comp = job.compute_seconds
        # a run with no compute and no traffic has an infinite ratio
        ratio = (comp + staged) / (comp + direct) if comp + direct > 0 else float("inf")
        timing_row: list[object] = [
            job.grid,
            job.ranks,
            plan.total_sent(),
            comp,
            direct,
            staged,
            comp + direct,
            comp + staged,
            ratio,
        ]
        return [("halo_checksums.csv",
                 (["step", "checksum"], [[s + 1, c] for s, c in enumerate(checksums)]),
                 {"steps": len(checksums)}),
                ("halo_timing.csv",
                 (["grid", "ranks", "halo_elements", "compute_seconds",
                   "direct_comm_seconds", "staged_comm_seconds",
                   "direct_step_seconds", "staged_step_seconds", "staged_over_direct"],
                  [timing_row]),
                 {"staged_over_direct": _json_number(ratio)})]
    nranks = len(job.compute_seconds)
    res = simulate_timestep(topo, RankMap.identity(nranks), job, UNTRACED)
    header = ["rank", "compute_seconds", "busy_seconds", "busy_fraction"]
    return [("timestep.csv",
             (header, [[r, job.compute_seconds[r], res.busy_seconds[r], res.busy_fraction[r]]
                       for r in range(nranks)]),
             {"makespan_seconds": _json_number(res.makespan)})]


def _sweep_artifacts(scn: Scenario) -> list[Artifact]:
    """Evaluate the strong-scaling sweep.

    Each point exchanges ``total_bytes`` of uniform all-to-all traffic
    (``total_bytes / ranks**2`` per ordered pair) after an imbalanced
    compute phase of ``imbalance * compute_seconds_total / ranks``.
    """
    sweep = scn.sweep
    rows: list[list[object]] = []
    for pt in sweep.points:
        topo = topo_mod.from_spec(pt.topology)
        _check_ranks(pt.ranks, topo)
        rank_map = RankMap.identity(pt.ranks)
        pair_bytes = int(round(sweep.total_bytes / (pt.ranks * pt.ranks)))
        flows = build_alltoall(sweep.schedule, uniform_sizes(pt.ranks, pair_bytes))
        comm = simulate(topo, rank_map, flows, UNTRACED).makespan
        compute = pt.imbalance * sweep.compute_seconds_total / pt.ranks
        rows.append([pt.name, pt.ranks, pair_bytes, compute, comm, compute + comm])
    header = ["name", "ranks", "pair_bytes", "compute_seconds", "comm_seconds", "step_seconds"]
    return [("sweep.csv", (header, rows),
             {"step_seconds": {str(r[0]): _json_number(r[5]) for r in rows}})]


def _roofline_artifacts(scn: Scenario, svg: bool = False) -> list[Artifact]:
    """The kernels of one ``roofline_report`` as a table and, with ``svg``, its chart."""
    spec = scn.roofline
    points = roofline_report(spec.machine, spec.kernels)
    rows: list[list[object]] = [
        [p.name, p.intensity, p.achieved_flops, p.attainable, p.percent, p.seconds, p.time_share]
        for p in points
    ]
    header = ["kernel", "intensity", "achieved_flops", "attainable_flops",
              "percent_of_roofline", "seconds", "time_share"]
    entry = {"kernels": len(points)}
    artifacts: list[Artifact] = [("roofline.csv", (header, rows), entry)]
    if svg:
        artifacts.append(("roofline.svg", roofline_svg(spec.machine, points), entry))
    return artifacts


def _energy_artifacts(scn: Scenario) -> list[Artifact]:
    """The energy bill of each configuration."""
    points = energy_vs_time_series(scn.energy.model, scn.energy.configurations)
    rows: list[list[object]] = [
        [p.name, p.step_seconds, p.busy_fraction, p.devices, p.watts, p.joules]
        for p in points
    ]
    header = ["name", "step_seconds", "busy_fraction", "devices", "watts", "joules"]
    return [("energy.csv", (header, rows), {"joules": {str(r[0]): r[5] for r in rows}})]


# Scenario section -> its artifacts, in report order.
SECTIONS: dict[str, Callable[[Scenario], list[Artifact]]] = {
    "workload": _workload_artifacts,
    "sweep": _sweep_artifacts,
    "roofline": _roofline_artifacts,
    "energy": _energy_artifacts,
}

# Subcommand -> (scenario section, workload class it needs and its name, if any).
COMMANDS: dict[str, tuple[str, type | None, str]] = {
    "alltoall": ("workload", AlltoallJob, "an all-to-all job"),
    "halo": ("workload", HaloJob, "a halo job"),
    "sweep": ("sweep", None, ""),
    "roofline": ("roofline", None, ""),
    "energy": ("energy", None, ""),
}

# Workload flags and their defaults.  The parser leaves them None, so that a
# flag given with --scenario can be told apart from one left out.
WORKLOAD_FLAGS = {
    "topology": "dgx1v", "ranks": None, "msg_bytes": None, "schedule": None,
    "grid": "quad160x160", "steps": 5, "mode": HaloJob.mode.value,
    "bytes_per_element": HaloJob.bytes_per_element, "compute_seconds": HaloJob.compute_seconds,
}


def _flag_scenario(args: argparse.Namespace) -> Scenario:
    """The one-workload scenario that ``alltoall`` or ``halo`` flags describe."""
    flag = {k: default if getattr(args, k, None) is None else getattr(args, k)
            for k, default in WORKLOAD_FLAGS.items()}
    if args.command == "alltoall":
        if flag["ranks"] is None or flag["msg_bytes"] is None:
            raise ConfigurationError("need --ranks and --msg-bytes (or --scenario)")
        sched = flag["schedule"] or "all"
        schedules = AlltoallJob.schedules if sched == "all" else (ScheduleKind(sched),)
        job = AlltoallJob(flag["ranks"], flag["msg_bytes"], schedules)
    else:
        if flag["ranks"] is None:
            raise ConfigurationError("need --ranks (or --scenario)")
        sched = flag["schedule"] or HaloJob.schedule.value
        job = HaloJob(flag["grid"], flag["ranks"], flag["steps"], OverlapMode(flag["mode"]),
                      ScheduleKind(sched), flag["bytes_per_element"], flag["compute_seconds"])
    return Scenario("flags", 0, _topology_doc(flag["topology"]), job)


def _load(args: argparse.Namespace) -> tuple[Scenario, list[str]]:
    """The scenario a command runs and the sections it runs, checked."""
    if args.scenario is None:
        return _flag_scenario(args), ["workload"]
    given = [k for k in WORKLOAD_FLAGS if getattr(args, k, None) is not None]
    if given:
        raise ConfigurationError(f"--{given[0].replace('_', '-')} cannot be combined "
                                 "with --scenario")
    scn = load_scenario(args.scenario)
    if args.command == "report":
        return scn, [s for s in SECTIONS if getattr(scn, s) is not None]
    section, kind, kind_name = COMMANDS[args.command]
    if kind is not None and not isinstance(scn.workload, kind):
        raise ScenarioError(f"scenario workload is not {kind_name}", "workload.kind")
    if getattr(scn, section) is None:
        raise ScenarioError(f"scenario has no {section} section", section)
    return scn, [section]


def _run(args: argparse.Namespace) -> None:
    report = args.command == "report"
    scn, sections = _load(args)
    svg = report or getattr(args, "svg", False)
    if svg and args.output is None:
        raise ConfigurationError(f"{'report' if report else '--svg'} needs --output DIR")
    if "seed" in args:
        scn = dataclasses.replace(scn, seed=resolve_seed(args.seed, scn.seed))
    run = dict(SECTIONS, roofline=functools.partial(_roofline_artifacts, svg=svg))
    artifacts = [a for s in sections for a in run[s](scn)]

    if args.output is None:
        for _name, (header, rows), _entry in artifacts:
            if args.format == "json":
                doc = {"header": list(header), "rows": [list(r) for r in rows]}
                sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            else:
                sys.stdout.write(render_csv(header, rows))
        return
    texts = [(name, payload if isinstance(payload, str) else render_csv(*payload))
             for name, payload, _entry in artifacts]
    args.output.mkdir(parents=True, exist_ok=True)
    for name, text in texts:
        (args.output / name).write_bytes(text.encode("utf-8"))
    if report:
        write_json(args.output / "summary.json", {
            "scenario": scn.name,
            "seed": scn.seed,
            "artifacts": {name: entry for name, _payload, entry in artifacts},
        })


# --- parser -----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, scenario_required: bool) -> None:
    p.add_argument("--scenario", type=Path, required=scenario_required,
                   default=None, help="scenario JSON file")
    p.add_argument("--output", type=Path, default=None,
                   help="directory for result files (default: CSV on stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="stdout format when --output is not given")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="haloflow",
        description="Flow-level interconnect simulation and halo-exchange experiments.",
        epilog=(
            "exit codes: 0 success, 2 bad command line, 3 invalid scenario or "
            "configuration, 4 simulation or protocol failure, 5 output I/O failure. "
            f"The {SEED_ENV} environment variable overrides --seed and scenario seeds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alltoall", help="time one all-to-all under each schedule")
    _add_common(p, scenario_required=False)
    p.add_argument("--topology", help="preset name[:key=value,...]")
    p.add_argument("--ranks", type=int)
    p.add_argument("--msg-bytes", type=int, help="payload per ordered pair")
    p.add_argument("--schedule", choices=("all",) + tuple(k.value for k in ScheduleKind))

    p = sub.add_parser("halo", help="run a halo-exchange stencil and cost its transfers")
    _add_common(p, scenario_required=False)
    p.add_argument("--topology", help="preset name[:key=value,...]")
    p.add_argument("--grid", help="ring<N>, quad<NX>x<NY> or random<N>d<D>s<S>")
    p.add_argument("--ranks", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--mode", choices=tuple(m.value for m in OverlapMode))
    p.add_argument("--schedule", choices=tuple(k.value for k in ScheduleKind))
    p.add_argument("--bytes-per-element", type=float)
    p.add_argument("--compute-seconds", type=float)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", help="evaluate the scenario's strong-scaling sweep")
    _add_common(p, scenario_required=True)

    p = sub.add_parser("roofline", help="place the scenario's kernels on the roofline")
    _add_common(p, scenario_required=True)
    p.add_argument("--svg", action="store_true", help="also write roofline.svg")

    p = sub.add_parser("energy", help="energy bill for the scenario's configurations")
    _add_common(p, scenario_required=True)

    p = sub.add_parser("report", help="run every scenario section into --output")
    _add_common(p, scenario_required=True)
    p.add_argument("--seed", type=int, default=None)

    return parser


def _fail(code: int, exc: Exception) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    path = getattr(exc, "path", "")
    if path:
        doc["path"] = path
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (SimulationError, ProtocolError) as exc:
        return _fail(EXIT_SIMULATION, exc)
    except HaloflowError as exc:
        return _fail(EXIT_SCENARIO, exc)
    except OSError as exc:
        return _fail(EXIT_IO, exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
