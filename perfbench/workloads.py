"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (``setup``), runs
the measured work once (``run``) and checks the outcome outside the timed
region (``check``), which returns a fingerprint and a list of problems.
A fingerprint holds only values that must repeat exactly for one seed:
hashes of outputs rendered with ``%.17g`` and deterministic counts.

Every workload runs in this one process and thread, through haloflow's
public functions; the halo router stays in its default ``rounds`` mode,
because ``threads`` mode starts one OS thread per rank.

Simulated makespans are fingerprints of the timing model, which is not
validated against hardware; they are never accuracy claims.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import haloflow
import haloflow.cli as cli
import haloflow.halo.engine as engine
import haloflow.halo.partition as partition
import haloflow.scenario as scenario
import haloflow.topology as topology
from haloflow import RankMap, ScheduleKind, SimConfig, Staging, build_alltoall, preset, simulate
from haloflow.halo import OverlapMode, Router, quad_mesh, run_stencil

from spans import Tracer, instrument

# Input sizes per workload.  "full" is what the benchmark measures; "smoke"
# exercises the same code paths and checks in seconds.  On a shared machine
# the host can stay slow for tens of seconds at a stretch yet still has
# quiet moments of a fraction of a second, so full-size repetitions are
# kept short (0.1 to 0.5 s) and a run holds tens of them.  At random300,
# random_grid still takes about 30 % of report_cli's run time.
PROFILES = {
    "full": {
        "a2a_concurrent": {"servers": 2, "ranks": 12},
        "a2a_phased": {"servers": 4, "ranks": 32},
        "halo_steps": {"quad": (100, 100), "ranks": 8, "steps": 100},
        "report_cli": {"random_grid": "random300d8s{seed}"},
    },
    "smoke": {
        "a2a_concurrent": {"servers": 1, "ranks": 8},
        "a2a_phased": {"servers": 1, "ranks": 8},
        "halo_steps": {"quad": (16, 16), "ranks": 8, "steps": 10},
        "report_cli": {"random_grid": "random64d6s{seed}"},
    },
}

MAX_PAIR_BYTES = 10**6

# A device-direct flow may not finish before alpha + bytes / route_bandwidth
# after its phase starts.  The slack only absorbs rounding of the float
# subtraction (completion - phase start); any modelling error is far larger.
_BOUND_SLACK = 1e-9


def sha256_floats(pairs) -> str:
    h = hashlib.sha256()
    for key, value in pairs:
        h.update(f"{key} {value:.17g}\n".encode())
    return h.hexdigest()


def degree_sum(grid) -> int:
    return sum(len(a) for a in grid.adjacency)


def grid_counts(grid, *_args, **_kwargs) -> dict[str, int]:
    return {"halo.grid.elements": grid.n, "halo.grid.edges": degree_sum(grid) // 2}


def stencil_counts(result, grid, _nranks, steps, *_args, **_kwargs) -> dict[str, int]:
    """Work done by one ``run_stencil`` call.

    Each element update reads ``degree`` neighbour values and their int64
    indices and writes one value; it costs ``degree - 1`` adds and one
    divide.  The byte count is computed from that model, not measured.
    """
    fields, part, plan, _checksums = result
    dsum = degree_sum(grid)
    return {
        "halo.engine.updates": grid.n * steps,
        "halo.engine.stencil_flops": dsum * steps,
        "halo.engine.stencil_bytes_computed": (16 * dsum + 8 * grid.n) * steps,
        "halo.engine.field_reads": sum(f.reads for f in fields),
        "halo.partition.ghosts": sum(part.n_ghosts(r) for r in range(part.nranks)),
        "halo.plan.halo_elements": plan.total_sent(),
    }


def topology_counts(topo, *_args, **_kwargs) -> dict[str, int]:
    return {"topology.devices": topo.n_devices, "topology.links": len(topo.links)}


def flow_counts(flows, *_args, **_kwargs) -> dict[str, int]:
    return {
        "collectives.flows": len(flows),
        "collectives.phases": 1 + max((f.phase for f in flows), default=-1),
    }


def simulate_counts(result, _topo, _rank_map, flows, *_args, **_kwargs) -> dict[str, float]:
    return {
        "netsim.flows": len(flows),
        "netsim.phases": len(result.phase_completion),
        "netsim.trace_intervals": len(result.events),
        "netsim.sim_makespan_s": result.makespan,
    }


def instrument_router(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Count collective rounds executed by every Router until ``stack`` closes."""
    original = Router.run

    def run(self, program_factory):
        before = self.rounds_executed
        try:
            return original(self, program_factory)
        finally:
            tracer.add(dict, [("halo.router.rounds", self.rounds_executed - before)])

    Router.run = run
    stack.callback(setattr, Router, "run", original)


def instrument_engine(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Spans inside ``run_stencil``: partition, plan, fields, steps, checksums."""
    instrument(stack, tracer, partition, "partition_block", "halo.partition.partition")
    instrument(stack, tracer, engine, "ensure_plan", "halo.plan.build")
    instrument(stack, tracer, engine, "make_fields", "halo.engine.make_fields")
    instrument(stack, tracer, engine, "stencil_step", "halo.engine.step")
    instrument(stack, tracer, engine, "global_checksum", "halo.engine.checksum")
    instrument_router(stack, tracer)


class Workload:
    name = ""

    def __init__(self, profile: str, seed: int, root: Path):
        self.size = PROFILES[profile][self.name]
        self.seed = seed
        self.root = root

    def setup(self, tr):
        raise NotImplementedError

    def timed_setup(self, tr) -> tuple[object, float | None]:
        """The inputs and the host seconds spent building them (None: not timed)."""
        t0 = time.perf_counter()
        inputs = self.setup(tr)
        return inputs, time.perf_counter() - t0

    def run(self, inputs, tr):
        raise NotImplementedError

    def check(self, inputs, outcome) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def instrument(self, stack: contextlib.ExitStack, tracer: Tracer) -> None:
        """Install the spans for calls made inside the program (traced runs only)."""

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# all-to-all workloads


class _Alltoall(Workload):
    schedule: ScheduleKind

    def setup(self, tr):
        p = self.size["ranks"]
        with tr.span("topology.preset"):
            topo = preset("dgx1v", servers=self.size["servers"])
        tr.add(topology_counts, topo)
        with tr.span("bench.sizes"):
            rng = np.random.default_rng(self.seed)
            sizes = rng.integers(1, MAX_PAIR_BYTES, size=(p, p), endpoint=True).tolist()
        with tr.span("collectives.build"):
            flows = build_alltoall(self.schedule, sizes)
        tr.add(flow_counts, flows)
        return topo, RankMap.identity(p), flows

    def simulate(self, inputs, cfg: SimConfig, tr):
        topo, rank_map, flows = inputs
        with tr.span("netsim.simulate"):
            result = simulate(topo, rank_map, flows, cfg)
        tr.add(simulate_counts, result, topo, rank_map, flows)
        return result

    @staticmethod
    def fingerprint(result) -> dict:
        return {
            "completion_sha256": sha256_floats(sorted(result.flow_completion.items())),
            "makespan": f"{result.makespan:.17g}",
            "trace_intervals": len(result.events),
        }

    @staticmethod
    def direct_lower_bound_problems(inputs, result, cfg: SimConfig) -> list[str]:
        """Device-direct flows finish no earlier than alpha + bytes / route bandwidth."""
        topo, rank_map, flows = inputs
        starts = [0.0] + list(result.phase_completion)
        problems = []
        for f in flows:
            src, dst = rank_map.device_of(f.src_rank), rank_map.device_of(f.dst_rank)
            crosses_nic = any(
                n.kind is topology.NodeKind.NIC for n in topo.route_nodes(src, dst)
            )
            alpha = cfg.alpha_inter if crosses_nic else cfg.alpha_intra
            bound = alpha + f.bytes / topo.route_bandwidth(src, dst)
            took = result.flow_completion[f.id] - starts[f.phase]
            if took < bound * (1 - _BOUND_SLACK):
                problems.append(f"flow {f.id} took {took!r} s, below its bound {bound!r} s")
        return problems


class A2AConcurrent(_Alltoall):
    """One rotated concurrent all-to-all, default config (device-direct, events on)."""

    name = "a2a_concurrent"
    schedule = ScheduleKind.ROTATED_CONCURRENT

    def run(self, inputs, tr):
        return self.simulate(inputs, SimConfig(), tr)

    def check(self, inputs, outcome):
        fp = {**flow_counts(inputs[2]), **self.fingerprint(outcome)}
        return fp, self.direct_lower_bound_problems(inputs, outcome, SimConfig())


class A2APhased(_Alltoall):
    """Linear sequential all-to-all, once device-direct and once host-staged, no trace."""

    name = "a2a_phased"
    schedule = ScheduleKind.LINEAR_SEQUENTIAL
    configs = {
        "direct": SimConfig(staging=Staging.DEVICE_DIRECT, collect_events=False),
        "staged": SimConfig(staging=Staging.HOST_STAGED, collect_events=False),
    }

    def run(self, inputs, tr):
        return {key: self.simulate(inputs, cfg, tr) for key, cfg in self.configs.items()}

    def check(self, inputs, outcome):
        fp = flow_counts(inputs[2])
        for key, result in outcome.items():
            for k, v in self.fingerprint(result).items():
                fp[f"{key}.{k}"] = v
        problems = self.direct_lower_bound_problems(
            inputs, outcome["direct"], self.configs["direct"]
        )
        return fp, problems


# ----------------------------------------------------------------------
# halo stencil


class HaloSteps(Workload):
    """Distributed stencil steps with mask-array overlap on a periodic quad mesh."""

    name = "halo_steps"
    mode = OverlapMode.MASK_ARRAY

    def __init__(self, profile, seed, root):
        super().__init__(profile, seed, root)
        self._reference: list[float] | None = None

    def setup(self, tr):
        with tr.span("halo.grid.build"):
            grid = quad_mesh(*self.size["quad"])
        tr.add(grid_counts, grid)
        with tr.span("bench.init"):
            init = np.random.default_rng(self.seed).standard_normal(grid.n)
        return grid, init

    def run(self, inputs, tr):
        grid, init = inputs
        args = (grid, self.size["ranks"], self.size["steps"], init)
        with tr.span("halo.engine.run_stencil"):
            result = run_stencil(*args, mode=self.mode)
        tr.add(stencil_counts, result, *args)
        return result

    def instrument(self, stack, tracer):
        instrument_engine(stack, tracer)

    def reference(self, inputs) -> list[float]:
        """Checksums of the same run on one rank; computed once, outside timing."""
        if self._reference is None:
            grid, init = inputs
            *_rest, checksums = run_stencil(grid, 1, self.size["steps"], init)
            self._reference = checksums
        return self._reference

    def check(self, inputs, outcome):
        fields, part, plan, checksums = outcome
        fp = {
            "checksums_sha256": sha256_floats(enumerate(checksums)),
            "field_reads": sum(f.reads for f in fields),
            "halo_elements": plan.total_sent(),
        }
        problems = []
        if checksums != self.reference(inputs):
            problems.append("checksums differ from the one-rank run")
        return fp, problems


# ----------------------------------------------------------------------
# the report command, in-process


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import haloflow.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0)\n"
    "print(haloflow.cli.__file__)\n"
)

# A cold import needs a fresh interpreter, whose start-up costs more than the
# import itself, and the work does not use it.  Timing it on every fourth
# repetition leaves more of a run to the measured work and still gives a run
# tens of set-up samples.
IMPORT_EVERY = 4


class ReportCli(Workload):
    """``haloflow report`` on three scenarios, each into a fresh directory."""

    name = "report_cli"

    def __init__(self, profile, seed, root):
        super().__init__(profile, seed, root)
        self.src = root / "src"
        self.work = root / ".perfbench_work" / f"report_cli-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        bundled = Path(haloflow.__file__).parent / "scenarios"
        doc = json.loads((bundled / "halo.json").read_text(encoding="utf-8"))
        doc["name"] = "halo_random"
        doc["workload"]["grid"] = self.size["random_grid"].format(seed=seed)
        doc["workload"]["ranks"] = 8
        random_scenario = self.work / "halo_random.json"
        random_scenario.write_text(json.dumps(doc), encoding="utf-8")
        self.scenarios = {
            "demo": bundled / "demo.json",
            "halo": bundled / "halo.json",
            "random": random_scenario,
        }
        self._iteration = 0
        self._setups = 0

    def timed_setup(self, tr):
        """Cold import of ``haloflow.cli`` in a fresh interpreter, timed inside it.

        The benchmark process has imported haloflow already, so a cold import
        can only be observed in a new interpreter (``-I`` keeps the caller's
        environment out of it).  Only every ``IMPORT_EVERY``-th call, the
        first included, starts one.
        """
        self._setups += 1
        if (self._setups - 1) % IMPORT_EVERY:
            return None, None
        with tr.span("cli.import"):
            proc = subprocess.run(
                [sys.executable, "-I", "-c", _IMPORT_PROBE, str(self.src)],
                capture_output=True, text=True, timeout=120, check=True,
            )
        seconds, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"child imported haloflow.cli from {where}, not {self.src}")
        return None, float(seconds)

    def run(self, inputs, tr):
        self._iteration += 1
        out_root = self.work / f"run{self._iteration}"
        codes = {}
        for label, path in self.scenarios.items():
            argv = ["report", "--scenario", str(path), "--output", str(out_root / label),
                    "--seed", str(self.seed)]
            with tr.span(f"cli.report_{label}"):
                codes[label] = cli.main(argv)
        return out_root, codes

    def instrument(self, stack, tracer):
        instrument(stack, tracer, cli, "load_scenario", "scenario.load")
        instrument(stack, tracer, scenario, "parse_grid", "halo.grid.build", grid_counts)
        instrument(stack, tracer, cli, "parse_grid", "halo.grid.build", grid_counts)
        instrument(stack, tracer, scenario, "random_grid", "halo.grid.random_grid")
        instrument(stack, tracer, topology, "from_spec", "topology.preset", topology_counts)
        instrument(stack, tracer, cli, "uniform_sizes", "collectives.build")
        instrument(stack, tracer, cli, "build_alltoall", "collectives.build", flow_counts)
        instrument(stack, tracer, cli, "simulate", "netsim.simulate", simulate_counts)
        instrument(stack, tracer, cli, "run_stencil", "halo.engine.run_stencil", stencil_counts)
        instrument(stack, tracer, cli, "staged_vs_direct_cost", "halo.engine.staged_vs_direct")
        instrument(stack, tracer, cli, "roofline_report", "perfmodel.roofline_report")
        instrument(stack, tracer, cli, "energy_vs_time_series", "energy.series")
        for writer in ("render_csv", "roofline_svg", "write_json"):
            instrument(stack, tracer, cli, writer, "reporting.render")
        instrument_engine(stack, tracer)

    def check(self, inputs, outcome):
        out_root, codes = outcome
        fp: dict = {}
        problems = []
        written = 0
        for label, code in codes.items():
            if code != 0:
                problems.append(f"report {label} exited {code}")
                continue
            out = out_root / label
            files = sorted(p.name for p in out.iterdir())
            if "summary.json" not in files:
                problems.append(f"report {label} wrote no summary.json")
                continue
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            listed = sorted(summary["artifacts"])
            if listed != [f for f in files if f != "summary.json"]:
                problems.append(f"report {label}: summary lists {listed}, directory has {files}")
            for name in files:
                data = (out / name).read_bytes()
                written += len(data)
                fp[f"{label}/{name}"] = hashlib.sha256(data).hexdigest()
        fp["bytes_written"] = written
        shutil.rmtree(out_root, ignore_errors=True)
        return fp, problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


WORKLOADS = {w.name: w for w in (A2AConcurrent, A2APhased, HaloSteps, ReportCli)}
