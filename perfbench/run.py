"""haloflow benchmark: one workload per process, timed on the host.

Run from the root of a checkout; nothing needs installing::

    python3 perfbench/run.py --workload a2a_concurrent --seed 0 --seconds 10 --trace 0

The workloads are described in ``workloads.py`` and in ``BENCHMARK.json``.
Each repetition builds the inputs from ``--seed`` and then does the measured
work once; one caller repeats that in a closed loop until ``--seconds`` have
passed.  ``setup_s`` is the median set-up time.  ``run_s`` is the fastest
repetition's work: on a shared machine other tenants only ever add time,
and the speed of the machine drifts over tens of seconds, so the median of
a run moves with the drift while the fastest repetition does not.

Every repetition is checked outside the timed region.  Its fingerprint
must equal the run's first, and for a seed listed in ``golden.json`` it must
also hold the golden values.  ``golden.json`` is tracked data and the only
expectation that spans commits; a mismatch prints the values found, so a
deliberate change of the program's outputs is a reviewed edit of that file.
The deterministic per-layer counts of a traced run must repeat those of its
first traced repetition.  Each workload adds its own invariants.  A
repetition that fails a check, or in which the program raises, counts as
failed; one that raises records no timing.

``--trace 0`` prints the end-to-end metrics, measured with no spans.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics from the traced ones, plus the tracing overhead (fastest
traced minus fastest untraced repetition) and ``trace.coverage``: the share
of the traced work's wall time that the reported layer self times account
for.  Layer times are medians of self times: span time minus child spans.

The last line of stdout is the result object; the line before it records
where the numbers came from (machine, versions, commit, source size).
``--smoke`` runs the same code on tiny inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
# The environment variable overrides --seed inside haloflow, so a stray
# value would silently replace the benchmark's seed.
SEED_ENV = "HALOFLOW_SEED"

# Per-layer metrics that are the self time of one span name, per repetition.
SPAN_METRICS = {
    "topology.preset_s": "topology.preset",
    "collectives.build_s": "collectives.build",
    "netsim.simulate_s": "netsim.simulate",
    "halo.grid.build_s": "halo.grid.build",
    "halo.grid.random_grid_s": "halo.grid.random_grid",
    "halo.partition.partition_s": "halo.partition.partition",
    "halo.plan.build_s": "halo.plan.build",
    "halo.engine.make_fields_s": "halo.engine.make_fields",
    "halo.engine.staged_vs_direct_s": "halo.engine.staged_vs_direct",
    "scenario.load_s": "scenario.load",
    "cli.report_demo_s": "cli.report_demo",
    "cli.report_halo_s": "cli.report_halo",
    "cli.report_random_s": "cli.report_random",
    "reporting.render_s": "reporting.render",
    "perfmodel.roofline_report_s": "perfmodel.roofline_report",
    "energy.series_s": "energy.series",
}

# Spans whose self time some per-layer metric reports; ``trace.coverage``
# is their share of the traced work's wall time.
LAYER_SPANS = frozenset(SPAN_METRICS.values()) | {"halo.engine.step", "halo.engine.checksum"}

# Past the deadline, a run that still lacks a timed repetition keeps trying
# until this many repetitions in a row have failed.
MAX_FAILED_IN_A_ROW = 3

# Per-layer metrics that are counts recorded at a layer boundary, per repetition.
COUNT_METRICS = (
    "topology.devices",
    "topology.links",
    "collectives.flows",
    "collectives.phases",
    "netsim.trace_intervals",
    "netsim.sim_makespan_s",
    "halo.grid.elements",
    "halo.grid.edges",
    "halo.partition.ghosts",
    "halo.plan.halo_elements",
    "halo.router.rounds",
    "halo.engine.field_reads",
    "halo.engine.updates",
    "halo.engine.stencil_flops",
    "halo.engine.stencil_bytes_computed",
)


def import_haloflow() -> None:
    """Import haloflow from this checkout's ``src/`` and nowhere else."""
    os.environ.pop(SEED_ENV, None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import haloflow
    except ImportError as exc:
        raise SystemExit(f"cannot import haloflow from {src}: {exc}") from None

    if not Path(haloflow.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"haloflow was imported from {haloflow.__file__}, not from {src}")


def provenance() -> dict:
    """Where the numbers came from; recorded, never gated on."""
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = dirty = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_lines": src_lines,
    }


class Gate:
    """Exact comparison of deterministic values against the first ones seen."""

    def __init__(self):
        self.expected: dict | None = None

    def problems(self, label: str, got: dict) -> list[str]:
        if self.expected is None:
            self.expected = dict(got)
            return []
        keys = sorted(set(self.expected) | set(got))
        return [
            f"{label} {k}: expected {self.expected.get(k)!r}, got {got.get(k)!r}"
            for k in keys
            if self.expected.get(k) != got.get(k)
        ]


class Run:
    """One benchmark run of one workload: repetitions of set-up and work until the deadline."""

    def __init__(self, workload, golden: dict | None = None):
        self.wl = workload
        self.golden = golden or {}
        self.gates = {key: Gate() for key in ("fingerprint", "setup_counts", "op_counts")}
        self.attempted = 0
        self.failed = 0
        self.setup_seconds: list[float] = []
        self.setup_passes: list = []     # (tracer, wall seconds) per traced set-up
        self.plain: list[float] = []     # seconds of work per untraced repetition
        self.op_passes: list = []        # (tracer, wall seconds) per traced work
        self.last_fingerprint: dict = {}

    def repeat(self, seconds: float, trace: bool) -> None:
        """Set up and run the workload, repeatedly, until ``seconds`` have passed.

        With ``trace`` the repetitions alternate between untraced and traced.
        """
        deadline = time.perf_counter() + seconds
        failed_in_a_row = 0
        while time.perf_counter() < deadline or (
            failed_in_a_row < MAX_FAILED_IN_A_ROW and not self.complete(trace)
        ):
            traced = trace and len(self.op_passes) < len(self.plain)
            try:
                problems = self.once(traced)
            except Exception as exc:  # a fault of the program under test: count it
                problems = [f"raised {type(exc).__name__}: {exc}"]
            self.attempted += 1
            failed_in_a_row = failed_in_a_row + 1 if problems else 0
            if problems:
                self.failed += 1
                for p in problems[:5]:
                    print(f"{self.wl.name}: {p}", file=sys.stderr)

    def once(self, traced: bool) -> list[str]:
        """One repetition: set up, run, check.  Returns its problems.

        Timings are recorded only once the check has returned.
        """
        setup_tracer, op_tracer = (Tracer(), Tracer()) if traced else (NULL, NULL)
        gc.collect()
        t0 = time.perf_counter()
        inputs, seconds_inside = self.wl.timed_setup(setup_tracer)
        setup_wall = time.perf_counter() - t0
        gc.collect()
        with contextlib.ExitStack() as stack:
            if traced:
                self.wl.instrument(stack, op_tracer)
            t0 = time.perf_counter()
            outcome = self.wl.run(inputs, op_tracer)
            elapsed = time.perf_counter() - t0
        fingerprint, problems = self.wl.check(inputs, outcome)
        del inputs, outcome
        problems += [f"golden {k}: expected {v!r}, got {fingerprint.get(k)!r}"
                     for k, v in sorted(self.golden.items()) if fingerprint.get(k) != v]
        problems += self.gates["fingerprint"].problems("fingerprint", fingerprint)
        self.last_fingerprint = fingerprint
        if seconds_inside is not None:
            self.setup_seconds.append(seconds_inside)
        if traced:
            self.setup_passes.append((setup_tracer, setup_wall))
            self.op_passes.append((op_tracer, elapsed))
            problems += self.gates["setup_counts"].problems("set-up count", setup_tracer.counts)
            problems += self.gates["op_counts"].problems("layer count", op_tracer.counts)
        else:
            self.plain.append(elapsed)
        return problems

    def complete(self, trace: bool) -> bool:
        """Whether the run timed enough repetitions to report its metrics."""
        return bool(self.plain and self.setup_seconds) and (not trace or bool(self.op_passes))

    def end_to_end(self) -> dict[str, float]:
        return {
            "run_s": min(self.plain),
            "setup_s": statistics.median(self.setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        def median_self_times(passes) -> dict[str, float]:
            per_pass = [tr.self_times() for tr, _wall in passes]
            names = set().union(*per_pass)
            return {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}

        times = {**median_self_times(self.setup_passes), **median_self_times(self.op_passes)}
        counts = {**self.setup_passes[0][0].counts, **self.op_passes[0][0].counts}
        m: dict[str, float] = {k: times.get(span, 0.0) for k, span in SPAN_METRICS.items()}
        m.update({k: counts.get(k, 0) for k in COUNT_METRICS})

        simulate_s = times.get("netsim.simulate", 0.0)
        flows = counts.get("netsim.flows", 0)
        phases = counts.get("netsim.phases", 0)
        m["netsim.host_us_per_flow"] = 1e6 * simulate_s / flows if flows else 0.0
        m["netsim.host_us_per_phase"] = 1e6 * simulate_s / phases if phases else 0.0

        firsts, steady, checksums = [], [], []
        for tr, _wall in self.op_passes:
            first, rest = tr.first_and_rest("halo.engine.step")
            firsts.append(float(sum(first)))
            steady += rest
            checksums += tr.durations("halo.engine.checksum")
        m["halo.engine.first_step_s"] = statistics.median(firsts)
        m["halo.engine.step_s"] = statistics.median(steady) if steady else 0.0
        m["halo.engine.checksum_s"] = statistics.median(checksums) if checksums else 0.0
        m["reporting.bytes_written"] = self.last_fingerprint.get("bytes_written", 0)

        untraced = min(self.plain)
        m["sim_flows_per_s"] = flows / untraced
        m["stencil_updates_per_s"] = counts.get("halo.engine.updates", 0) / untraced
        m["trace.overhead_s"] = min(w for _tr, w in self.op_passes) - untraced
        layer_seconds = sum(t for tr, _w in self.op_passes
                            for name, t in tr.self_times().items() if name in LAYER_SPANS)
        m["trace.coverage"] = layer_seconds / sum(w for _tr, w in self.op_passes)
        return m


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def main(argv: list[str] | None = None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_haloflow()
    import workloads

    profile = "smoke" if args.smoke else "full"
    golden = load_json(GOLDEN).get(f"{profile}/{args.workload}/{args.seed}")

    wl = workloads.WORKLOADS[args.workload](profile, args.seed, ROOT)
    run = Run(wl, golden)
    try:
        run.repeat(args.seconds, bool(args.trace))
    finally:
        wl.close()
    if not run.complete(bool(args.trace)):
        raise SystemExit(f"{args.workload}: no repetition completed; {run.failed} failed")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = run.per_layer() if args.trace else run.end_to_end()
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    print(json.dumps({"provenance": provenance()}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
