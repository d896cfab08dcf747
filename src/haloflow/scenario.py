"""Scenario documents: validated JSON descriptions of one experiment.

A scenario bundles a topology, one workload, and optional sweep, roofline
and energy sections.  Validation is strict: every key is checked against
the schema by hand, unknown keys are rejected, and every complaint carries
the dotted path of the offending field so a typo in a nested section is
findable without reading this file.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .collectives import ScheduleKind
from .errors import ScenarioError
from .halo import GlobalGrid, OverlapMode, quad_mesh, random_grid, ring
from .halo.grid import check_quad_mesh, check_random_grid, check_ring
from .netsim import Flow
from .perfmodel import MachineModel, KernelSample
from .energy import PowerModel, fit_power_model

__all__ = [
    "SCHEMA_VERSION",
    "AlltoallJob",
    "HaloJob",
    "TimestepJob",
    "SweepPoint",
    "SweepSpec",
    "RooflineSpec",
    "EnergySpec",
    "Scenario",
    "parse_grid",
    "parse_scenario",
    "load_scenario",
]

SCHEMA_VERSION = 1

_MISSING = object()


def _expect_mapping(value: object, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"expected an object, got {type(value).__name__}", path)
    return value


def _check_keys(doc: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ScenarioError(f"unknown key {unknown[0]!r}", where)


def _get(doc: Mapping, key: str, kind: type | tuple, path: str, default: object = _MISSING):
    sub = f"{path}.{key}" if path else key
    if key not in doc:
        if default is _MISSING:
            raise ScenarioError(f"missing required key {key!r}", path or key)
        return default
    value = doc[key]
    if kind is float:
        # ints serve as numbers, but booleans never do
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"expected a number, got {type(value).__name__}", sub)
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"expected an integer, got {type(value).__name__}", sub)
        return value
    if not isinstance(value, kind):
        kname = kind.__name__ if isinstance(kind, type) else "value"
        raise ScenarioError(f"expected {kname}, got {type(value).__name__}", sub)
    return value


def _enum(value: str, enum_cls, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(m.value for m in enum_cls)
        raise ScenarioError(f"{value!r} is not one of: {options}", path) from None


# --- grid shorthand ---------------------------------------------------------

_GRID_RE = re.compile(
    r"^(?:ring(?P<ring_n>\d+)"
    r"|quad(?P<qx>\d+)x(?P<qy>\d+)"
    r"|random(?P<rn>\d+)d(?P<rd>\d+)s(?P<rs>\d+))$"
)


def _grid_recipe(spec: str):
    """``(builder, checker, args)`` for a grid shorthand; builds nothing."""
    m = _GRID_RE.match(spec)
    if m is None:
        raise ScenarioError(
            f"bad grid {spec!r}; use ring<N>, quad<NX>x<NY> or random<N>d<D>s<S>",
            "grid",
        )
    if m.group("ring_n") is not None:
        return ring, check_ring, (int(m.group("ring_n")),)
    if m.group("qx") is not None:
        return quad_mesh, check_quad_mesh, (int(m.group("qx")), int(m.group("qy")))
    return (random_grid, check_random_grid,
            (int(m.group("rn")), int(m.group("rd")), int(m.group("rs"))))


def parse_grid(spec: str) -> GlobalGrid:
    """Build a grid from its shorthand name.

    ``ring8`` is an 8-element cycle, ``quad16x12`` a periodic 16 by 12
    mesh, and ``random64d6s3`` a 64-element random graph with maximum
    degree 6 grown from seed 3.
    """
    build, _check, args = _grid_recipe(spec)
    return build(*args)


# --- workload sections ------------------------------------------------------

@dataclass(frozen=True)
class AlltoallJob:
    ranks: int
    msg_bytes: int
    schedules: tuple[ScheduleKind, ...]


@dataclass(frozen=True)
class HaloJob:
    """One halo stencil run; validated on construction, from flags or a scenario.

    A bad value raises :class:`ScenarioError` whose ``path`` is the field
    name (or a :class:`ConfigurationError` from the grid generator's own
    argument checks); the grid itself is only built when the job runs.
    """

    grid: str
    ranks: int
    steps: int
    mode: OverlapMode
    schedule: ScheduleKind
    bytes_per_element: float
    compute_seconds: float

    def __post_init__(self):
        _build, check_args, args = _grid_recipe(self.grid)
        check_args(*args)
        if self.ranks < 1:
            raise ScenarioError("ranks must be >= 1", "ranks")
        if self.steps < 0:
            raise ScenarioError("steps must be >= 0", "steps")
        if not (math.isfinite(self.bytes_per_element) and self.bytes_per_element > 0):
            raise ScenarioError("bytes_per_element must be finite and positive",
                                "bytes_per_element")
        if not (math.isfinite(self.compute_seconds) and self.compute_seconds >= 0):
            raise ScenarioError("compute_seconds must be finite and >= 0", "compute_seconds")


@dataclass(frozen=True)
class TimestepJob:
    compute_seconds: tuple[float, ...]
    flows: tuple[Flow, ...]
    barrier: bool


@dataclass(frozen=True)
class SweepPoint:
    name: str
    topology: Mapping
    ranks: int
    imbalance: float


@dataclass(frozen=True)
class SweepSpec:
    """Strong-scaling sweep of one fixed workload across machine points.

    ``total_bytes`` of all-to-all traffic and ``compute_seconds_total`` of
    ideal single-rank compute are divided among each point's ranks; the
    imbalance factor inflates the slowest rank's compute share.
    """

    total_bytes: float
    compute_seconds_total: float
    schedule: ScheduleKind
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class RooflineSpec:
    machine: MachineModel
    kernels: tuple[KernelSample, ...]


@dataclass(frozen=True)
class EnergySpec:
    model: PowerModel
    configurations: tuple[tuple[str, float, float, int], ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    topology: Mapping
    workload: AlltoallJob | HaloJob | TimestepJob
    sweep: SweepSpec | None
    roofline: RooflineSpec | None
    energy: EnergySpec | None


# --- parsers ----------------------------------------------------------------

def _parse_schedule_list(doc: Mapping, path: str) -> tuple[ScheduleKind, ...]:
    raw = _get(doc, "schedules", list, path, default=None)
    if raw is None:
        return tuple(ScheduleKind)
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise ScenarioError("expected a schedule name", f"{path}.schedules[{i}]")
        out.append(_enum(item, ScheduleKind, f"{path}.schedules[{i}]"))
    if not out:
        raise ScenarioError("schedules must not be empty", f"{path}.schedules")
    return tuple(out)


def _parse_workload(doc: Mapping, path: str):
    kind = _get(doc, "kind", str, path)
    if kind == "alltoall":
        _check_keys(doc, ("kind", "ranks", "msg_bytes", "schedules"), path)
        ranks = _get(doc, "ranks", int, path)
        msg = _get(doc, "msg_bytes", float, path)
        if ranks < 1:
            raise ScenarioError("ranks must be >= 1", f"{path}.ranks")
        if msg < 0 or msg != int(msg):
            raise ScenarioError("msg_bytes must be a non-negative integer", f"{path}.msg_bytes")
        return AlltoallJob(ranks, int(msg), _parse_schedule_list(doc, path))
    if kind == "halo":
        _check_keys(
            doc,
            ("kind", "grid", "ranks", "steps", "mode", "schedule",
             "bytes_per_element", "compute_seconds"),
            path,
        )
        grid = _get(doc, "grid", str, path)
        ranks = _get(doc, "ranks", int, path)
        steps = _get(doc, "steps", int, path)
        mode = _enum(_get(doc, "mode", str, path, default=OverlapMode.NONE.value),
                     OverlapMode, f"{path}.mode")
        sched = _enum(
            _get(doc, "schedule", str, path, default=ScheduleKind.ROTATED_CONCURRENT.value),
            ScheduleKind, f"{path}.schedule")
        bpe = _get(doc, "bytes_per_element", float, path, default=8.0)
        comp = _get(doc, "compute_seconds", float, path, default=0.0)
        try:
            return HaloJob(grid, ranks, steps, mode, sched, bpe, comp)
        except ScenarioError as exc:
            raise ScenarioError(exc.message, f"{path}.{exc.path}") from None
    if kind == "timestep":
        _check_keys(doc, ("kind", "compute_seconds", "flows", "barrier"), path)
        comp_raw = _get(doc, "compute_seconds", list, path)
        comp = []
        for i, c in enumerate(comp_raw):
            if isinstance(c, bool) or not isinstance(c, (int, float)) or c < 0:
                raise ScenarioError("expected a non-negative number",
                                    f"{path}.compute_seconds[{i}]")
            comp.append(float(c))
        if not comp:
            raise ScenarioError("compute_seconds must not be empty", f"{path}.compute_seconds")
        flows_raw = _get(doc, "flows", list, path)
        flows = []
        for i, fd in enumerate(flows_raw):
            fp = f"{path}.flows[{i}]"
            fd = _expect_mapping(fd, fp)
            _check_keys(fd, ("src", "dst", "bytes", "phase"), fp)
            flows.append(Flow(
                id=i,
                src_rank=_get(fd, "src", int, fp),
                dst_rank=_get(fd, "dst", int, fp),
                bytes=_get(fd, "bytes", int, fp),
                phase=_get(fd, "phase", int, fp, default=0),
            ))
        return TimestepJob(tuple(comp), tuple(flows),
                           _get(doc, "barrier", bool, path, default=True))
    raise ScenarioError(f"unknown workload kind {kind!r}", f"{path}.kind")


def _parse_sweep(doc: Mapping, path: str) -> SweepSpec:
    _check_keys(doc, ("total_bytes", "compute_seconds_total", "schedule", "points"), path)
    total = _get(doc, "total_bytes", float, path)
    comp = _get(doc, "compute_seconds_total", float, path)
    if total <= 0:
        raise ScenarioError("total_bytes must be positive", f"{path}.total_bytes")
    if comp < 0:
        raise ScenarioError("compute_seconds_total must be >= 0", f"{path}.compute_seconds_total")
    sched = _enum(
        _get(doc, "schedule", str, path, default=ScheduleKind.ROTATED_CONCURRENT.value),
        ScheduleKind, f"{path}.schedule")
    pts_raw = _get(doc, "points", list, path)
    if not pts_raw:
        raise ScenarioError("points must not be empty", f"{path}.points")
    points = []
    names = set()
    for i, pd in enumerate(pts_raw):
        pp = f"{path}.points[{i}]"
        pd = _expect_mapping(pd, pp)
        _check_keys(pd, ("name", "topology", "ranks", "imbalance"), pp)
        name = _get(pd, "name", str, pp)
        if name in names:
            raise ScenarioError(f"duplicate point name {name!r}", f"{pp}.name")
        names.add(name)
        ranks = _get(pd, "ranks", int, pp)
        if ranks < 1:
            raise ScenarioError("ranks must be >= 1", f"{pp}.ranks")
        imb = _get(pd, "imbalance", float, pp, default=1.0)
        if imb < 1.0:
            raise ScenarioError("imbalance must be >= 1", f"{pp}.imbalance")
        topo = _expect_mapping(_get(pd, "topology", Mapping, pp), f"{pp}.topology")
        points.append(SweepPoint(name, topo, ranks, imb))
    return SweepSpec(total, comp, sched, tuple(points))


def _parse_roofline(doc: Mapping, path: str) -> RooflineSpec:
    _check_keys(doc, ("peak_gflops", "stream_gbps", "kernels"), path)
    machine = MachineModel(
        peak_flops=_get(doc, "peak_gflops", float, path, default=MachineModel().peak_flops / 1e9) * 1e9,
        stream_bandwidth=_get(doc, "stream_gbps", float, path,
                              default=MachineModel().stream_bandwidth / 1e9) * 1e9,
    )
    kernels_raw = _get(doc, "kernels", list, path)
    if not kernels_raw:
        raise ScenarioError("kernels must not be empty", f"{path}.kernels")
    kernels = []
    for i, kd in enumerate(kernels_raw):
        kp = f"{path}.kernels[{i}]"
        kd = _expect_mapping(kd, kp)
        _check_keys(kd, ("name", "flops", "bytes", "seconds"), kp)
        kernels.append(KernelSample(
            name=_get(kd, "name", str, kp),
            flops=_get(kd, "flops", float, kp),
            bytes_moved=_get(kd, "bytes", float, kp),
            seconds=_get(kd, "seconds", float, kp),
        ))
    return RooflineSpec(machine, tuple(kernels))


def _parse_energy(doc: Mapping, path: str) -> EnergySpec:
    _check_keys(doc, ("fit", "p_idle", "p_max", "configurations"), path)
    if "fit" in doc:
        if "p_idle" in doc or "p_max" in doc:
            raise ScenarioError("give either fit points or p_idle/p_max, not both",
                                f"{path}.fit")
        fit_raw = _get(doc, "fit", list, path)
        pts = []
        for i, pair in enumerate(fit_raw):
            fp = f"{path}.fit[{i}]"
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)):
                raise ScenarioError("expected [busy_fraction, watts]", fp)
            pts.append((float(pair[0]), float(pair[1])))
        model = fit_power_model(pts)
    else:
        model = PowerModel(
            p_idle=_get(doc, "p_idle", float, path, default=PowerModel().p_idle),
            p_max=_get(doc, "p_max", float, path, default=PowerModel().p_max),
        )
    confs_raw = _get(doc, "configurations", list, path)
    if not confs_raw:
        raise ScenarioError("configurations must not be empty", f"{path}.configurations")
    confs = []
    for i, cd in enumerate(confs_raw):
        cp = f"{path}.configurations[{i}]"
        cd = _expect_mapping(cd, cp)
        _check_keys(cd, ("name", "step_seconds", "busy_fraction", "devices"), cp)
        confs.append((
            _get(cd, "name", str, cp),
            _get(cd, "step_seconds", float, cp),
            _get(cd, "busy_fraction", float, cp),
            _get(cd, "devices", int, cp, default=1),
        ))
    return EnergySpec(model, tuple(confs))


def parse_scenario(doc: object) -> Scenario:
    """Validate a decoded scenario document and build the typed form."""
    doc = _expect_mapping(doc, "")
    _check_keys(
        doc,
        ("schema", "name", "seed", "topology", "workload", "sweep", "roofline", "energy"),
        "",
    )
    schema = _get(doc, "schema", int, "")
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {schema}", "schema")
    name = _get(doc, "name", str, "", default="scenario")
    seed = _get(doc, "seed", int, "", default=0)
    topology = _expect_mapping(_get(doc, "topology", Mapping, ""), "topology")
    workload = _parse_workload(
        _expect_mapping(_get(doc, "workload", Mapping, ""), "workload"), "workload")
    sweep = roofline = energy = None
    if "sweep" in doc:
        sweep = _parse_sweep(_expect_mapping(doc["sweep"], "sweep"), "sweep")
    if "roofline" in doc:
        roofline = _parse_roofline(_expect_mapping(doc["roofline"], "roofline"), "roofline")
    if "energy" in doc:
        energy = _parse_energy(_expect_mapping(doc["energy"], "energy"), "energy")
    return Scenario(name, seed, topology, workload, sweep, roofline, energy)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", str(path)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}", str(path)) from exc
    return parse_scenario(doc)
