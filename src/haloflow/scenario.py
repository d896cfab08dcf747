"""Scenario documents: validated JSON descriptions of one experiment.

A scenario bundles a topology, one workload, and optional sweep, roofline
and energy sections.  Validation is strict: unknown keys (topology keys
too), a NaN or infinity anywhere, a string UTF-8 cannot encode and a name
XML cannot carry are rejected, and every complaint carries the dotted path
of the offending field, a missing key's own path included.  The parser
checks the document's shape (its keys, which value is an object, a list or
a string, and that a number is a number) with the checks ``errors`` keeps,
the ones the topology spec check uses too.  The typed sections'
constructors check each numeric field's type and value through
``errors.number``, so a job built from CLI flags or in Python is refused
exactly where a document would be, and the parser prefixes their field
paths with the section's path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Mapping

from .collectives import ScheduleKind
from .errors import (ConfigurationError, ScenarioError, UndefinedIntensityError, check_keys, get,
                     mapping, number, objects)
from .halo import GlobalGrid, OverlapMode, quad_mesh, random_grid, ring
from .halo.grid import check_quad_mesh, check_random_grid, check_ring
from .netsim import Flow, TimestepScenario
from .topology import check_spec
from .perfmodel import MachineModel, KernelSample, arithmetic_intensity
from .energy import PowerModel, energy_per_step, fit_power_model

__all__ = [
    "SCHEMA_VERSION",
    "AlltoallJob",
    "HaloJob",
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


def _at(prefix: str, build, *args):
    """``build(*args)``, with ``prefix`` put before the path of a ScenarioError it raises."""
    try:
        return build(*args)
    except ScenarioError as exc:
        raise ScenarioError(exc.message, f"{prefix}.{exc.path}" if exc.path else prefix) from None


def _checked(path: str, build, *args):
    """``build(*args)``, re-raising a model check's error as a ScenarioError at ``path``;
    the model's own field names are in its message, not in the document."""
    try:
        return build(*args)
    except (ConfigurationError, UndefinedIntensityError) as exc:
        raise ScenarioError(exc.message, path) from None


def _kernel(name: str, flops: float, bytes_moved: float, seconds: float) -> KernelSample:
    """A kernel sample that has a place on the roofline: it moves bytes."""
    kernel = KernelSample(name, flops, bytes_moved, seconds)
    arithmetic_intensity(kernel.flops, kernel.bytes_moved)
    return kernel


# UTF-8 cannot encode a lone surrogate, which ``json`` decodes from "\ud800"
_SURROGATE = re.compile("[\ud800-\udfff]")
# characters outside XML 1.0's Char production, surrogates aside; names are
# written into SVG
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _check_values(doc: object) -> None:
    """Reject values no section may hold, wherever they are.

    These are NaN, infinities (``json`` decodes ``1e400`` to inf), ints
    beyond float range, strings UTF-8 cannot encode, and a ``name`` holding
    a character XML 1.0 cannot carry.  The walk keeps its own stack, so no
    nesting depth that ``json`` decodes can exhaust Python's recursion
    limit; the first bad value in document order is reported.  A bool is
    no number, but a document may hold one, so it is not checked here.
    """
    stack = [(doc, "")]
    while stack:
        value, path = stack.pop()
        if isinstance(value, float) or type(value) is int:
            number(value, path)
        elif isinstance(value, str):
            if _SURROGATE.search(value):
                raise ScenarioError("expected text UTF-8 can encode, got a lone surrogate", path)
            bad = (path == "name" or path.endswith(".name")) and _NOT_XML.search(value)
            if bad:
                raise ScenarioError(f"a name may not hold U+{ord(bad.group()):04X}, "
                                    "which XML 1.0 cannot carry", path)
            continue
        if isinstance(value, Mapping):
            subs = [(sub, f"{path}.{key}" if path else str(key)) for key, sub in value.items()]
        elif isinstance(value, (list, tuple)):
            subs = [(sub, f"{path}[{i}]") for i, sub in enumerate(value)]
        else:
            continue
        stack.extend(reversed(subs))


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
    """One uniform all-to-all; validated on construction, from flags or a scenario.

    ``msg_bytes`` may be given as an integral float; it is stored as an int.
    """

    ranks: int
    msg_bytes: int
    schedules: tuple[ScheduleKind, ...] = tuple(ScheduleKind)

    def __post_init__(self):
        object.__setattr__(self, "ranks", number(self.ranks, "ranks", integer=True, low=1))
        msg = number(self.msg_bytes, "msg_bytes")
        if not (msg >= 0 and msg.is_integer()):
            raise ScenarioError("msg_bytes must be a non-negative integer", "msg_bytes")
        # an int stays exact; a whole float becomes its int
        whole = int(self.msg_bytes) if isinstance(self.msg_bytes, Integral) else int(msg)
        object.__setattr__(self, "msg_bytes", whole)


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
    mode: OverlapMode = OverlapMode.NONE
    schedule: ScheduleKind = ScheduleKind.ROTATED_CONCURRENT
    bytes_per_element: float = 8.0
    compute_seconds: float = 0.0

    def __post_init__(self):
        _build, check_args, args = _grid_recipe(self.grid)
        check_args(*args)
        object.__setattr__(self, "ranks", number(self.ranks, "ranks", integer=True, low=1))
        object.__setattr__(self, "steps", number(self.steps, "steps", integer=True, low=0))
        object.__setattr__(self, "bytes_per_element", number(
            self.bytes_per_element, "bytes_per_element", low=0, low_open=True))
        object.__setattr__(self, "compute_seconds",
                           number(self.compute_seconds, "compute_seconds", low=0))


@dataclass(frozen=True)
class SweepPoint:
    name: str
    topology: Mapping
    ranks: int
    imbalance: float

    def __post_init__(self):
        object.__setattr__(self, "ranks", number(self.ranks, "ranks", integer=True, low=1))
        object.__setattr__(self, "imbalance", number(self.imbalance, "imbalance", low=1))
        _at("topology", check_spec, self.topology)


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

    def __post_init__(self):
        object.__setattr__(self, "total_bytes",
                           number(self.total_bytes, "total_bytes", low=0, low_open=True))
        object.__setattr__(self, "compute_seconds_total",
                           number(self.compute_seconds_total, "compute_seconds_total", low=0))
        if not self.points:
            raise ScenarioError("points must not be empty", "points")
        names = [p.name for p in self.points]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ScenarioError(f"duplicate point name {name!r}", f"points[{i}].name")


@dataclass(frozen=True)
class RooflineSpec:
    machine: MachineModel
    kernels: tuple[KernelSample, ...]

    def __post_init__(self):
        if not self.kernels:
            raise ScenarioError("kernels must not be empty", "kernels")


@dataclass(frozen=True)
class EnergySpec:
    """A power model and the (name, step_seconds, busy_fraction, devices) it bills.

    Each configuration is billed once here, so the model's checks fail at its path.
    """

    model: PowerModel
    configurations: tuple[tuple[str, float, float, int], ...]

    def __post_init__(self):
        if not self.configurations:
            raise ScenarioError("configurations must not be empty", "configurations")
        for i, (_name, step_seconds, busy_fraction, devices) in enumerate(self.configurations):
            at = f"configurations[{i}]"
            watts = _checked(at, self.model.predict, busy_fraction)
            _checked(at, energy_per_step, watts, step_seconds, devices)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    topology: Mapping
    workload: AlltoallJob | HaloJob | TimestepScenario
    sweep: SweepSpec | None = None
    roofline: RooflineSpec | None = None
    energy: EnergySpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", number(self.seed, "seed", integer=True, low=0))
        _at("topology", check_spec, self.topology)


# --- parsers ----------------------------------------------------------------

def _parse_schedule_list(doc: Mapping, path: str) -> tuple[ScheduleKind, ...]:
    raw = get(doc, "schedules", list, path, default=None)
    if raw is None:
        return AlltoallJob.schedules
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise ScenarioError("expected a schedule name", f"{path}.schedules[{i}]")
        out.append(_enum(item, ScheduleKind, f"{path}.schedules[{i}]"))
    if not out:
        raise ScenarioError("schedules must not be empty", f"{path}.schedules")
    return tuple(out)


def _parse_workload(doc: Mapping, path: str):
    kind = get(doc, "kind", str, path)
    if kind == "alltoall":
        check_keys(doc, ("kind", "ranks", "msg_bytes", "schedules"), path)
        return _at(path, AlltoallJob, get(doc, "ranks", int, path),
                   get(doc, "msg_bytes", float, path), _parse_schedule_list(doc, path))
    if kind == "halo":
        check_keys(doc, ("kind", "grid", "ranks", "steps", "mode", "schedule",
                         "bytes_per_element", "compute_seconds"), path)
        grid = get(doc, "grid", str, path)
        ranks = get(doc, "ranks", int, path)
        steps = get(doc, "steps", int, path)
        mode = _enum(get(doc, "mode", str, path, default=HaloJob.mode.value),
                     OverlapMode, f"{path}.mode")
        sched = _enum(get(doc, "schedule", str, path, default=HaloJob.schedule.value),
                      ScheduleKind, f"{path}.schedule")
        bpe = get(doc, "bytes_per_element", float, path, default=HaloJob.bytes_per_element)
        comp = get(doc, "compute_seconds", float, path, default=HaloJob.compute_seconds)
        return _at(path, HaloJob, grid, ranks, steps, mode, sched, bpe, comp)
    if kind == "timestep":
        check_keys(doc, ("kind", "compute_seconds", "flows", "barrier"), path)
        comp = get(doc, "compute_seconds", list, path)
        flows = [Flow(i, get(fd, "src", int, fp), get(fd, "dst", int, fp),
                      get(fd, "bytes", int, fp), get(fd, "phase", int, fp, default=0))
                 for i, (fd, fp) in enumerate(
                     objects(doc, "flows", ("src", "dst", "bytes", "phase"), path))]
        return _at(path, TimestepScenario, comp, flows,
                   get(doc, "barrier", bool, path, default=True))
    raise ScenarioError(f"unknown workload kind {kind!r}", f"{path}.kind")


def _parse_sweep(doc: Mapping, path: str) -> SweepSpec:
    check_keys(doc, ("total_bytes", "compute_seconds_total", "schedule", "points"), path)
    total = get(doc, "total_bytes", float, path)
    comp = get(doc, "compute_seconds_total", float, path)
    sched = _enum(
        get(doc, "schedule", str, path, default=ScheduleKind.ROTATED_CONCURRENT.value),
        ScheduleKind, f"{path}.schedule")
    points = [_at(pp, SweepPoint, get(pd, "name", str, pp), get(pd, "topology", Mapping, pp),
                  get(pd, "ranks", int, pp), get(pd, "imbalance", float, pp, default=1.0))
              for pd, pp in objects(doc, "points", ("name", "topology", "ranks", "imbalance"),
                                    path)]
    return _at(path, SweepSpec, total, comp, sched, tuple(points))


def _parse_roofline(doc: Mapping, path: str) -> RooflineSpec:
    check_keys(doc, ("peak_gflops", "stream_gbps", "kernels"), path)
    default = MachineModel()
    machine = _checked(
        path, MachineModel,
        get(doc, "peak_gflops", float, path, default=default.peak_flops / 1e9) * 1e9,
        get(doc, "stream_gbps", float, path, default=default.stream_bandwidth / 1e9) * 1e9)
    kernels = [_checked(kp, _kernel, get(kd, "name", str, kp), get(kd, "flops", float, kp),
                        get(kd, "bytes", float, kp), get(kd, "seconds", float, kp))
               for kd, kp in objects(doc, "kernels", ("name", "flops", "bytes", "seconds"), path)]
    return _at(path, RooflineSpec, machine, tuple(kernels))


def _parse_energy(doc: Mapping, path: str) -> EnergySpec:
    check_keys(doc, ("fit", "p_idle", "p_max", "configurations"), path)
    if "fit" in doc:
        if "p_idle" in doc or "p_max" in doc:
            raise ScenarioError("give either fit points or p_idle/p_max, not both",
                                f"{path}.fit")
        fit_raw = get(doc, "fit", list, path)
        pts = []
        for i, pair in enumerate(fit_raw):
            fp = f"{path}.fit[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError("expected [busy_fraction, watts]", fp)
            pts.append((number(pair[0], f"{fp}[0]"), number(pair[1], f"{fp}[1]")))
        model = _checked(f"{path}.fit", fit_power_model, pts)
    else:
        model = _checked(path, PowerModel,
                         get(doc, "p_idle", float, path, default=PowerModel().p_idle),
                         get(doc, "p_max", float, path, default=PowerModel().p_max))
    confs = [(get(cd, "name", str, cp), get(cd, "step_seconds", float, cp),
              get(cd, "busy_fraction", float, cp), get(cd, "devices", int, cp, default=1))
             for cd, cp in objects(doc, "configurations",
                                   ("name", "step_seconds", "busy_fraction", "devices"), path)]
    return _at(path, EnergySpec, model, tuple(confs))


def parse_scenario(doc: object) -> Scenario:
    """Validate a decoded scenario document and build the typed form."""
    _check_values(doc)
    doc = mapping(doc, "")
    check_keys(doc, ("schema", "name", "seed", "topology", "workload", "sweep", "roofline",
                      "energy"), "")
    schema = get(doc, "schema", int, "")
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {schema}", "schema")
    name = get(doc, "name", str, "", default="scenario")
    seed = get(doc, "seed", int, "", default=0)
    topology = get(doc, "topology", Mapping, "")
    workload = _parse_workload(get(doc, "workload", Mapping, ""), "workload")
    sweep = roofline = energy = None
    if "sweep" in doc:
        sweep = _parse_sweep(mapping(doc["sweep"], "sweep"), "sweep")
    if "roofline" in doc:
        roofline = _parse_roofline(mapping(doc["roofline"], "roofline"), "roofline")
    if "energy" in doc:
        energy = _parse_energy(mapping(doc["energy"], "energy"), "energy")
    return Scenario(name, seed, topology, workload, sweep, roofline, energy)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", str(path)) from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"invalid JSON: {exc}", str(path)) from exc
    return parse_scenario(doc)
