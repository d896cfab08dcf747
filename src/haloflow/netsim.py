"""Deterministic flow-level interconnect simulation.

Transfers are modelled as fluid flows instead of packets.  Within one phase
every flow follows a fixed path; each link direction (and each copy engine)
gives every flow crossing it an equal share of its capacity, and a flow
runs at the smallest share it gets along its path.  Rates are recomputed
only when a flow, or one leg of a staged flow, completes.  A share that a
flow cannot use because it is held back elsewhere is not handed to the
other flows on that link, so the rule is neither max-min fair nor
work-conserving: a link can sit partly idle while flows crossing it wait.

A flow's completion time is its per-message latency (``alpha``) plus the
fluid transfer time, so a flow alone on its route finishes at exactly
``alpha + bytes / route_bandwidth``.  Zero-byte flows cost only latency.

Phases run strictly one after the other: phase ``p + 1`` starts at the
instant every flow of phase ``p`` has finished.

Self transfers (both ranks on one device) never touch the network; they
share the device's memory engine at ``device_mem_bw``.  In host-staged
mode a device-to-device transfer is broken into store-and-forward legs:
up to the source host bridge, one host-memory copy per bridge visited,
across to the destination bridge, and down to the device.  Host-memory
copies at one bridge share a ``host_mem_bw`` engine the same way links
share capacity.

Everything is pure float arithmetic over sorted containers, so repeated
runs are byte-identical and reordering the input flow list changes no
completion time.

A phase of several flows runs as an event loop.  Each step recomputes
only what can have changed: the rate of a flow whose leg just started or
that crosses a resource whose flow count changed, and the utilization sum
and peak of a resource whose flows or their rates changed.  A sum is still
taken over the resource's flows in flow-id order, the order of a full pass,
so it keeps its bits.  Each step's times to finish, progress and leg ends
are numpy operations over all the phase's flows, each doing the float
operation a loop over the flows would; Python visits only the flows whose
rate changed or whose leg ended, which is also where trace segments close.
A phase of one flow shares nothing, so each step of that loop would end
exactly one leg; ``simulate`` walks its route's legs in order instead,
with the loop's float operations in the loop's order, so the numbers and
the trace are the same bits.

With ``collect_events`` the result carries a trace: one ``FlowInterval``
per resource of a leg for every maximal run at constant rate of one flow
on that leg, so a flow that keeps its rate for its whole leg yields one
interval per resource however many rate changes other flows go through.
The run records one row per such run (times, flow, the leg's resources,
rate); ``SimResult.events`` is a read-only sequence over those rows that
builds the ``FlowInterval`` list the first time it is iterated or indexed.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from bisect import insort
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import reduce
from numbers import Real
from operator import add, attrgetter, index, itemgetter

import numpy as np

from .errors import ConfigurationError, ScenarioError, SimulationError
from .topology import NodeKind, RankMap, Topology, device, host_bridge

__all__ = [
    "Flow",
    "Staging",
    "SimConfig",
    "FlowInterval",
    "Trace",
    "SimResult",
    "TimestepScenario",
    "simulate",
    "simulate_timestep",
]


@dataclass(frozen=True)
class Flow:
    """One point-to-point transfer of ``bytes`` payload in a given phase."""

    id: int
    src_rank: int
    dst_rank: int
    bytes: int
    phase: int = 0


class Staging(enum.Enum):
    DEVICE_DIRECT = "device_direct"
    HOST_STAGED = "host_staged"


@dataclass(frozen=True)
class SimConfig:
    """Latency and staging knobs for one simulation run.

    ``alpha_intra`` applies to paths that stay inside one server,
    ``alpha_inter`` to paths crossing a NIC.  ``host_mem_bw`` is the
    per-bridge copy-engine bandwidth used by host-staged transfers.
    """

    alpha_intra: float = 1e-6
    alpha_inter: float = 1e-5
    staging: Staging = Staging.DEVICE_DIRECT
    host_mem_bw: float = 50e9
    collect_events: bool = True

    def __post_init__(self):
        if not (self.alpha_intra >= 0 and self.alpha_inter >= 0):  # nan too
            raise SimulationError("latencies must be non-negative")
        if not (self.host_mem_bw > 0) or not math.isfinite(self.host_mem_bw):
            raise SimulationError("host_mem_bw must be positive and finite")


@dataclass(frozen=True)
class FlowInterval:
    """A maximal constant-rate run of one flow on one resource, for replay checks."""

    t0: float
    t1: float
    flow_id: int
    resource: str
    rate: float


class Trace(Sequence):
    """A run's ``FlowInterval``s, kept as one record per closed segment.

    A segment is a maximal constant-rate run of one flow on one leg: its
    start, end, flow id, the leg's resources and its rate, in the order the
    segments closed.  ``len`` is counted as segments close; iterating or
    indexing builds the interval list (one per resource of each segment)
    once, and a trace compares equal to that list.
    """

    def __init__(self, names: Sequence[str] = ()):
        self._names = names  # resource int -> name
        self._t0 = array("d")
        self._t1 = array("d")
        self._flow: list[int] = []
        self._res: list[tuple[int, ...]] = []
        self._rate = array("d")
        self._len = 0
        self._intervals: list[FlowInterval] | None = None

    def _add(self, t0: float, t1: float, flow_id: int, res: tuple[int, ...],
             rate: float) -> None:
        """Record one closed segment."""
        self._t0.append(t0)
        self._t1.append(t1)
        self._flow.append(flow_id)
        self._res.append(res)
        self._rate.append(rate)
        self._len += len(res)

    def _shift(self, start: float) -> None:
        """Move every segment ``start`` later: each time ``t`` becomes ``start + t``."""
        self._t0 = array("d", [start + t for t in self._t0])
        self._t1 = array("d", [start + t for t in self._t1])
        self._intervals = None

    def _built(self) -> list[FlowInterval]:
        if self._intervals is None:
            names = self._names
            self._intervals = [
                FlowInterval(t0, t1, fid, names[r], rate)
                for t0, t1, fid, res, rate in zip(self._t0, self._t1, self._flow, self._res,
                                                  self._rate)
                for r in res
            ]
        return self._intervals

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            other = other._built()
        elif not isinstance(other, list):
            return NotImplemented
        return self._built() == other

    def __repr__(self) -> str:
        return f"<Trace of {self._len} intervals>"


@dataclass
class SimResult:
    flow_completion: dict[int, float]
    phase_completion: list[float]
    makespan: float
    busy_seconds: list[float]
    busy_fraction: list[float]
    link_peak_utilization: dict[str, float]
    events: Trace = field(default_factory=Trace)


@dataclass(frozen=True)
class TimestepScenario:
    """One application step: per-rank compute followed by phased flows among those ranks.

    Validated on construction, from Python or a scenario document: a bad
    value raises :class:`ScenarioError` whose ``path`` names the field, such
    as ``compute_seconds[1]`` or ``flows[0].dst``.  A flow field that is not
    a real number is left to ``simulate``'s own flow checks.
    """

    compute_seconds: tuple[float, ...]
    flows: tuple[Flow, ...] = ()
    barrier_at_end: bool = True

    def __post_init__(self):
        compute = []
        try:  # each value is checked before it is compared: only iteration raises these
            for i, c in enumerate(self.compute_seconds):
                # booleans are ints, but never numbers here; nan fails the comparison
                if (isinstance(c, bool) or not isinstance(c, Real)
                        or not 0 <= c <= sys.float_info.max):
                    raise ScenarioError("expected a non-negative number", f"compute_seconds[{i}]")
                compute.append(float(c))
        except TypeError:
            raise ScenarioError("expected a list of numbers", "compute_seconds") from None
        if not compute:
            raise ScenarioError("compute_seconds must not be empty", "compute_seconds")
        ranks = len(compute)
        try:
            flows = tuple(self.flows)
            for i, f in enumerate(flows):
                for key, value, upper in (("src", f.src_rank, ranks), ("dst", f.dst_rank, ranks),
                                          ("bytes", f.bytes, None), ("phase", f.phase, None)):
                    if not isinstance(value, Real):
                        continue
                    if upper is None and value < 0:
                        raise ScenarioError(f"{key} must be >= 0", f"flows[{i}].{key}")
                    if upper is not None and not 0 <= value < upper:
                        raise ScenarioError(f"{key} must be in [0, {upper})", f"flows[{i}].{key}")
        except TypeError:
            raise ScenarioError("expected a list of flows", "flows") from None
        except AttributeError:
            raise ScenarioError("expected a Flow", f"flows[{i}]") from None
        object.__setattr__(self, "compute_seconds", tuple(compute))
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "barrier_at_end", bool(self.barrier_at_end))


# ----------------------------------------------------------------------
# leg compilation
#
# A leg is (remaining, resources): seconds and () for the latency leg, bytes
# and a non-empty tuple of resource ints for a fluid leg.  A flow has an
# optional latency leg, then its route's fluid legs if it carries bytes.


class _Network:
    """The resources and routes one simulate() call touches, interned to ints.

    A resource is a link direction, a device's memory engine or a bridge's
    host-memory engine.  Link directions are found in a flat table indexed
    ``2 * link + forward``, memory engines by key, and each is named once;
    the event loop then indexes the parallel lists ``cap``, ``name``,
    ``members``, ``share`` and ``peak``.  Host-staged paths are found once per device
    (up to its nearest bridge as ``Topology.bridge_path`` kept it, down from
    the bridge's own search) and once per pair of bridges.  Flows reach it
    already checked: their ranks mapped to devices of the topology and their
    sizes finite (``_validate_flows``).
    """

    def __init__(self, topo: Topology, cfg: SimConfig):
        self.topo = topo
        self.cfg = cfg
        self.cap: list[float] = []
        self.name: list[str] = []
        self.enters_nic: list[bool] = []  # a link direction whose head is a NIC
        # the slots of the fluid legs crossing it now, in slot (flow id) order
        self.members: list[list[int]] = []
        self.share: list[float] = []      # cap / len(members), set when members change
        self.peak: list[float] = []       # peak utilization so far
        self.first_use: list[int] = []    # resources in the order their peak was first set
        self._link_res = [-1] * (2 * len(topo.links))
        self._engines: dict[tuple[str, int], int] = {}
        self._bridge_paths: dict[tuple[int, bool], tuple] = {}
        self._between_bridges: dict[tuple[int, int], tuple] = {}
        self._alone: dict[tuple[int, ...], float] = {}  # fluid leg -> rate alone on it

    def _resource(self, capacity: float, name: str, enters_nic: bool = False) -> int:
        self.cap.append(capacity)
        self.name.append(name)
        self.enters_nic.append(enters_nic)
        self.members.append([])
        self.share.append(0.0)
        self.peak.append(0.0)
        return len(self.cap) - 1

    def _engine(self, prefix: str, index: int, capacity: float) -> int:
        """The memory engine named ``prefix`` + ``index``."""
        r = self._engines.get((prefix, index))
        if r is None:
            r = self._engines[(prefix, index)] = self._resource(capacity, f"{prefix}{index}")
        return r

    def peak_by_name(self) -> dict[str, float]:
        # two parallel links between the same nodes share one name
        out: dict[str, float] = {}
        for r in self.first_use:
            name = self.name[r]
            out[name] = max(out.get(name, 0.0), self.peak[r])
        return out

    def alone(self, res: tuple[int, ...]) -> float:
        """The rate of a flow alone on fluid leg ``res``; raises the leg's peaks.

        As in the event loop, a resource the leg lists ``k`` times gives it
        ``cap / k`` and the rate is the smallest of those.  A resource's
        utilization is ``k`` copies of the rate summed from 0.0, over its
        capacity, and its peak is raised to that in the order the leg first
        lists the resources.  A leg listing each resource once takes one pass,
        ``min(cap)`` then ``rate / cap``: the same bits, as ``cap / 1`` and
        ``0.0 + rate`` are exact.  Peaks only grow, so a later call for the
        same leg would raise none: it returns the rate it kept.
        """
        rate = self._alone.get(res)
        if rate is None:
            cap, peak, first_use = self.cap, self.peak, self.first_use
            if len(set(res)) == len(res):
                rate = min([cap[r] for r in res])
                for r in res:
                    util = rate / cap[r]
                    if util > peak[r]:
                        if peak[r] == 0.0:
                            first_use.append(r)
                        peak[r] = util
            else:
                counts = Counter(res)  # in first-listing order
                rate = min([cap[r] / k for r, k in counts.items()])
                for r, k in counts.items():
                    util = reduce(add, [rate] * k, 0.0) / cap[r]
                    if util > peak[r]:
                        if peak[r] == 0.0:
                            first_use.append(r)
                        peak[r] = util
            self._alone[res] = rate
        return rate

    def _route(self, src_dev: int, dst_dev: int) -> tuple[float, tuple]:
        """Latency and fluid-leg resources of any flow from ``src_dev`` to ``dst_dev``."""
        topo, cfg = self.topo, self.cfg
        if src_dev == dst_dev:
            return cfg.alpha_intra, ((self._engine("devmem:device:", src_dev,
                                                   topo.device_mem_bw),),)
        if cfg.staging is Staging.DEVICE_DIRECT:
            res, inter_node = self._path(topo.route_hops(src_dev, dst_dev))
            return (cfg.alpha_inter if inter_node else cfg.alpha_intra), (res,)

        # host-staged: up to the source bridge, a host copy there, across to
        # the destination bridge and a copy there, then down to the device;
        # no leg is empty, since a device is never a bridge
        hb_s, up, nic_up = self._bridge_path(src_dev, True)
        hb_d, down, nic_down = self._bridge_path(dst_dev, False)
        between, nic_between = self._between(hb_s, hb_d)
        inter_node = nic_up or nic_down or nic_between
        return (cfg.alpha_inter if inter_node else cfg.alpha_intra), (up, *between, down)

    def _bridge_path(self, dev: int, up: bool) -> tuple[int, tuple[int, ...], bool]:
        """A device's nearest bridge index and the path up to it (or down from it)."""
        got = self._bridge_paths.get((dev, up))
        if got is None:
            hb, hops = self.topo.bridge_path(dev)
            if not up:  # the bridge's own search, which may tie-break differently
                hops = self.topo.path_hops(hb, device(dev))
            got = self._bridge_paths[(dev, up)] = (hb.index, *self._path(hops))
        return got

    def _between(self, hb_s: int, hb_d: int) -> tuple[tuple[tuple[int, ...], ...], bool]:
        """The legs from the host copy at one bridge to the copy at another
        (one copy if they are the same), and whether they enter a NIC."""
        got = self._between_bridges.get((hb_s, hb_d))
        if got is None:
            bw = self.cfg.host_mem_bw
            copy_s = (self._engine("hostmem:hostbridge:", hb_s, bw),)
            if hb_s == hb_d:
                got = (copy_s,), False
            else:
                hops = self.topo.path_hops(host_bridge(hb_s), host_bridge(hb_d))
                across, nic = self._path(hops)
                got = (copy_s, across, (self._engine("hostmem:hostbridge:", hb_d, bw),)), nic
            self._between_bridges[(hb_s, hb_d)] = got
        return got

    def _path(self, hops) -> tuple[tuple[int, ...], bool]:
        """Link resources along ``hops`` and whether the walk enters a NIC."""
        table, enters_nic = self._link_res, self.enters_nic
        res = []
        nic = False
        for li, fwd in hops:
            k = 2 * li + fwd
            r = table[k]
            if r < 0:
                ln = self.topo.links[li]
                a, b = (ln.a, ln.b) if fwd else (ln.b, ln.a)
                r = table[k] = self._resource(ln.capacity, f"{a}->{b}", b.kind is NodeKind.NIC)
            res.append(r)
            nic = nic or enters_nic[r]
        return tuple(res), nic


# ----------------------------------------------------------------------
# event loop


_FLOW_ID = attrgetter("id")
_EXACT_SIZE = 1 << 1023  # every int below converts to a finite double


def _run_phase(
    t0: float,
    flows: list[tuple[int, tuple[float, tuple], float]],
    net: _Network,
    trace: Trace | None,
) -> tuple[float, dict[int, float]]:
    """Run one phase of (flow id, route, bytes) to completion; returns (end
    time, completion per flow id).

    Each step gives every fluid flow the smallest ``cap / count`` along its
    leg, advances all flows by the time the first leg needs to finish, and
    retires the legs that finished.  A rate is recomputed only for a flow
    whose leg started or crosses a resource whose member count changed, and
    a utilization sum and peak only for a resource whose members or their
    rates changed; the rest keep their bits.

    A flow's slot is its index in ``flows``, which come in flow-id order.
    What is left of each flow's leg (seconds or bytes) and its rate are two
    float64 arrays by slot; a latency leg has rate 1.0, since ``x / 1.0``
    and ``1.0 * dt`` are exact, and a finished flow has ``+inf`` left.  A
    step's time to the first leg end, its progress and its leg ends are
    array operations doing a per-flow loop's float operations (a divide,
    then a multiply and a subtract), so they keep its bits; Python visits
    only the flows whose rate changed or whose leg ended.

    With ``trace`` each maximal constant-rate run of a flow on one leg is
    recorded, as one segment.  A step that moves the clock closes the
    segment of a flow whose rate now differs from it (at the step's start)
    and opens one at the new rate; a step of ``dt == 0`` opens none.  A leg
    end closes its flow's segment at the step's end.  Within a step the
    closes run in slot order, a flow's rate-change close before its leg-end
    close.  ``simulate`` runs only phases of two or more flows here; it
    walks a phase of one flow itself.
    """
    cap, members, share, peak, first_use = net.cap, net.members, net.share, net.peak, net.first_use
    n = len(flows)
    done: dict[int, float] = {}
    ids = [fid for fid, _, _ in flows]
    size = [nbytes for _, _, nbytes in flows]
    legs: list = [()] * n                  # a live flow's fluid legs; None once it finished
    leg_idx = [0] * n                      # the current leg, -1 for the latency leg
    res: list[tuple[int, ...]] = [()] * n  # the current leg's resources, () for latency
    get: list = [None] * n                 # a getter of the fluid leg's shares, as a tuple
    rates = [1.0] * n                      # ``rate`` as Python floats, for the sums
    remaining = np.full(n, math.inf)
    rate = np.ones(n)
    seg_t0 = [0.0] * n
    seg_rate = [0.0] * n                   # the open segment's rate; 0.0 means none
    # resources whose members changed since the last step (then also those
    # whose members' rates changed), newly used ones in first-crossed order
    dirty: dict[int, None] = {}
    stale: dict[int, None] = {}
    # traced flows whose rate may differ from their open segment's: a fluid
    # leg started or the rate changed since the clock last moved
    check: set[int] = set()
    tracing = trace is not None

    def enter(s: int, k: int) -> None:
        """Start fluid leg ``k`` of the flow in slot ``s``."""
        leg_idx[s] = k
        remaining[s] = float(size[s])
        res[s] = lr = legs[s][k]
        # the getter lists the first resource once more, so that a leg of one
        # resource also gets a tuple; it changes no minimum
        get[s] = itemgetter(*lr, lr[0])
        for r in lr:
            insort(members[r], s)
            dirty[r] = None
        if tracing:
            check.add(s)

    live = 0
    for s, (fid, (alpha, fluid), nbytes) in enumerate(flows):
        if nbytes > 0:
            legs[s] = fluid
        if alpha > 0:
            leg_idx[s] = -1
            remaining[s] = alpha
        elif nbytes > 0:
            enter(s, 0)
        else:
            done[fid] = t0
            continue
        live += 1

    t = t0
    while live:
        for r in dirty:
            if members[r]:
                share[r] = cap[r] / len(members[r])
                for s in members[r]:
                    stale[s] = None
        for s in stale:
            new = min(get[s](share))
            if new != rates[s]:
                rates[s] = rate[s] = new
                for r in res[s]:
                    dirty[r] = None
                if tracing:
                    check.add(s)
        stale.clear()
        for r in dirty:
            slots = members[r]
            if slots:
                # members are kept in slot order, the order a full pass over
                # the active flows would sum them in
                used = 0.0
                for s in slots:
                    used += rates[s]
                util = used / cap[r]
                if util > peak[r]:
                    if peak[r] == 0.0:
                        first_use.append(r)
                    peak[r] = util
        dirty.clear()

        q = remaining / rate
        dt = float(q[q.argmin()])
        remaining -= rate * dt
        ended = ((q == dt) | (remaining <= 0.0)).nonzero()[0].tolist()
        if dt == math.inf:
            # every quotient overflowed, and the finished flows' match too:
            # they keep +inf left (inf - inf made it nan) and end no leg
            remaining[[s for s in ended if legs[s] is None]] = math.inf
            ended = [s for s in ended if legs[s] is not None]
        t_end = t + dt

        if tracing:
            if dt > 0.0 and check:
                closing = set(ended)
                for s in sorted(check.union(closing)):
                    if s in check and seg_rate[s] != rates[s]:
                        if seg_rate[s]:
                            trace._add(seg_t0[s], t, ids[s], res[s], seg_rate[s])
                        seg_t0[s], seg_rate[s] = t, rates[s]
                    if s in closing and seg_rate[s]:
                        trace._add(seg_t0[s], t_end, ids[s], res[s], seg_rate[s])
                        seg_rate[s] = 0.0
                check.clear()
            else:
                for s in ended:
                    if seg_rate[s]:
                        trace._add(seg_t0[s], t_end, ids[s], res[s], seg_rate[s])
                        seg_rate[s] = 0.0

        for s in ended:
            for r in res[s]:
                members[r].remove(s)
                dirty[r] = None
            k = leg_idx[s] + 1
            if k < len(legs[s]):
                enter(s, k)
            else:
                done[ids[s]] = t_end
                remaining[s] = math.inf
                legs[s] = get[s] = None
                res[s] = ()
                check.discard(s)
                live -= 1
        t = t_end
    return t, done


def _validate_flows(topo: Topology, devs: tuple[int, ...],
                    flows: Sequence[Flow]) -> list[list[Flow]]:
    """Check ids, ranks, devices, sizes and phase numbering; returns flows
    grouped by phase.  ``devs`` is the rank map as a tuple.  A plain ``int``
    in range passes with one comparison; any other value takes the general
    check, which names the flow when it fails."""
    nranks = len(devs)
    known = frozenset(topo.devices)
    ids = set()
    try:
        for f in flows:
            fid, src, dst, size, phase = f.id, f.src_rank, f.dst_rank, f.bytes, f.phase
            if type(fid) is not int:
                _integer(fid, "id", fid)
            if fid in ids:
                raise SimulationError(f"duplicate flow id {fid}")
            ids.add(fid)
            if not (type(src) is type(dst) is int and 0 <= src < nranks and 0 <= dst < nranks):
                for rank in (src, dst):
                    if not 0 <= _integer(fid, "rank", rank) < nranks:
                        raise ConfigurationError(f"rank {rank} outside rank map of size {nranks}")
                src, dst = index(src), index(dst)
            if devs[src] not in known or devs[dst] not in known:
                raise SimulationError(
                    f"flow {fid} maps to device {devs[src]} or {devs[dst]} absent from the topology"
                )
            if not (type(phase) is int and phase >= 0) and _integer(fid, "phase", phase) < 0:
                raise SimulationError(f"flow {fid} has negative phase")
            if not (type(size) is int and 0 <= size < _EXACT_SIZE):
                try:
                    if size < 0:
                        raise SimulationError(f"flow {fid} has negative size")
                    finite = math.isfinite(size)
                except TypeError:
                    raise SimulationError(f"flow {fid} has non-real size {size!r}") from None
                except OverflowError:
                    raise SimulationError(f"flow {fid} has a size beyond double range") from None
                if not finite:
                    raise SimulationError(f"flow {fid} has non-finite size {size!r}")
    except AttributeError:  # the fields are read first, so only a non-Flow gets here
        raise SimulationError(f"flows must hold Flow objects, not {type(f).__name__}") from None
    phases = sorted({f.phase for f in flows})
    if phases and phases != list(range(phases[-1] + 1)):
        raise SimulationError(f"phases must form a contiguous 0..k range, got {phases}")
    grouped: list[list[Flow]] = [[] for _ in phases]
    for f in sorted(flows, key=_FLOW_ID):
        grouped[f.phase].append(f)
    return grouped


def _integer(fid, field: str, value) -> int:
    try:
        return index(value)
    except TypeError:
        raise SimulationError(f"flow {fid} has non-integer {field} {value!r}") from None


def simulate(
    topo: Topology,
    rank_map: RankMap | Sequence[int],
    flows: Sequence[Flow],
    cfg: SimConfig | None = None,
) -> SimResult:
    """Run all phases of ``flows`` and return completion times and load stats.

    Busy seconds for a rank count every instant at which the rank has at
    least one of its own flows (as source or destination) still in flight;
    the fraction divides by the makespan.
    """
    rm = rank_map if isinstance(rank_map, RankMap) else RankMap(rank_map)
    cfg = cfg or SimConfig()
    devs = tuple(rm)
    grouped = _validate_flows(topo, devs, flows)

    net = _Network(topo, cfg)
    trace = Trace(net.name)
    record = trace if cfg.collect_events else None
    route, alone = net._route, net.alone
    completion: dict[int, float] = {}
    phase_completion: list[float] = []

    t = 0.0
    rank_busy = [0.0] * len(devs)
    for phase_flows in grouped:
        if len(phase_flows) == 1:
            # the event loop would end one leg of a lone flow per step, at its
            # ``alone`` rate; consecutive legs share no resource (link paths and
            # memory engines alternate), so ``alone`` raises peaks in its order
            (f,) = phase_flows
            src, dst = f.src_rank, f.dst_rank
            alpha, fluid = route(devs[src], devs[dst])
            end = t + alpha
            if f.bytes > 0:
                nbytes = float(f.bytes)
                for res in fluid:
                    rate = alone(res)
                    dt = nbytes / rate
                    t_end = end + dt
                    if record is not None and dt > 0.0:
                        record._add(end, t_end, f.id, res, rate)
                    end = t_end
            completion[f.id] = end
            rank_busy[src] += end - t
            if dst != src:
                rank_busy[dst] += end - t
        else:
            end, done = _run_phase(
                t, [(f.id, route(devs[f.src_rank], devs[f.dst_rank]), f.bytes)
                    for f in phase_flows], net, record)
            completion.update(done)
            # one contiguous busy interval per rank per phase: every flow of
            # the phase starts at the phase start, so the union is the max end
            ends: dict[int, float] = {}
            for f in phase_flows:
                for r in (f.src_rank, f.dst_rank):
                    ends[r] = max(ends.get(r, t), done[f.id])
            for r, e in ends.items():
                rank_busy[r] += e - t
        phase_completion.append(end)
        t = end

    return SimResult(
        flow_completion=completion,
        phase_completion=phase_completion,
        makespan=t,
        busy_seconds=rank_busy,
        busy_fraction=[b / t if t > 0 else 0.0 for b in rank_busy],
        link_peak_utilization=net.peak_by_name(),
        events=trace,
    )


def simulate_timestep(
    topo: Topology,
    rank_map: RankMap | Sequence[int],
    scenario: TimestepScenario,
    cfg: SimConfig | None = None,
) -> SimResult:
    """Simulate compute followed by communication for one application step.

    Every rank computes for its own ``compute_seconds`` entry; the
    communication phase starts once the slowest rank has finished (the
    data dependency acts as a barrier in front of the collective).  With
    ``barrier_at_end`` the step ends for everyone at the global makespan
    and busy fractions divide by it; without it each rank's fraction
    divides by its own finish time.

    The flows run as ``simulate`` runs them, from 0.  Every instant it
    reports (each flow's and phase's completion, the makespan, and each
    trace interval's ``t0`` and ``t1``) is then shifted by one addition,
    ``start + t``, where ``start`` is the slowest rank's compute time.
    """
    rm = rank_map if isinstance(rank_map, RankMap) else RankMap(rank_map)
    compute = scenario.compute_seconds
    if len(compute) != rm.nranks:
        raise SimulationError(
            f"compute_seconds has {len(compute)} entries for {rm.nranks} ranks"
        )

    comm = simulate(topo, rm, scenario.flows, cfg)
    start = max(compute)
    completion = {fid: start + t for fid, t in comm.flow_completion.items()}
    comm.events._shift(start)
    makespan = start + comm.makespan
    busy = [compute[r] + comm.busy_seconds[r] for r in range(rm.nranks)]
    if scenario.barrier_at_end:
        fractions = [b / makespan if makespan > 0 else 0.0 for b in busy]
    else:
        own_end = list(compute)
        for f in scenario.flows:
            end = completion[f.id]
            for r in (f.src_rank, f.dst_rank):
                if end > own_end[r]:
                    own_end[r] = end
        fractions = [b / e if e > 0 else 0.0 for b, e in zip(busy, own_end)]
    return replace(comm, flow_completion=completion,
                   phase_completion=[start + t for t in comm.phase_completion],
                   makespan=makespan, busy_seconds=busy, busy_fraction=fractions)
