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
fluid transfer time, so a flow with its route to itself finishes at exactly
``alpha + bytes / route_bandwidth``.  Zero-byte flows cost only latency.

Phases run strictly one after the other: phase ``p + 1`` starts at the
instant every flow of phase ``p`` has finished.

The topology owns every resource a run reads: it numbers them (its
compiled routes list link directions by id, and each node's memory engine
follows them), names them, and keeps each device's legs to and from its
nearest bridge, all made once per machine.  A run owns only its solver
state, and picks one route function for its staging when it starts, so
no flow tests the staging.  Before any phase runs, one pass checks every
flow and groups it by phase.

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
exactly one leg, at the leg's smallest capacity; ``simulate`` walks its
route's legs in order instead, with the loop's float operations in the
loop's order, so the numbers and the trace are the same bits.  A given
route listing a link direction ``k`` times gets ``cap / k`` from it, so a
topology holding one runs every phase in the loop.

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
from array import array
from bisect import insort
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from numbers import Real
from operator import attrgetter, itemgetter

import numpy as np

from .errors import ConfigurationError, ScenarioError, SimulationError, number
from .topology import RankMap, Topology

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
    per-bridge copy-engine bandwidth used by host-staged transfers.  A
    latency must be finite and >= 0 and the bandwidth finite and positive;
    any other value, or one of the wrong type, raises
    :class:`SimulationError` naming its field.  They are kept as floats.
    """

    alpha_intra: float = 1e-6
    alpha_inter: float = 1e-5
    staging: Staging = Staging.DEVICE_DIRECT
    host_mem_bw: float = 50e9
    collect_events: bool = True

    def __post_init__(self):
        if not isinstance(self.staging, Staging):
            raise SimulationError(f"staging must be a Staging member, not {self.staging!r}")
        for name, low_open in (("alpha_intra", False), ("alpha_inter", False),
                               ("host_mem_bw", True)):
            object.__setattr__(self, name, number(getattr(self, name), name, low=0,
                                                  low_open=low_open, error=SimulationError))
        if type(self.collect_events) is not bool:
            raise SimulationError(f"collect_events must be a bool, not {self.collect_events!r}")


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
        self._names = names  # by resource id
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
        try:  # the checker raises no TypeError: only iteration does
            compute = [number(c, f"compute_seconds[{i}]", low=0)
                       for i, c in enumerate(self.compute_seconds)]
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
# A fluid leg is a compiled route (resource ints, whether it enters a NIC,
# its rate unshared): a route of link directions as the topology compiled it,
# or one memory engine at its capacity.  A flow has an optional latency leg,
# then its route's fluid legs if it carries bytes.


class _Network:
    """One simulate() call's solver state, and what depends on its config.

    The topology owns the resource ids, their names and each device's
    bridge legs.  A run keeps the lists the event loop indexes by id
    (``cap``: the topology's capacities, then ``host_mem_bw`` for each
    bridge's engine; ``members``, ``share``, ``peak``), ``first_use``, and
    the legs between two bridges' host copies.  ``route`` is picked once,
    for the run's staging.  Flows reach it already checked: their ranks
    mapped to devices of the topology and their sizes finite.
    """

    def __init__(self, topo: Topology, cfg: SimConfig):
        self.topo = topo
        self.cfg = cfg
        self.engine0 = 2 * len(topo.links)  # the memory engine of node k is engine0 + k
        self.cap: list[float] = topo._capacity + [cfg.host_mem_bw] * len(topo._bridge_ids)
        # the slots of the fluid legs crossing it now, in slot (flow id) order
        self.members: list[list[int]] = [[] for _ in self.cap]
        self.share = [0.0] * len(self.cap)  # cap / len(members), set when members change
        self.peak = [0.0] * len(self.cap)   # peak utilization so far
        self.first_use: list[int] = []    # resources in the order their peak was first set
        self._alpha = (cfg.alpha_intra, cfg.alpha_inter)  # by whether a route enters a NIC
        if cfg.staging is Staging.HOST_STAGED:
            # by (bridge, bridge) node number: the legs from the host copy at one to
            # the copy at the other (one copy if they are the same), and whether they enter a NIC
            self._between: dict[tuple[int, int], tuple] = {}
        self.route: Callable[[int, int], tuple[float, tuple]] = {
            Staging.DEVICE_DIRECT: self._direct, Staging.HOST_STAGED: self._staged}[cfg.staging]

    def peak_by_name(self) -> dict[str, float]:
        # two parallel links between the same nodes share one name
        names, out = self.topo._names(), {}
        for r in self.first_use:
            out[names[r]] = max(out.get(names[r], 0.0), self.peak[r])
        return out

    # ``route(src_dev, dst_dev)``: latency and fluid legs of any flow between two devices

    def _on_device(self, dev: int) -> tuple[float, tuple]:
        topo = self.topo
        return self.cfg.alpha_intra, (
            ((self.engine0 + topo._device_nodes[dev],), False, topo.device_mem_bw),)

    def _direct(self, src_dev: int, dst_dev: int) -> tuple[float, tuple]:
        if src_dev == dst_dev:
            return self._on_device(src_dev)
        leg = self.topo._routes[(src_dev, dst_dev)]
        return self._alpha[leg[1]], (leg,)

    def _staged(self, src_dev: int, dst_dev: int) -> tuple[float, tuple]:
        """Up to the source bridge, a host copy there, across to the
        destination bridge and a copy there, then down to the device; no leg
        is empty, since a device is never a bridge."""
        if src_dev == dst_dev:
            return self._on_device(src_dev)
        hb_s, up, _ = self.topo._bridge_legs(src_dev)
        hb_d, _, down = self.topo._bridge_legs(dst_dev)
        between, nic = self._between.get((hb_s, hb_d)) or self._find_between(hb_s, hb_d)
        return self._alpha[up[1] or down[1] or nic], (up, *between, down)

    def _find_between(self, a: int, b: int) -> tuple:
        """The ``_between`` entry of the bridges numbered ``a`` and ``b``."""
        bw = self.cfg.host_mem_bw
        copy_a = ((self.engine0 + a,), False, bw)
        if a == b:
            got = (copy_a,), False
        else:
            across = self.topo._path(a, b)
            got = (copy_a, across, ((self.engine0 + b,), False, bw)), across[1]
        self._between[(a, b)] = got
        return got


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
    close.  ``simulate`` walks a phase of one flow itself unless a given
    route of the topology lists a link direction twice.
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
        res[s] = lr = legs[s][k][0]
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
                    flows: Iterable[Flow]) -> list[list[Flow]]:
    """Check ids, ranks, devices, sizes and phase numbering; returns flows
    grouped by phase, each group in flow-id order.  ``devs`` is the rank map
    as a tuple.  A plain ``int`` in range passes with one comparison; any
    other value goes through ``errors.number`` at a path such as
    ``flow 3.bytes``, so a size may be any finite real >= 0 but not a bool.
    One pass checks each flow and appends it to its phase's group, so the
    groups are sorted by id only if the ids did not arrive ascending; while
    they ascend, none can repeat.  A flow's devices are looked up only if
    some rank maps to a device absent from the topology."""
    nranks = len(devs)
    known = frozenset(topo.devices)
    absent = not known.issuperset(devs)
    groups: dict[int, list[Flow]] = {}
    last = -math.inf  # the largest id so far, while the ids ascend: then none repeats
    ids: set | None = None  # every id so far, once they have stopped ascending
    try:
        for f in flows:
            fid, src, dst, size, phase = f.id, f.src_rank, f.dst_rank, f.bytes, f.phase
            key = fid if type(fid) is int else number(fid, f"flow {fid}.id", integer=True,
                                                      error=SimulationError)
            if ids is None and key > last:
                last = key
            else:
                if ids is None:
                    ids = {g.id for group in groups.values() for g in group}
                if fid in ids:
                    raise SimulationError(f"duplicate flow id {fid}")
                ids.add(fid)
            if not (type(src) is type(dst) is int and 0 <= src < nranks and 0 <= dst < nranks):
                src, dst = [number(rank, f"flow {fid}.{name}", integer=True, error=SimulationError)
                            for rank, name in ((src, "src_rank"), (dst, "dst_rank"))]
                for rank in (src, dst):
                    if not 0 <= rank < nranks:
                        raise ConfigurationError(f"rank {rank} outside rank map of size {nranks}")
            if absent and (devs[src] not in known or devs[dst] not in known):
                raise SimulationError(
                    f"flow {fid} maps to device {devs[src]} or {devs[dst]} absent from the topology"
                )
            if not (type(phase) is int and phase >= 0):
                number(phase, f"flow {fid}.phase", integer=True, low=0, error=SimulationError)
            if not (type(size) is int and 0 <= size < _EXACT_SIZE):
                number(size, f"flow {fid}.bytes", low=0, error=SimulationError)
            groups.setdefault(phase, []).append(f)
    except AttributeError:  # the fields are read first, so only a non-Flow gets here
        raise SimulationError(f"flows must hold Flow objects, not {type(f).__name__}") from None
    # distinct and non-negative, so contiguous from 0 unless one is too large
    if groups and max(groups) >= len(groups):
        raise SimulationError(f"phases must form a contiguous 0..k range, got {sorted(groups)}")
    grouped = [groups[p] for p in range(len(groups))]
    if ids is not None:
        for group in grouped:
            group.sort(key=_FLOW_ID)
    return grouped


def simulate(
    topo: Topology,
    rank_map: RankMap | Sequence[int],
    flows: Iterable[Flow],
    cfg: SimConfig | None = None,
) -> SimResult:
    """Run all phases of ``flows`` and return completion times and load stats.

    ``flows`` is read once, so any iterable of ``Flow`` will do.

    Busy seconds for a rank count every instant at which the rank has at
    least one of its own flows (as source or destination) still in flight;
    the fraction divides by the makespan.
    """
    rm = rank_map if isinstance(rank_map, RankMap) else RankMap(rank_map)
    cfg = cfg or SimConfig()
    devs = tuple(rm)
    grouped = _validate_flows(topo, devs, flows)

    net = _Network(topo, cfg)
    trace = Trace(topo._names())
    record = trace if cfg.collect_events else None
    route, cap, peak, first_use = net.route, net.cap, net.peak, net.first_use
    # a given route listing a link direction k times gets cap / k from it,
    # which only the event loop works out: such a machine walks no phase
    walk = not topo._revisits
    completion: dict[int, float] = {}
    phase_completion: list[float] = []

    t = 0.0
    rank_busy = [0.0] * len(devs)
    for phase_flows in grouped:
        if walk and len(phase_flows) == 1:
            # the event loop would end one leg of a lone flow per step, at its
            # unshared rate, its smallest capacity, and raise the leg's peaks to
            # ``rate / cap``; consecutive legs share no resource (link paths
            # and memory engines alternate), so the peaks rise in its order
            (f,) = phase_flows
            src, dst = f.src_rank, f.dst_rank
            alpha, fluid = route(devs[src], devs[dst])
            end = t + alpha
            if f.bytes > 0:
                nbytes = float(f.bytes)
                for res, _nic, rate in fluid:
                    for r in res:
                        util = rate / cap[r]
                        if util > peak[r]:
                            if peak[r] == 0.0:
                                first_use.append(r)
                            peak[r] = util
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
            # a share that underflows to 0.0, or a time left that overflows,
            # puts inf and nan into the step arrays; the dt == inf guard
            # handles them, so numpy's warnings are off for the whole phase
            with np.errstate(all="ignore"):
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
