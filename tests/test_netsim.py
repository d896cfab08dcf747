"""Fluid flow timing: exact single-flow costs, sharing, phases, staging."""

import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haloflow import (
    ConfigurationError,
    Flow,
    Link,
    RankMap,
    ScheduleKind,
    SimConfig,
    SimulationError,
    Staging,
    TimestepScenario,
    Topology,
    TopologyError,
    build_alltoall,
    preset,
    simulate,
    simulate_timestep,
)
from haloflow import netsim
from haloflow.topology import device, host_bridge, nic, switch
from oracles import bridge_path, path_hops, route_hops, route_links
from trace_replay import check_trace

ALPHA_INTRA = 1e-6
ALPHA_INTER = 1e-5


@pytest.fixture(scope="module")
def island_topo():
    return preset("dgx1v")


@pytest.fixture(scope="module")
def switch_topo():
    return preset("dgx2")


class TestSingleFlow:
    def test_lone_flow_exact_time(self, island_topo):
        res = simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 10**8)])
        assert res.flow_completion[0] == pytest.approx(ALPHA_INTRA + 1e8 / 25e9, rel=1e-12)

    def test_zero_bytes_costs_latency_only(self, island_topo):
        res = simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 0)])
        assert res.flow_completion[0] == ALPHA_INTRA

    def test_cross_machine_latency(self):
        topo = preset("fat_tree_edr", nodes=2, devices_per_node=1)
        res = simulate(topo, RankMap.identity(2), [Flow(0, 0, 1, 0)])
        assert res.flow_completion[0] == ALPHA_INTER

    def test_same_device_uses_memory_engine(self, island_topo):
        res = simulate(island_topo, RankMap([0, 0]), [Flow(0, 0, 1, 8 * 10**9)])
        assert res.flow_completion[0] == pytest.approx(ALPHA_INTRA + 8e9 / 800e9, rel=1e-12)


class TestSharing:
    def test_two_flows_one_direction_halve_rate(self, island_topo):
        flows = [Flow(0, 0, 1, 10**8), Flow(1, 0, 1, 10**8)]
        res = simulate(island_topo, RankMap.identity(2), flows)
        expect = ALPHA_INTRA + 2 * 1e8 / 25e9
        assert res.flow_completion[0] == pytest.approx(expect, rel=1e-12)
        assert res.flow_completion[1] == pytest.approx(expect, rel=1e-12)

    def test_opposite_directions_do_not_share(self, island_topo):
        flows = [Flow(0, 0, 1, 10**8), Flow(1, 1, 0, 10**8)]
        res = simulate(island_topo, RankMap.identity(2), flows)
        expect = ALPHA_INTRA + 1e8 / 25e9
        assert res.flow_completion[0] == pytest.approx(expect, rel=1e-12)
        assert res.flow_completion[1] == pytest.approx(expect, rel=1e-12)

    def test_short_flow_releases_capacity(self, island_topo):
        # a 1:3 size split: the small flow leaves, the big one speeds up
        flows = [Flow(0, 0, 1, 10**8), Flow(1, 0, 1, 3 * 10**8)]
        res = simulate(island_topo, RankMap.identity(2), flows)
        # both at 12.5e9 for 8 ms, then the big flow's last 2e8 runs alone
        assert res.flow_completion[0] == pytest.approx(ALPHA_INTRA + 8e-3, rel=1e-12)
        assert res.flow_completion[1] == pytest.approx(ALPHA_INTRA + 16e-3, rel=1e-12)

    def test_peak_utilization_accounts_for_sharing(self, island_topo):
        flows = [Flow(0, 0, 1, 10**8), Flow(1, 0, 1, 10**8)]
        res = simulate(island_topo, RankMap.identity(2), flows)
        assert res.link_peak_utilization["device:0->device:1"] == pytest.approx(1.0)


    def test_parallel_links_report_one_peak_per_name(self):
        # two links join device 0 to device 1; routes use both, and the
        # report keeps one entry per name holding the larger peak
        d0, d1, d2 = device(0), device(1), device(2)
        topo = Topology(
            [d0, d1, d2],
            [Link(d0, d1, 10e9), Link(d0, d1, 20e9), Link(d2, d0, 5e9)],
            device_mem_bw=800e9,
            routes={(0, 1): [0], (2, 1): [2, 1], (0, 2): [2]},
        )
        res = simulate(topo, RankMap.identity(3), [Flow(0, 0, 1, 10**8), Flow(1, 2, 1, 10**8)])
        assert list(res.link_peak_utilization.items()) == [
            ("device:0->device:1", 1.0),
            ("device:2->device:0", 1.0),
        ]


class TestPhases:
    def test_phases_run_back_to_back(self, island_topo):
        flows = [Flow(0, 0, 1, 10**8, phase=0), Flow(1, 0, 1, 10**8, phase=1)]
        res = simulate(island_topo, RankMap.identity(2), flows)
        one = ALPHA_INTRA + 1e8 / 25e9
        assert res.phase_completion == pytest.approx((one, 2 * one), rel=1e-12)
        assert res.makespan == pytest.approx(2 * one, rel=1e-12)

    @pytest.mark.parametrize("ids", [(0, 1, 2, 3), (3, 1, 2, 0)], ids=["ascending", "shuffled"])
    def test_flows_read_once_from_an_iterator(self, island_topo, ids):
        # the flows are checked and grouped in one pass, so a one-shot
        # iterable runs exactly as the list does
        flows = [Flow(ids[0], 0, 1, 10**6), Flow(ids[1], 1, 0, 10**6, phase=1),
                 Flow(ids[2], 0, 2, 10**6, phase=1), Flow(ids[3], 2, 2, 10**6)]
        want = simulate(island_topo, RankMap.identity(3), flows)
        got = simulate(island_topo, RankMap.identity(3), iter(flows))
        assert len(got.flow_completion) == 4
        assert got.flow_completion == want.flow_completion
        assert got.phase_completion == want.phase_completion

    def test_flows_that_end_together_are_recorded_in_id_order(self, island_topo):
        """A phase's flows take their slots in id order however they arrive,
        so flows ending in one step complete lowest id first."""
        flows = [Flow(2, 0, 1, 10**6), Flow(1, 1, 0, 10**6), Flow(0, 2, 3, 10**6)]
        res = simulate(island_topo, RankMap.identity(4), flows)
        assert len(set(res.flow_completion.values())) == 1
        assert list(res.flow_completion) == [0, 1, 2]

    def test_phase_gap_rejected(self, island_topo):
        with pytest.raises(SimulationError):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 1, phase=1)])

    def test_duplicate_flow_id_rejected(self, island_topo):
        flows = [Flow(0, 0, 1, 1), Flow(0, 1, 0, 1)]
        with pytest.raises(SimulationError):
            simulate(island_topo, RankMap.identity(2), flows)

    def test_device_absent_from_topology_rejected_when_used(self, island_topo):
        rm = RankMap([0, 1, 9])
        res = simulate(island_topo, rm, [Flow(0, 0, 1, 1)])
        assert list(res.flow_completion) == [0]
        with pytest.raises(SimulationError, match="flow 1 maps to device 9"):
            simulate(island_topo, rm, [Flow(0, 0, 1, 1), Flow(1, 2, 0, 1, phase=1)])

    def test_non_integer_phase_rejected(self, island_topo):
        flows = [Flow(0, 0, 1, 1), Flow(1, 1, 0, 1, phase=1.5)]
        with pytest.raises(SimulationError, match="flow 1"):
            simulate(island_topo, RankMap.identity(2), flows)

    def test_non_integer_rank_rejected(self, island_topo):
        with pytest.raises(SimulationError, match=r"flow 0\.src_rank: expected an integer, got float"):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0.5, 1, 1)])

    def test_non_real_size_rejected(self, island_topo):
        with pytest.raises(SimulationError, match=r"flow 0\.bytes: expected a number, got str"):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, "10")])

    def test_unhashable_id_rejected(self, island_topo):
        with pytest.raises(SimulationError, match=r"flow \[1\]\.id: expected an integer, got list"):
            simulate(island_topo, RankMap.identity(2), [Flow([1], 0, 1, 1)])

    @pytest.mark.parametrize("flow", [(0, 0, 1, 1), None, {"id": 0}])
    def test_non_flow_rejected(self, island_topo, flow):
        flows = [Flow(0, 0, 1, 1, phase=0), flow]
        with pytest.raises(SimulationError, match="flows must hold Flow objects, not "):
            simulate(island_topo, RankMap.identity(2), flows)

    @pytest.mark.parametrize("rank", [2, -1])
    def test_rank_outside_rank_map_rejected(self, island_topo, rank):
        with pytest.raises(ConfigurationError, match=f"rank {rank} outside rank map of size 2"):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 1), Flow(1, 0, rank, 1)])

    def test_integer_like_fields_accepted(self, island_topo):
        plain = [Flow(0, 0, 1, 10**6), Flow(1, 1, 0, 10**6, phase=1)]
        like = [Flow(np.int64(0), np.int64(0), np.int8(1), np.int64(10**6)),
                Flow(np.int32(1), 1, np.int64(0), 10**6, phase=np.int64(1))]
        rm = RankMap.identity(2)
        assert simulate(island_topo, rm, like) == simulate(island_topo, rm, plain)

    # a scenario file refuses a bool where a number goes, and so does simulate
    @pytest.mark.parametrize("field", ["id", "src_rank", "dst_rank", "bytes", "phase"])
    def test_bool_fields_rejected(self, island_topo, field):
        flow = Flow(**{"id": 1, "src_rank": 1, "dst_rank": 0, "bytes": 1, "phase": 1, field: True})
        with pytest.raises(SimulationError, match=rf"flow \S+\.{field}: expected an? \w+, got bool"):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 1), flow])


class TestHostStaging:
    def test_same_bridge_store_and_forward(self, island_topo):
        cfg = SimConfig(staging=Staging.HOST_STAGED)
        res = simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 10**8)], cfg)
        expect = ALPHA_INTRA + 1e8 / 12e9 + 1e8 / 50e9 + 1e8 / 12e9
        assert res.flow_completion[0] == pytest.approx(expect, rel=1e-12)

    def test_cross_bridge_pays_two_copies(self, island_topo):
        cfg = SimConfig(staging=Staging.HOST_STAGED)
        res = simulate(island_topo, RankMap.identity(8), [Flow(0, 0, 5, 10**8)], cfg)
        expect = ALPHA_INTRA + 2 * (1e8 / 12e9) + 2 * (1e8 / 50e9) + 1e8 / 8e9
        assert res.flow_completion[0] == pytest.approx(expect, rel=1e-12)

    def test_host_copies_share_the_engine(self, island_topo):
        cfg = SimConfig(staging=Staging.HOST_STAGED, host_mem_bw=50e9)
        flows = [Flow(0, 0, 1, 10**8), Flow(1, 2, 3, 10**8)]
        res = simulate(island_topo, RankMap.identity(4), flows, cfg)
        # both copies land on hostbridge:0 at once and halve its rate; the
        # PCIe segments are distinct per device
        expect = ALPHA_INTRA + 1e8 / 12e9 + 2 * (1e8 / 50e9) + 1e8 / 12e9
        assert res.flow_completion[0] == pytest.approx(expect, rel=1e-12)
        assert res.flow_completion[1] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("src, dst", [(0, 1), (1, 0)], ids=["nic-on-the-way-up",
                                                               "nic-on-the-way-down"])
    def test_a_nic_on_a_bridge_leg_costs_the_inter_node_latency(self, src, dst):
        # device 0 reaches the only bridge through a NIC; device 1 hangs off it
        topo = Topology([device(0), device(1), nic(0), host_bridge(0)],
                        [Link(device(0), nic(0), 1e10), Link(nic(0), host_bridge(0), 1e10),
                         Link(device(1), host_bridge(0), 1e10)], device_mem_bw=1e12)
        for staging in Staging:
            res = simulate(topo, RankMap.identity(2), [Flow(0, src, dst, 0)],
                           SimConfig(staging=staging))
            assert res.flow_completion[0] == ALPHA_INTER

    def test_staging_needs_a_host_bridge(self, switch_topo):
        cfg = SimConfig(staging=Staging.HOST_STAGED)
        with pytest.raises(TopologyError):
            simulate(switch_topo, RankMap.identity(2), [Flow(0, 0, 1, 1)], cfg)


class TestTimestep:
    def test_exchange_starts_after_slowest_compute(self, island_topo):
        scen = TimestepScenario(compute_seconds=(2.0, 1.0, 1.0, 1.0), flows=())
        res = simulate_timestep(island_topo, RankMap.identity(4), scen)
        assert res.makespan == 2.0
        assert res.busy_fraction == pytest.approx((1.0, 0.5, 0.5, 0.5))

    def test_flows_shift_by_compute_wall(self, island_topo):
        scen = TimestepScenario(
            compute_seconds=(0.5, 0.25), flows=(Flow(0, 0, 1, 10**8),)
        )
        res = simulate_timestep(island_topo, RankMap.identity(2), scen)
        assert res.flow_completion[0] == pytest.approx(
            0.5 + ALPHA_INTRA + 1e8 / 25e9, rel=1e-12
        )

    def test_without_barrier_fractions_use_own_end(self, island_topo):
        scen = TimestepScenario(
            compute_seconds=(2.0, 1.0), flows=(), barrier_at_end=False
        )
        res = simulate_timestep(island_topo, RankMap.identity(2), scen)
        assert res.busy_fraction == pytest.approx((1.0, 1.0))

    def test_without_barrier_a_rank_ends_with_its_last_flow(self, island_topo):
        scen = TimestepScenario((0.5, 0.25, 0.25), (Flow(0, 0, 1, 10**8),), barrier_at_end=False)
        res = simulate_timestep(island_topo, RankMap.identity(3), scen)
        end = res.flow_completion[0]
        assert end > 0.5
        assert res.busy_fraction == [res.busy_seconds[0] / end, res.busy_seconds[1] / end, 1.0]


class TestDeterminism:
    def test_repeat_runs_identical(self, island_topo):
        flows = [Flow(i, i % 4, (i + 1 + i // 4) % 4, (i + 1) * 10**6) for i in range(12)]
        base = simulate(island_topo, RankMap.identity(4), flows)
        for _ in range(3):
            again = simulate(island_topo, RankMap.identity(4), flows)
            assert again.flow_completion == base.flow_completion

    @pytest.mark.parametrize("staging", list(Staging))
    def test_a_used_topology_runs_as_a_fresh_one(self, staging):
        """Route queries and a run in the other staging fill the topology's
        search trees and bridge paths; a later run reads the same routes and
        names the same resources as on a fresh topology."""
        rm = RankMap.identity(16)
        sizes = [[(7 * i + 3 * j) % 5 * 10**5 for j in range(16)] for i in range(16)]
        flows = build_alltoall(ScheduleKind.ROTATED_CONCURRENT, sizes)
        flows += [Flow(len(flows) + k, k, 15 - k, 10**6, phase=flows[-1].phase + 1 + k)
                  for k in range(16)]
        used = preset("dgx1v", servers=2)
        for i in used.devices:
            bridge_path(used, i)
            for j in used.devices:
                route_hops(used, i, j)
                used.route_bandwidth(i, j)
                path_hops(used, bridge_path(used, j)[0], device(i))
        other = next(s for s in Staging if s is not staging)
        simulate(used, rm, flows, SimConfig(staging=other))
        got = simulate(used, rm, flows, SimConfig(staging=staging))
        want = simulate(preset("dgx1v", servers=2), rm, flows, SimConfig(staging=staging))
        assert got.flow_completion == want.flow_completion
        assert (list(got.link_peak_utilization.items())
                == list(want.link_peak_utilization.items()))
        assert list(got.events) == list(want.events)

    @pytest.mark.parametrize("order", [
        (Staging.DEVICE_DIRECT, Staging.HOST_STAGED, Staging.DEVICE_DIRECT),
        (Staging.HOST_STAGED, Staging.DEVICE_DIRECT, Staging.HOST_STAGED),
    ], ids=["direct-first", "staged-first"])
    @pytest.mark.parametrize("collect_events", [False, True])
    def test_runs_in_turn_on_one_topology_equal_fresh_runs(self, order, collect_events):
        """Runs in turn share the topology's names and bridge legs and keep
        their own solver state; nothing one run leaves changes the next."""
        rm = RankMap([0, 3, 3, 9, 12, 14])  # ranks 1 and 2 share device 3
        flows = [
            Flow(0, 1, 2, 10**6), Flow(1, 0, 5, 3 * 10**5), Flow(2, 4, 4, 0), Flow(3, 3, 1, 10**6),
            Flow(4, 2, 1, 2 * 10**6, phase=1),                            # self, walked
            Flow(5, 5, 0, 0, phase=2),                                    # zero bytes, walked
            Flow(6, 3, 4, 10**6, phase=3),
            Flow(7, 2, 2, 10**5, phase=4), Flow(8, 0, 0, 0, phase=4), Flow(9, 4, 1, 10**6, phase=4),
        ]
        topo = preset("dgx1v", servers=2)
        for staging in order:
            cfg = SimConfig(staging=staging, collect_events=collect_events)
            got = simulate(topo, rm, flows, cfg)
            want = simulate(preset("dgx1v", servers=2), rm, flows, cfg)
            assert got.flow_completion == want.flow_completion
            assert got.phase_completion == want.phase_completion
            assert got.busy_seconds == want.busy_seconds
            assert (list(got.link_peak_utilization.items())
                    == list(want.link_peak_utilization.items()))
            assert len(got.events) == len(want.events) and (len(got.events) > 0) == collect_events
            assert got.events == want.events

    def test_each_topology_table_is_made_once(self):
        """A fresh topology holds no resource names and no bridge legs; the
        first run makes the names and the first host-staged run the legs,
        and later runs in either staging read those same objects."""
        topo = preset("dgx1v", servers=4)
        assert topo._name_table is None and topo._legs == {}
        rm = RankMap.identity(topo.n_devices)
        flows = build_alltoall(ScheduleKind.STAGE_SERIALIZED,
                               [[(i + j) % 3 * 10**5 for j in range(32)] for i in range(32)])
        names, legs = None, {}
        for staging in (Staging.DEVICE_DIRECT, Staging.HOST_STAGED):
            for _ in range(3):
                simulate(topo, rm, flows, SimConfig(staging=staging, collect_events=False))
                names = names or topo._name_table
                assert names is not None and topo._name_table is names
                legs = legs or dict(topo._legs)
                assert topo._legs.keys() == legs.keys()
                assert all(topo._legs[d] is legs[d] for d in legs)
            if staging is Staging.DEVICE_DIRECT:
                assert legs == {}
        assert sorted(legs) == list(topo.devices)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=12), st.randoms())
    def test_order_invariance(self, sizes, rnd):
        topo = preset("dgx1v")
        flows = [
            Flow(i, i % 8, (i + 1 + i % 5) % 8, b) for i, b in enumerate(sizes)
        ]
        base = simulate(topo, RankMap.identity(8), flows).flow_completion
        shuffled = list(flows)
        rnd.shuffle(shuffled)
        again = simulate(topo, RankMap.identity(8), shuffled).flow_completion
        assert again == base

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        st.lists(st.integers(1, 2**18), min_size=1, max_size=10),
        st.sampled_from([2, 4, 8, 1024]),
    )
    def test_scale_invariance_without_latency(self, sizes, k):
        topo = preset("dgx1v")
        cfg = SimConfig(alpha_intra=0.0, alpha_inter=0.0)
        flows = [Flow(i, i % 8, (i + 3) % 8, b) for i, b in enumerate(sizes)]
        scaled = [Flow(i, i % 8, (i + 3) % 8, b * k) for i, b in enumerate(sizes)]
        base = simulate(topo, RankMap.identity(8), flows, cfg).flow_completion
        big = simulate(topo, RankMap.identity(8), scaled, cfg).flow_completion
        for fid, t in base.items():
            assert big[fid] == pytest.approx(t * k, rel=1e-12)


class TestNonFiniteSizes:
    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_rejected(self, island_topo, size):
        with pytest.raises(SimulationError, match="flow 0"):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, size)])

    def test_size_beyond_double_range_rejected(self, island_topo):
        with pytest.raises(SimulationError, match="flow 0"):
            simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 10**400)])

    # one-flow phases (walked by simulate) and two-flow phases (event loop)
    @pytest.mark.parametrize("flows", [
        [Flow(0, 0, 1, 1), Flow(1, 0, 1, -1, phase=1)],
        [Flow(0, 0, 1, 1), Flow(2, 1, 0, 1), Flow(1, 0, 1, -1, phase=1), Flow(3, 1, 0, 1, phase=1)],
    ], ids=["one-flow-phases", "two-flow-phases"])
    @pytest.mark.parametrize("staging", list(Staging))
    def test_checked_before_the_first_phase_runs(self, island_topo, monkeypatch, flows, staging):
        def no_phase(*_args):
            raise AssertionError("a phase ran before every flow was checked")

        # every phase, walked or looped, reads its flows' routes first, from
        # the route function its run picked for its staging
        monkeypatch.setattr(netsim, "_run_phase", no_phase)
        monkeypatch.setattr(netsim._Network, "_direct", no_phase)
        monkeypatch.setattr(netsim._Network, "_staged", no_phase)
        with pytest.raises(SimulationError, match=r"flow 1\.bytes: bytes must be finite and >= 0"):
            simulate(island_topo, RankMap.identity(2), flows, SimConfig(staging=staging))

    # a nan latency would be added by a one-flow phase but skipped by the event loop
    @pytest.mark.parametrize("field", ["alpha_intra", "alpha_inter"])
    def test_nan_latency_rejected(self, field):
        with pytest.raises(SimulationError, match=f"{field}: {field} must be finite and >= 0"):
            SimConfig(**{field: math.nan})

    def test_fractional_finite_size_is_legal(self, island_topo):
        res = simulate(island_topo, RankMap.identity(2), [Flow(0, 0, 1, 2.5)])
        assert res.flow_completion[0] == pytest.approx(ALPHA_INTRA + 2.5 / 25e9, rel=1e-12)


class TestConfigChecks:
    """A config value that would silently change the result, or fail deep
    inside a run, is refused up front with the field's name."""

    @pytest.mark.parametrize("staging", ["device_direct", "host_staged", None, 0, 1])
    def test_staging_must_be_a_member(self, staging):
        with pytest.raises(SimulationError, match="staging must be a Staging member"):
            SimConfig(staging=staging)

    def test_a_staging_name_is_refused_not_run_host_staged(self, island_topo):
        # one 1 MB flow, device 0 to 5: 1.26e-4 s direct, 3.33e-4 s host-staged
        flow = [Flow(0, 0, 5, 10**6)]
        direct = simulate(island_topo, RankMap.identity(8), flow, SimConfig())
        staged = simulate(island_topo, RankMap.identity(8), flow,
                          SimConfig(staging=Staging.HOST_STAGED))
        assert direct.flow_completion[0] == pytest.approx(1.26e-4, rel=1e-12)
        assert staged.flow_completion[0] == pytest.approx(3.3266666666666666e-4, rel=1e-12)
        with pytest.raises(SimulationError, match="staging"):
            SimConfig(staging="device_direct")

    @pytest.mark.parametrize("field", ["alpha_intra", "alpha_inter", "host_mem_bw"])
    @pytest.mark.parametrize("value", ["1", True, False, np.bool_(True), None, 1j, [1.0]],
                             ids=repr)
    def test_latencies_and_bandwidth_must_be_real_numbers(self, field, value):
        with pytest.raises(SimulationError, match=f"{field}: expected a number, got "):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["alpha_intra", "alpha_inter", "host_mem_bw"])
    def test_beyond_double_range(self, field):
        with pytest.raises(SimulationError, match=f"{field}: {field} must be finite and "):
            SimConfig(**{field: 10**400})

    # an infinite latency made every time inf, and each busy fraction inf / inf = nan
    @pytest.mark.parametrize("field", ["alpha_intra", "alpha_inter"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_latency_rejected(self, field, value):
        with pytest.raises(SimulationError, match=f"{field}: {field} must be finite and >= 0"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.bool_(False)], ids=repr)
    def test_collect_events_must_be_a_bool(self, value):
        with pytest.raises(SimulationError, match="collect_events must be a bool"):
            SimConfig(collect_events=value)

    def test_other_real_numbers_run_as_their_floats(self):
        flows = [Flow(0, 0, 1, 10**6), Flow(1, 1, 0, 10**6), Flow(2, 0, 9, 10**6, phase=1)]
        rm = RankMap.identity(16)
        topo = preset("dgx1v", servers=2)
        for staging in Staging:
            cfg = SimConfig(alpha_intra=1, alpha_inter=Fraction(1, 10**5), staging=staging,
                            host_mem_bw=np.float64(50e9))
            assert all(type(v) is float for v in (cfg.alpha_intra, cfg.alpha_inter,
                                                   cfg.host_mem_bw))
            want = simulate(topo, rm, flows, SimConfig(alpha_intra=1.0, alpha_inter=1e-5,
                                                       staging=staging))
            assert simulate(topo, rm, flows, cfg).flow_completion == want.flow_completion


class TestBandwidthBeyondDoubleRange:
    """Two flows on one link so slow that a share underflows to 0.0 or a
    time left overflows: both end at inf, and numpy warns about nothing."""

    @pytest.mark.parametrize("bw, size", [(5e-324, 10), (1e-300, 10**10)],
                             ids=["share_underflows", "time_overflows"])
    @pytest.mark.parametrize("collect_events", [False, True])
    def test_flows_end_at_inf_silently(self, bw, size, collect_events):
        topo = Topology([device(0), device(1), switch(0)],
                        [Link(device(0), switch(0), bw), Link(device(1), switch(0), bw)],
                        device_mem_bw=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate(topo, RankMap.identity(2), [Flow(0, 0, 1, size), Flow(1, 0, 1, size)],
                           SimConfig(collect_events=collect_events))
        assert res.flow_completion == {0: math.inf, 1: math.inf}
        assert res.makespan == math.inf


class TestConservation:
    def test_event_intervals_transfer_exact_bytes(self, island_topo):
        random.seed(5)
        flows = [
            Flow(i, random.randrange(8), (random.randrange(7) + 1 + i) % 8, random.randrange(1, 10**7))
            for i in range(20)
        ]
        flows = [f for f in flows if f.src_rank != f.dst_rank]
        res = simulate(island_topo, RankMap.identity(8), flows)
        check_trace(island_topo, SimConfig(), flows, res)
        for f in flows:
            crossed = {ev.resource for ev in res.events if ev.flow_id == f.id}
            assert len(crossed) == len(route_links(island_topo, f.src_rank, f.dst_rank))


class TestTraceReplay:
    @pytest.mark.parametrize("staging", list(Staging))
    def test_alltoall_trace_replays(self, staging):
        topo = preset("dgx1v", servers=2)
        rnd = random.Random(11)
        sizes = [[rnd.randint(0, 10**6) for _ in range(12)] for _ in range(12)]
        flows = build_alltoall(ScheduleKind.ROTATED_CONCURRENT, sizes)
        cfg = SimConfig(staging=staging)
        check_trace(topo, cfg, flows, simulate(topo, RankMap.identity(12), flows, cfg))

    @pytest.mark.parametrize("barrier", [True, False])
    def test_timestep_trace_replays_after_compute(self, island_topo, barrier):
        flows = tuple(
            Flow(i, i % 8, (i * 3 + 1) % 8, (i + 1) * 10**6, phase=i % 2) for i in range(16)
        )
        compute = [1e-3 * (1 + r % 3) for r in range(8)]
        res = simulate_timestep(
            island_topo, RankMap.identity(8), TimestepScenario(compute, flows, barrier)
        )
        check_trace(island_topo, SimConfig(), flows, res)
        assert min(ev.t0 for ev in res.events) >= max(compute)


# machines the relations draw from: presets with one and two host bridges
# per island, and small inline graphs whose links each get their own bandwidth
RELATION_PRESETS = [preset("dgx1v"), preset("dgx1p"), preset("dgx1v", servers=2),
                    preset("fat_tree_edr", nodes=2, devices_per_node=2)]
BANDWIDTHS = [3e9, 7.5e9, 1e10 / 3, 12e9, 25e9]


@st.composite
def relation_cases(draw):
    """A machine, a rank map, an all-to-all of every schedule and a config."""
    if draw(st.booleans()):
        topo = draw(st.sampled_from(RELATION_PRESETS))
    else:
        # devices on one or two host bridges; two bridges are joined directly
        # or through a NIC path, and some device pairs get a direct link
        bw = st.sampled_from(BANDWIDTHS)
        n, bridges = draw(st.integers(2, 5)), draw(st.integers(1, 2))
        links = [Link(device(d), host_bridge(draw(st.integers(0, bridges - 1))), draw(bw))
                 for d in range(n)]
        nodes = [device(d) for d in range(n)] + [host_bridge(b) for b in range(bridges)]
        if bridges == 2 and draw(st.booleans()):
            nodes += [nic(0), nic(1), switch(0)]
            links += [Link(host_bridge(0), nic(0), draw(bw)), Link(nic(0), switch(0), draw(bw)),
                      Link(switch(0), nic(1), draw(bw)), Link(nic(1), host_bridge(1), draw(bw))]
        elif bridges == 2:
            links.append(Link(host_bridge(0), host_bridge(1), draw(bw)))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1])
        links += [Link(device(a), device(b), draw(bw)) for a, b in draw(st.lists(pair, max_size=3))]
        topo = Topology(nodes, links, draw(st.sampled_from([800e9, 1e12 / 3])))
    kind = draw(st.sampled_from(list(ScheduleKind)))
    p = draw(st.sampled_from([2, 4] if kind is ScheduleKind.PAIRWISE_XOR else [2, 3, 4]))
    # ranks may share a device, so self copies also run between distinct ranks
    rm = RankMap(draw(st.lists(st.sampled_from(topo.devices), min_size=p, max_size=p)))
    size = st.one_of(st.just(0), st.sampled_from([1, 1000, 10**6]), st.integers(1, 2**20))
    flows = build_alltoall(kind, draw(st.lists(st.lists(size, min_size=p, max_size=p),
                                               min_size=p, max_size=p)))
    cfg = SimConfig(staging=draw(st.sampled_from(list(Staging))),
                    host_mem_bw=draw(st.sampled_from([50e9, 9e9, 1e11 / 3])))
    return topo, rm, flows, cfg


def _scaled(topo, s):
    """``topo`` with every link and its ``device_mem_bw`` ``s`` times as fast;
    the routes are the same, since the route search reads no capacity."""
    links = [Link(ln.a, ln.b, ln.bw_per_dir * s, ln.lane_count) for ln in topo.links]
    return Topology(topo.nodes, links, topo.device_mem_bw * s, name=topo.name)


class TestExactRelations:
    """Two exact metamorphic relations of the simulator, held with ``==``.

    A multiply by a power of two is exact while every value stays a normal
    double.  Unscaled, a byte count is 0 or in [1, 2^20], a capacity, share
    or rate is in [2^27, 2^40] B/s, and what is left of a leg is 0 or at
    least about 2^-53 of its bytes.  So with |k| <= 64 every byte count,
    remainder, capacity and rate that (a) scales stays in [2^-117, 2^104],
    and (b) moves times, byte counts and latencies by 2^6 only: both far
    inside the normal range [2^-1022, 2^1024).
    """

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(relation_cases(), st.integers(-64, 64).filter(bool))
    def test_bytes_and_bandwidths_times_2_to_the_k(self, case, k):
        """(a) Every byte count and every capacity (links, device and host
        memory) times 2^k: every time and peak is the same, each trace rate
        is 2^k times as large."""
        topo, rm, flows, cfg = case
        s = 2.0**k
        base = simulate(topo, rm, flows, cfg)
        got = simulate(_scaled(topo, s), rm, [replace(f, bytes=f.bytes * s) for f in flows],
                       replace(cfg, host_mem_bw=cfg.host_mem_bw * s))
        assert got.flow_completion == base.flow_completion
        assert got.phase_completion == base.phase_completion
        assert got.busy_seconds == base.busy_seconds
        assert (list(got.link_peak_utilization.items())
                == list(base.link_peak_utilization.items()))
        assert [(e.t0, e.t1, e.flow_id, e.resource, e.rate) for e in got.events] == [
            (e.t0, e.t1, e.flow_id, e.resource, e.rate * s) for e in base.events]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(relation_cases())
    def test_bytes_and_latencies_times_64(self, case):
        """(b) Every byte count and both latencies times 2^6: every time and
        busy second is 2^6 times as large, every peak and rate the same."""
        topo, rm, flows, cfg = case
        base = simulate(topo, rm, flows, cfg)
        got = simulate(topo, rm, [replace(f, bytes=f.bytes * 64) for f in flows],
                       replace(cfg, alpha_intra=cfg.alpha_intra * 64,
                               alpha_inter=cfg.alpha_inter * 64))
        assert got.flow_completion == {fid: t * 64 for fid, t in base.flow_completion.items()}
        assert got.phase_completion == [t * 64 for t in base.phase_completion]
        assert got.busy_seconds == [b * 64 for b in base.busy_seconds]
        assert (list(got.link_peak_utilization.items())
                == list(base.link_peak_utilization.items()))
        assert [(e.t0, e.t1, e.flow_id, e.resource, e.rate) for e in got.events] == [
            (e.t0 * 64, e.t1 * 64, e.flow_id, e.resource, e.rate) for e in base.events]
