"""Machine graphs, presets, and route derivation."""

import copy
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from haloflow import (
    ConfigurationError,
    Flow,
    Link,
    NodeKind,
    RankMap,
    SimConfig,
    Staging,
    Topology,
    TopologyError,
    preset,
    simulate,
)
import haloflow.topology as topology_mod
from haloflow import ScenarioError
from haloflow.errors import TopologySpecError
from haloflow.topology import check_spec, device, from_spec, host_bridge, nic, parse_node, switch

from oracles import (adjacency, bridge_path, path_hops, reference_host_bridge, reference_path,
                     reference_routes, route_hops, route_links)


def crosses_kind(topo, src, dst, kind):
    return any(n.kind == kind for n in topo.route_nodes(src, dst))


class TestNodes:
    def test_parse_round_trip(self):
        for text in ("device:0", "hostbridge:3", "switch:1", "nic:2"):
            assert str(parse_node(text)) == text

    # a name parses only if it is the node's own name: no leading zero, space,
    # non-ASCII digit or underscore can make another node's name
    @pytest.mark.parametrize("text", ["gadget:1", "device:x", "device:01", "device: 1",
                                      "device:\u0661", "device:1_0"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(TopologyError, match="malformed node name"):
            parse_node(text)

    @pytest.mark.parametrize("value", [5, None, ["device:0"], {"device": 0}])
    def test_parse_rejects_non_strings_by_type(self, value):
        with pytest.raises(TopologyError, match=f"got {type(value).__name__}$"):
            parse_node(value)

    def test_helpers_build_kinds(self):
        assert device(2).kind == NodeKind.DEVICE
        assert host_bridge(0).kind == NodeKind.HOST_BRIDGE
        assert switch(0).kind == NodeKind.SWITCH
        assert nic(1).kind == NodeKind.NIC


class TestLink:
    def test_capacity_is_lanes_times_per_direction_bandwidth(self):
        ln = Link(device(0), switch(0), 25e9, 6)
        assert ln.capacity == 150e9

    def test_rejects_nonpositive_figures(self):
        with pytest.raises(TopologyError):
            Link(device(0), device(1), -1.0, 1)
        with pytest.raises(TopologyError):
            Link(device(0), device(1), 25e9, 0)

    def test_rejects_self_link(self):
        with pytest.raises(TopologyError):
            Link(device(0), device(0), 25e9, 1)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            preset("nosuch")

    def test_single_switch_pair_bandwidth(self):
        topo = preset("dgx2")
        assert topo.n_devices == 16
        assert topo.route_bandwidth(0, 9) == 150e9

    def test_single_switch_aggregate_injection(self):
        topo = preset("dgx2")
        device_links = [
            ln for ln in topo.links if NodeKind.DEVICE in (ln.a.kind, ln.b.kind)
        ]
        assert len(device_links) == 16
        assert sum(ln.capacity for ln in device_links) == 2.4e12

    def test_island_machine_direct_and_bridged_routes(self):
        topo = preset("dgx1v")
        assert topo.n_devices == 8
        assert topo.route_bandwidth(0, 3) == 25e9
        # crossing islands means two host bridges and the CPU interconnect
        names = [str(n) for n in topo.route_nodes(0, 5)]
        assert names == ["device:0", "hostbridge:0", "hostbridge:1", "device:5"]
        assert topo.route_bandwidth(0, 5) == 8e9

    def test_previous_generation_lane_speed(self):
        topo = preset("dgx1p")
        assert topo.route_bandwidth(0, 3) == 20e9

    def test_self_route_uses_memory_engine(self):
        topo = preset("dgx1v")
        assert route_links(topo, 2, 2) == ()
        assert topo.route_bandwidth(2, 2) == 800e9

    def test_route_symmetry_everywhere(self):
        for name in ("dgx1v", "dgx1p", "dgx2"):
            topo = preset(name)
            for i in range(topo.n_devices):
                for j in range(topo.n_devices):
                    fwd = topo.route_nodes(i, j)
                    rev = topo.route_nodes(j, i)
                    assert fwd == tuple(reversed(rev)), (name, i, j)

    def test_two_server_variant_crosses_nics(self):
        topo = preset("dgx1v", servers=2)
        assert topo.n_devices == 16
        assert crosses_kind(topo, 0, 8, NodeKind.NIC)
        assert crosses_kind(topo, 0, 8, NodeKind.SWITCH)
        assert not crosses_kind(topo, 0, 7, NodeKind.NIC)

    def test_flat_cluster_degenerate_point(self):
        topo = preset("fat_tree_edr", nodes=1, devices_per_node=1)
        assert topo.n_devices == 1
        assert topo.links == ()
        assert route_links(topo, 0, 0) == ()

    def test_flat_cluster_cross_node_route(self):
        topo = preset("fat_tree_edr", nodes=4, devices_per_node=2)
        assert topo.n_devices == 8
        assert crosses_kind(topo, 0, 2, NodeKind.NIC)
        assert crosses_kind(topo, 0, 2, NodeKind.SWITCH)
        assert topo.route_bandwidth(0, 2) == 12e9

    def test_no_host_bridge_is_an_error(self):
        with pytest.raises(TopologyError):
            bridge_path(preset("dgx2"), 0)

    def test_host_bridge_per_island(self):
        topo = preset("dgx1v")
        assert str(bridge_path(topo, 0)[0]) == "hostbridge:0"
        assert str(bridge_path(topo, 5)[0]) == "hostbridge:1"

    def test_largest_dgx1v_has_the_size_limit_and_routes(self):
        topo = preset("dgx1v", servers=64)
        assert topo.n_devices == topology_mod.MAX_PRESET_DEVICES
        assert len(route_hops(topo, 0, 511)) == 6


# A well-formed inline spec with a given route, and malformed ones: each
# inline spec the check_spec tests here and in test_cli.py reject.
INLINE = {
    "nodes": ["device:0", "device:1", "switch:0"],
    "links": [{"a": "device:0", "b": "switch:0", "gbps_per_dir": 10},
              {"a": "device:1", "b": "switch:0", "gbps_per_dir": 10}],
    "routes": [{"src": 0, "dst": 1, "links": [0, 1]}],
}


def _edited(edit):
    doc = copy.deepcopy(INLINE)
    edit(doc)
    return doc


MALFORMED_INLINE = [
    {"nodes": [5], "links": []},
    {"nodes": ["device:0", "switch:0"],
     "links": [{"a": "device:0", "b": "switch:0", "gbps_per_dir": "x"}]},
    {"nodes": ["device:0", "switch:0"], "links": [5]},
    {"nodes": ["device:0", "device:1"],
     "links": [{"a": "device:0", "b": "device:1", "gbps_per_dir": 1}],
     "routes": [{"src": 0, "dst": 1, "links": [7]}]},
    {"nodes": ["device:0", "device:1"],
     "links": [{"a": "device:0", "b": "device:1", "gbps_per_dir": 1}],
     "routes": [{"src": "x", "dst": 1, "links": [0]}]},
    {"nodes": ["device:0"], "links": [], "preset_name": "dgx1v"},
    {"nodes": ["device:0"], "links": [], "name": ["inline"]},
    {"nodes": "device:0", "links": []},
    {"nodes": ["device:0"], "links": {}},
    {"nodes": ["device:0"], "links": [], "routes": 5},
    {"nodes": ["device:0"], "links": [], "routes": [None]},
    *(_edited(lambda t, e=e, k=k, v=v: (t[e][0] if e else t).update({k: v})) for e, k, v in [
        ("links", "lanes", 2.5), ("links", "lanes", "2"), ("links", "gbps_per_dir", "10"),
        ("links", "gbps_per_dir", True), ("routes", "src", 0.7), ("routes", "links", [0.9, 1]),
        ("routes", "links", [False, 1]), (None, "device_mem_bw_gbps", "800"),
        ("links", "lane", 2), ("routes", "via", 1), ("routes", "links", 1),
        ("links", "lanes", 0), ("links", "a", 5), ("links", "a", "device:x"),
        ("links", "b", "switch:1"), (None, "device_mem_bw_gbps", float("nan")),
    ]),
    *(_edited(edit) for edit in [
        lambda t: t["links"][0].pop("gbps_per_dir"), lambda t: t["links"][1].pop("b"),
        lambda t: t["links"][0].pop("a"), lambda t: t["routes"][0].pop("links"),
        lambda t: t["routes"][0].pop("src"), lambda t: t["nodes"].append("device:0"),
        lambda t: t["nodes"].insert(1, "switch:00"), lambda t: t["nodes"].append("device:x"),
        lambda t: t.pop("links"), lambda t: t.pop("nodes"),
    ]),
]

# (edit of INLINE, path): each passed check_spec before it checked them, and
# failed only when built (a bandwidth, a link to its own node), at a path of
# the constructor's or none, or was built (the routes: a repeated pair kept the
# later route, and the simulator ignored a self route's links)
REFUSED_AT_PATH = {
    "route_src_not_a_device": (lambda t: t["routes"][0].update(src=5), "routes[0].src"),
    "route_dst_not_a_device": (lambda t: t["routes"][0].update(dst=2), "routes[0].dst"),
    "route_pair_repeated": (
        lambda t: t["routes"].append({"src": 0, "dst": 1, "links": [0, 1]}), "routes[1]"),
    "self_route_with_links": (
        lambda t: t["routes"].append({"src": 1, "dst": 1, "links": [1, 1]}), "routes[1].links"),
    "gbps_per_dir_negative": (lambda t: t["links"][0].update(gbps_per_dir=-5),
                              "links[0].gbps_per_dir"),
    "gbps_per_dir_zero": (lambda t: t["links"][1].update(gbps_per_dir=0), "links[1].gbps_per_dir"),
    "device_mem_bw_zero": (lambda t: t.update(device_mem_bw_gbps=0), "device_mem_bw_gbps"),
    "device_mem_bw_negative": (lambda t: t.update(device_mem_bw_gbps=-1.5), "device_mem_bw_gbps"),
    "link_to_its_own_node": (lambda t: t["links"][0].update(b="device:0"), "links[0].b"),
}
MALFORMED_INLINE += [_edited(edit) for edit, _path in REFUSED_AT_PATH.values()]


class TestFromSpec:
    def test_preset_with_unit_conversion(self):
        topo = from_spec({"preset": "dgx1v", "nvlink_gbps": 20})
        assert topo.route_bandwidth(0, 3) == 20e9

    def test_inline_graph(self):
        doc = {
            "nodes": ["device:0", "device:1", "switch:0"],
            "links": [
                {"a": "device:0", "b": "switch:0", "gbps_per_dir": 10},
                {"a": "device:1", "b": "switch:0", "gbps_per_dir": 10},
            ],
            "device_mem_bw_gbps": 100,
        }
        topo = from_spec(doc)
        assert topo.route_bandwidth(0, 1) == 10e9
        assert topo.route_bandwidth(0, 0) == 100e9

    def test_inline_explicit_route_must_be_a_walk(self):
        doc = {
            "nodes": ["device:0", "device:1", "device:2"],
            "links": [
                {"a": "device:0", "b": "device:1", "gbps_per_dir": 10},
                {"a": "device:1", "b": "device:2", "gbps_per_dir": 10},
            ],
            "routes": [{"src": 0, "dst": 2, "links": [1]}],
        }
        with pytest.raises(TopologyError):
            from_spec(doc)

    @pytest.mark.parametrize("routes, message", [
        ({(0, 1): [0, 1], (5, 5): []}, "route device:5->device:5 names a device not"),
        ({(0, 1): [0, 1], (1, 2): [1]}, "route device:1->device:2 names a device not"),
        ({(0, 1): [0, 1], (1, 1): [1, 1]}, "route device:1->device:1 must list no links"),
        ({(0, 1): [0, 1], (True, 0): [0, 1]}, "route device:True->device:0: expected an integer"),
    ], ids=["self_route_of_an_absent_device", "absent_dst", "self_route_with_links", "bool_src"])
    def test_given_route_names_a_device_with_no_links_to_itself(self, routes, message):
        """Each was built: the simulator never reads a self route's links."""
        with pytest.raises(TopologyError, match=re.escape(message)):
            Topology([device(0), device(1), switch(0)],
                     [Link(device(0), switch(0), 1e9), Link(switch(0), device(1), 1e9)], 1e9,
                     routes=routes)

    @pytest.mark.parametrize("doc", MALFORMED_INLINE[:5])
    def test_malformed_inline_graph_is_a_topology_error(self, doc):
        with pytest.raises(TopologyError):
            from_spec(doc)

    def test_disconnected_pair_is_an_error(self):
        doc = {
            "nodes": ["device:0", "device:1"],
            "links": [],
        }
        with pytest.raises(TopologyError):
            from_spec(doc)


class TestCheckSpec:
    @pytest.mark.parametrize("doc, path", [
        ({"preset": 5}, "preset"),
        ({"preset": None}, "preset"),
        ({"preset": "dgx1v", "srevers": 4}, "srevers"),
        ({"preset": "dgx1v", "servers": 2.9}, "servers"),
        ({"preset": "dgx1v", "servers": 2.0}, "servers"),
        ({"preset": "dgx1v", "servers": True}, "servers"),
        ({"preset": "fat_tree_edr", "nodes": "2"}, "nodes"),
        ({"preset": "fat_tree_edr", "devices_per_node": [2]}, "devices_per_node"),
        ({"preset": "dgx1v", "ib_gbps": False}, "ib_gbps"),
        ({"preset": "dgx1v", "pcie_gbps": "16"}, "pcie_gbps"),
        ({"preset": "dgx1v", "nvlink_gbps": float("nan")}, "nvlink_gbps"),
        ({"preset": "dgx1v", "ib_gbps": float("inf")}, "ib_gbps"),
        ({"preset": "dgx1v", "pcie_gbps": 10 ** 400}, "pcie_gbps"),
        ({"nodes": ["device:0"], "links": [], "preset_name": "dgx1v"}, "preset_name"),
        ({"nodes": ["device:0"], "links": [], "name": ["inline"]}, "name"),
    ])
    def test_rejected_with_key_path(self, doc, path):
        with pytest.raises(ScenarioError) as err:
            check_spec(doc)
        assert err.value.path == path
        with pytest.raises(ScenarioError):
            from_spec(doc)

    @pytest.mark.parametrize("case", REFUSED_AT_PATH)
    def test_inline_value_refused_at_its_path(self, case):
        edit, path = REFUSED_AT_PATH[case]
        with pytest.raises(TopologySpecError) as err:
            check_spec(_edited(edit))
        assert err.value.path == path

    def test_missing_key_at_its_own_path(self):
        doc = _edited(lambda t: t["routes"][0].pop("dst"))
        with pytest.raises(TopologySpecError, match=r"^routes\[0\]\.dst: missing required key$"):
            check_spec(doc)

    @pytest.mark.parametrize("doc", [
        {"preset": "dgx1v", "servers": 64},
        {"preset": "dgx1p", "servers": 64},
        {"preset": "fat_tree_edr", "nodes": 64, "devices_per_node": 8},
        {"preset": "fat_tree_edr", "devices_per_node": 512},
        {"preset": "dgx1v", "nodes": 10 ** 30},  # not a dgx1v parameter: ignored
    ])
    def test_preset_size_limit_is_inclusive(self, doc):
        check_spec(doc)

    def test_unknown_preset_keeps_its_error(self):
        with pytest.raises(ConfigurationError, match="unknown preset 'warpcore'"):
            check_spec({"preset": "warpcore"})

    def test_accepts_every_preset_parameter_without_building(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("topology built during the check")

        monkeypatch.setattr(topology_mod, "preset", refuse)
        check_spec({"preset": " DGX1V", "servers": 2, "nvlink_gbps": 20, "pcie_gbps": 12.5,
                    "cpu_interconnect_gbps": 30, "ib_gbps": 12, "device_mem_bw_gbps": 900})
        check_spec({"preset": "fat_tree_edr", "nodes": 2, "devices_per_node": 4})
        check_spec({"nodes": [], "links": [], "device_mem_bw_gbps": 1, "routes": [],
                    "name": "x"})


class TestFromSpecErrors:
    """``from_spec`` lets only its named errors escape: ``check_spec`` rejects
    every input the build could not take."""

    @pytest.mark.parametrize("doc", MALFORMED_INLINE)
    def test_malformed_inline_specs(self, doc):
        with pytest.raises((ScenarioError, TopologyError)):
            from_spec(doc)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_one_value_replaced_or_dropped(self, data):
        doc = copy.deepcopy(INLINE)
        places = []  # (container, key) of every value in the spec

        def walk(node):
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                places.append((node, key))
                if isinstance(node[key], (dict, list)):
                    walk(node[key])

        walk(doc)
        node, key = data.draw(st.sampled_from(places))
        value = data.draw(st.sampled_from(
            [None, "dropped", -1, 0, 1, 2, 2.5, 10**400, float("nan"), True, "device:1",
             "nic:0", [], [0], [7], {}, {"a": "device:0"}]))
        if value == "dropped":
            del node[key]
        else:
            node[key] = value
        try:
            from_spec(doc)
        except (ScenarioError, TopologyError):
            pass


class TestRankMap:
    def test_identity(self):
        rm = RankMap.identity(4)
        assert rm.nranks == 4
        assert [rm.device_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_shared_device_allowed(self):
        rm = RankMap([0, 0, 1])
        assert rm.device_of(1) == 0

    def test_bounds(self):
        rm = RankMap.identity(2)
        with pytest.raises(ConfigurationError):
            rm.device_of(2)
        with pytest.raises(ConfigurationError):
            RankMap([])


@st.composite
def inline_topologies(draw):
    """Small multigraphs: every kind of node, gaps in the indices, parallel links.

    Most are connected (each node after the first links to an earlier one);
    some leave a node out of that chain.  Few nodes and many links make
    equal-length paths, so the tie-breaks decide the routes.
    """
    nodes = [device(i) for i in draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))]
    for make in (host_bridge, switch, nic):
        nodes += [make(i) for i in draw(st.sets(st.integers(0, 4), max_size=3))]
    nodes = draw(st.permutations(nodes))
    links = []
    for k in range(1, len(nodes)):
        if draw(st.integers(0, 15)):
            a, b = nodes[k], nodes[draw(st.integers(0, k - 1))]
            links.append(Link(*((a, b) if draw(st.booleans()) else (b, a)), 1e9))
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(lambda t: t[0] != t[1])
    for a, b in draw(st.lists(pair, max_size=10)):
        links.append(Link(a, b, 1e9))
    links = draw(st.permutations(links))
    return nodes, links


def _outcome(call, *args):
    """``call(*args)``, or the text of the TopologyError it raises."""
    try:
        return call(*args)
    except TopologyError as exc:
        return f"TopologyError: {exc}"


class TestRoutesMatchReference:
    """Derived routes, ``path_hops`` and host bridges equal the per-pair search's."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(inline_topologies())
    def test_inline_topologies(self, graph):
        nodes, links = graph
        topo = _outcome(Topology, nodes, links, 1e9)
        want = _outcome(reference_routes, nodes, links)
        if isinstance(topo, str):
            assert topo == want
            return
        assert {(i, j): route_hops(topo, i, j) for i in topo.devices for j in topo.devices} == want
        # given its routes, the same graph runs no search at construction: its
        # host bridges and paths all come from searches made on first use
        topos = (Topology(nodes, links, 1e9,
                          routes={k: [li for li, _ in hops] for k, hops in want.items()}), topo)
        adj = adjacency(nodes, links)
        for d in topo.devices:
            hb = reference_host_bridge(nodes, links, d, adj)
            none = f"TopologyError: device:{d} has no host bridge on its topology"
            for t in topos:
                assert _outcome(bridge_path, t, d) == (
                    none if hb is None else (hb, reference_path(nodes, links, device(d), hb, adj)))
        for a in nodes:
            for b in nodes:
                hops = reference_path(nodes, links, a, b, adj)
                for t in topos:
                    assert _outcome(path_hops, t, a, b) == (
                        f"TopologyError: no path between {a} and {b}" if hops is None else hops)


    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(inline_topologies(), st.data())
    def test_route_records(self, graph, data):
        """Each ordered device pair's compiled route, derived or given one way:
        its link-direction ids, NIC flag and bottleneck match ``route_hops``,
        and ``(j, i)`` is the exact reversal of ``(i, j)``."""
        nodes, links = graph
        links = [Link(ln.a, ln.b, data.draw(st.sampled_from([1e9, 2.5e9, 4e9])))
                 for ln in links]
        derived = _outcome(Topology, nodes, links, 1e9)
        if isinstance(derived, str):
            return
        devs = derived.devices
        one_way = {(i, j): [li for li, _ in route_hops(derived, i, j)]
                   for i in devs for j in devs if i < j}
        for topo in (derived, Topology(nodes, links, 1e9, routes=one_way)):
            for i in devs:
                for j in devs:
                    ids, enters_nic, bottleneck = topo._routes[(i, j)]
                    hops = route_hops(topo, i, j)
                    assert ids == tuple(2 * li + fwd for li, fwd in hops)
                    assert enters_nic == any(n.kind is NodeKind.NIC
                                             for n in topo.route_nodes(i, j)[1:])
                    assert bottleneck == min((links[li].capacity for li, _ in hops),
                                             default=math.inf)
                    if i != j:
                        assert bottleneck == topo.route_bandwidth(i, j)
                    assert topo._routes[(j, i)] == (tuple(d ^ 1 for d in reversed(ids)),
                                                    enters_nic, bottleneck)


class TestSearchReuse:
    def test_each_source_is_searched_once(self, monkeypatch):
        """Construction and a host-staged run of every ordered device pair
        search from no node twice: a device's bridge path is read off its
        construction search, and a bridge's search is kept."""
        searched = []
        paths_from = Topology._paths_from

        def counted(self, src):
            searched.append(src)
            return paths_from(self, src)

        monkeypatch.setattr(Topology, "_paths_from", counted)
        topo = preset("dgx1v", servers=2)
        pairs = [(i, j) for i in topo.devices for j in topo.devices if i != j]
        flows = [Flow(k, i, j, 1000, phase=k) for k, (i, j) in enumerate(pairs)]
        simulate(topo, RankMap.identity(topo.n_devices), flows,
                 SimConfig(staging=Staging.HOST_STAGED, collect_events=False))
        assert len(searched) == len(set(searched))
        assert len(searched) == topo.n_devices + 4  # and each of the four bridges
