"""Golden gate for route derivation: every preset shape's routes stay identical.

``topology_golden.json`` holds, per preset shape, the node, device and link
counts and sha256 fingerprints of

* the full device route table: one line per ordered device pair with its
  bottleneck bandwidth (``%.17g``) and hops ``(link index, forward?)``;
* ``path_hops`` between every ordered pair of nodes;
* the nearest host bridge of every device, the first item of its
  ``bridge_path`` ("none" where it has none), under the key
  ``nearest_host_bridge``.

It was recorded from the search that ran once per device pair, before
routes were read off one search tree per source; any change fails here
with ``==``.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from haloflow import TopologyError, preset
from haloflow.topology import NodeId

from oracles import bridge_path, path_hops, route_hops

GOLDEN = Path(__file__).with_name("topology_golden.json")

# every preset shape the tests, the bundled scenarios and the benchmark build
SHAPES = {
    "dgx1p": ("dgx1p", {}),
    "dgx1p_x2": ("dgx1p", {"servers": 2}),
    "dgx1v": ("dgx1v", {}),
    "dgx1v_x2": ("dgx1v", {"servers": 2}),
    "dgx1v_x4": ("dgx1v", {"servers": 4}),
    "dgx1v_x8": ("dgx1v", {"servers": 8}),
    "dgx2": ("dgx2", {}),
    "fat_tree_edr_1x1": ("fat_tree_edr", {"nodes": 1, "devices_per_node": 1}),
    "fat_tree_edr_1x4": ("fat_tree_edr", {"nodes": 1, "devices_per_node": 4}),
    "fat_tree_edr_2x1": ("fat_tree_edr", {"nodes": 2, "devices_per_node": 1}),
    "fat_tree_edr_2x4": ("fat_tree_edr", {"nodes": 2, "devices_per_node": 4}),
    "fat_tree_edr_3x2": ("fat_tree_edr", {"nodes": 3, "devices_per_node": 2}),
    "fat_tree_edr_4x2": ("fat_tree_edr", {"nodes": 4, "devices_per_node": 2}),
}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _hops(hops) -> str:
    return " ".join(f"{li}{'+' if fwd else '-'}" for li, fwd in hops)


def _host_bridge(topo, dev) -> str:
    try:
        return str(bridge_path(topo, dev)[0])
    except TopologyError:
        return "none"


def fingerprint(topo) -> dict:
    devs = topo.devices
    nodes = sorted(topo.nodes, key=NodeId.sort_key)
    return {
        "nodes": len(nodes),
        "devices": len(devs),
        "links": len(topo.links),
        "routes": _sha(f"{i} {j} {topo.route_bandwidth(i, j):.17g}: {_hops(route_hops(topo, i, j))}"
                       for i in devs for j in devs),
        "path_hops": _sha(f"{a} {b}: {_hops(path_hops(topo, a, b))}"
                          for a in nodes for b in nodes),
        "nearest_host_bridge": _sha(f"{d} {_host_bridge(topo, d)}" for d in devs),
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_shape():
    assert sorted(_golden()) == sorted(SHAPES)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_routes_match_golden(name):
    kind, kwargs = SHAPES[name]
    assert fingerprint(preset(kind, **kwargs)) == _golden()[name]
