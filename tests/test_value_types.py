"""The value types' contract: ``Flow``, ``FlowInterval``, ``NodeId`` and ``Link``.

Each is a ``@dataclass(frozen=True, slots=True)`` whose ``__init__`` comes
from ``topology.slot_init``.  These pin what a caller sees of them: equality
and hashing, ``repr``, field order, ``replace``, pickling, construction by
position, keyword and default, the ``TypeError`` of a bad call, immutability,
and the absence of an instance ``__dict__`` or weakref slot.
"""

import copy
import dataclasses
import inspect
import pickle
import weakref

import numpy as np
import pytest

from haloflow import Flow, TopologyError
from haloflow.netsim import FlowInterval
from haloflow import topology
from haloflow.topology import Link, NodeId, NodeKind, device, host_bridge, nic, parse_node, switch

# per type: its fields in order, one instance by position, the same by
# keyword, one that differs, and its pinned repr
CASES = {
    "Flow": (("id", "src_rank", "dst_rank", "bytes", "phase"),
             lambda: Flow(3, 0, 1, 1000, 2),
             lambda: Flow(phase=2, bytes=1000, dst_rank=1, src_rank=0, id=3),
             lambda: Flow(3, 0, 1, 1000),
             "Flow(id=3, src_rank=0, dst_rank=1, bytes=1000, phase=2)"),
    "FlowInterval": (("t0", "t1", "flow_id", "resource", "rate"),
                     lambda: FlowInterval(0.5, 1.5, 7, "device:0->switch:0", 2e9),
                     lambda: FlowInterval(rate=2e9, resource="device:0->switch:0", flow_id=7,
                                          t1=1.5, t0=0.5),
                     lambda: FlowInterval(0.5, 1.5, 7, "device:0->switch:0", 1e9),
                     "FlowInterval(t0=0.5, t1=1.5, flow_id=7, resource='device:0->switch:0', "
                     "rate=2000000000.0)"),
    "NodeId": (("kind", "index"),
               lambda: NodeId(NodeKind.NIC, 4),
               lambda: NodeId(index=4, kind=NodeKind.NIC),
               lambda: NodeId(NodeKind.SWITCH, 4),
               "NodeId(kind=<NodeKind.NIC: 'nic'>, index=4)"),
    "Link": (("a", "b", "bw_per_dir", "lane_count"),
             lambda: Link(device(0), switch(0), 25e9, 6),
             lambda: Link(lane_count=6, bw_per_dir=25e9, b=switch(0), a=device(0)),
             lambda: Link(device(0), switch(0), 25e9),
             "Link(a=NodeId(kind=<NodeKind.DEVICE: 'device'>, index=0), "
             "b=NodeId(kind=<NodeKind.SWITCH: 'switch'>, index=0), bw_per_dir=25000000000.0, "
             "lane_count=6)"),
}
TYPES = {"Flow": Flow, "FlowInterval": FlowInterval, "NodeId": NodeId, "Link": Link}
NAMES = list(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_equality_agrees_with_hash(name):
    _, make, by_keyword, other, _ = CASES[name]
    x, y, z = make(), by_keyword(), other()
    assert x == y and hash(x) == hash(y)
    assert x != z
    assert len({x, y, z}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(CASES[name][1]()) == CASES[name][4]


@pytest.mark.parametrize("name", NAMES)
def test_field_order_and_slots(name):
    names = CASES[name][0]
    assert tuple(f.name for f in dataclasses.fields(TYPES[name])) == names
    assert TYPES[name].__slots__ == names
    assert TYPES[name].__match_args__ == names


@pytest.mark.parametrize("name", NAMES)
def test_replace_copy_and_pickle(name):
    names, make, _, other, _ = CASES[name]
    x, y = make(), other()
    changed = {n: getattr(y, n) for n in names if getattr(x, n) != getattr(y, n)}
    assert len(changed) == 1 and dataclasses.replace(x, **changed) == y
    assert dataclasses.replace(x) == x
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    back = pickle.loads(pickle.dumps(x))
    assert back == x and type(back) is type(x)
    assert dataclasses.astuple(back) == dataclasses.astuple(x)


def test_node_kind_unpickles_to_its_singleton():
    for node in (device(0), host_bridge(1), switch(2), nic(3)):
        assert pickle.loads(pickle.dumps(node)).kind is node.kind
    assert pickle.loads(pickle.dumps(NodeKind.NIC)) is NodeKind.NIC


def test_node_kind_hashes_by_identity():
    assert NodeKind.__hash__ is object.__hash__
    assert {NodeKind.DEVICE: 1}[NodeKind("device")] == 1


@pytest.mark.parametrize("name", NAMES)
def test_keyword_default_and_bad_calls(name):
    names, make, by_keyword, _, _ = CASES[name]
    cls, x = TYPES[name], make()
    values = [getattr(x, n) for n in names]
    assert cls(*values) == by_keyword() == x
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required "
                                        rf"positional argument: '{names[0]}'$"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) takes "):
        cls(*values, 0)
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) got an unexpected keyword "
                                        r"argument 'colour'$"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match="multiple values for argument"):
        cls(*values, **{names[0]: values[0]})


def test_defaults_and_signatures_match_a_plain_dataclass():
    """The generated ``__init__`` has the parameters, kinds and defaults
    ``dataclass`` would give it."""
    assert Flow(1, 0, 1, 5).phase == 0
    assert Link(device(0), device(1), 1e9).lane_count == 1
    for cls in TYPES.values():
        plain = dataclasses.make_dataclass(
            cls.__name__, [(f.name, f.type, f) if f.default is not dataclasses.MISSING
                           else (f.name, f.type) for f in dataclasses.fields(cls)],
            frozen=True)
        assert inspect.signature(cls) == inspect.signature(plain)
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("name", NAMES)
def test_frozen_slotted_and_without_weakrefs(name):
    x = CASES[name][1]()
    for field in (*CASES[name][0], "colour"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{field}'$"):
            setattr(x, field, 1)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{field}'$"):
            delattr(x, field)
    with pytest.raises(AttributeError):
        object.__setattr__(x, "colour", 1)
    assert not hasattr(x, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(x)


def test_node_id_order_str_and_parse_round_trip():
    nodes = [nic(0), switch(1), host_bridge(2), device(10), device(2), host_bridge(0)]
    ordered = sorted(nodes, key=NodeId.sort_key)
    assert [str(n) for n in ordered] == ["device:2", "device:10", "hostbridge:0",
                                         "hostbridge:2", "switch:1", "nic:0"]
    for n in nodes:
        assert parse_node(str(n)) == n
        assert hash(parse_node(str(n))) == hash(n)


class TestLinkChecks:
    """The checks ``Link`` makes in its ``__init__``, with their messages."""

    def test_one_lane_at_a_float_is_stored_as_given(self):
        bw = 12e9
        ln = Link(device(0), host_bridge(0), bw)
        assert ln.bw_per_dir is bw and ln.lane_count == 1 and ln.capacity == bw

    def test_zero_lanes_at_a_float_refused(self):
        with pytest.raises(TopologyError, match=r"^lane_count: lane_count must be >= 1$"):
            Link(device(0), device(1), 1.0, 0)

    def test_endpoints_must_differ(self):
        with pytest.raises(TopologyError, match="^link endpoints must differ, got device:3$"):
            Link(device(3), device(3), 1e9)
        with pytest.raises(TopologyError, match="endpoints must differ"):
            Link(a=switch(0), b=NodeId(NodeKind.SWITCH, 0), bw_per_dir=1e9, lane_count=2)

    @pytest.mark.parametrize("bw, lanes, refused", [
        (0.0, 1, "bw_per_dir: bw_per_dir must be finite and positive"),
        (float("inf"), 1, "bw_per_dir: bw_per_dir must be finite and positive"),
        (1e9, True, "lane_count: expected an integer, got bool"),
        (1e9, 2.0, "lane_count: expected an integer, got float"),
    ])
    def test_bad_values_refused_by_name(self, bw, lanes, refused):
        with pytest.raises(TopologyError, match=f"^{refused}$"):
            Link(device(0), device(1), bw, lanes)

    def test_canonical_values(self):
        ln = Link(device(0), device(1), np.float32(2.0), np.int64(3))
        assert type(ln.bw_per_dir) is float and type(ln.lane_count) is int
        assert (ln.bw_per_dir, ln.lane_count) == (2.0, 3)
        assert Link(device(0), device(1), 5, 1).bw_per_dir.__class__ is float


class TestSlotInit:
    def test_refuses_fields_it_cannot_store_positionally(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Bag:
            items: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="plain positional fields only"):
            topology.slot_init(Bag)

    def test_check_sees_the_arguments_and_its_values_are_stored(self):
        seen = []

        @topology.slot_init(check=lambda x, y: seen.append((x, y)) or (x * 2, y))
        @dataclasses.dataclass(frozen=True, slots=True)
        class Pair:
            x: int
            y: int = 5

        assert (Pair(3).x, Pair(y=1, x=2).y) == (6, 1)
        assert seen == [(3, 5), (2, 1)]
