"""Scenario document validation and the bundled examples."""

import json
import re
from importlib import resources

import pytest

import haloflow.scenario as scenario_mod
from haloflow import (ConfigurationError, RankMap, ScenarioError, SimulationError, load_scenario,
                      parse_grid, parse_scenario, preset)
from haloflow.netsim import Flow, TimestepScenario, simulate_timestep
from haloflow.energy import PowerModel
from haloflow.scenario import AlltoallJob, EnergySpec, HaloJob, Scenario, SweepPoint


def bundled(name):
    return resources.files("haloflow").joinpath("scenarios", name)


def minimal(**overrides):
    doc = {
        "schema": 1,
        "topology": {"preset": "dgx1v"},
        "workload": {"kind": "alltoall", "ranks": 4, "msg_bytes": 100},
    }
    doc.update(overrides)
    return doc


class TestBundledScenarios:
    def test_demo_parses_with_all_sections(self):
        scn = parse_scenario(json.loads(bundled("demo.json").read_text()))
        assert isinstance(scn.workload, AlltoallJob)
        assert scn.sweep is not None and len(scn.sweep.points) == 3
        assert scn.roofline is not None and len(scn.roofline.kernels) == 5
        assert scn.energy is not None and len(scn.energy.configurations) == 4
        assert scn.seed == 1234

    def test_halo_scenario(self):
        scn = parse_scenario(json.loads(bundled("halo.json").read_text()))
        assert isinstance(scn.workload, HaloJob)
        assert scn.workload.grid == "quad160x160"
        assert scn.workload.bytes_per_element == 56000


class TestGridShorthand:
    def test_forms(self):
        assert parse_grid("ring8").n == 8
        assert parse_grid("quad4x6").n == 24
        g = parse_grid("random32d4s9")
        assert g.n == 32 and g.max_degree <= 4

    def test_rejects_unknown_shapes(self):
        for bad in ("tri9", "quad4", "random32", "ring", ""):
            with pytest.raises(ScenarioError):
                parse_grid(bad)


class TestValidationPaths:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(minimal(extra=1))
        assert err.value.path == "extra"

    def test_unknown_nested_key_carries_dotted_path(self):
        doc = minimal()
        doc["workload"]["bogus"] = True
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "workload.bogus"

    def test_indexed_path_for_list_entries(self):
        doc = minimal(
            sweep={
                "total_bytes": 1.0,
                "compute_seconds_total": 0.0,
                "points": [
                    {"name": "a", "topology": {"preset": "dgx2"}, "ranks": 4},
                    {"name": "b", "topology": {"preset": "dgx2"}, "ranks": 0},
                ],
            }
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "sweep.points[1].ranks"

    def test_wrong_type_reported_at_field(self):
        doc = minimal()
        doc["workload"]["ranks"] = "four"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "workload.ranks"

    def test_boolean_is_not_a_number(self):
        doc = minimal()
        doc["workload"]["msg_bytes"] = True
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "workload.msg_bytes"

    def test_missing_required_key(self):
        doc = minimal()
        del doc["workload"]["ranks"]
        with pytest.raises(ScenarioError, match="ranks") as err:
            parse_scenario(doc)
        assert err.value.path == "workload.ranks"

    def test_schema_version_checked(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(minimal(schema=2))
        assert err.value.path == "schema"

    def test_bad_enum_lists_choices(self):
        doc = minimal()
        doc["workload"] = {"kind": "halo", "grid": "ring8", "ranks": 2,
                          "steps": 1, "mode": "sideways"}
        with pytest.raises(ScenarioError, match="mask_array"):
            parse_scenario(doc)

    def test_unknown_workload_kind(self):
        doc = minimal()
        doc["workload"] = {"kind": "gossip"}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "workload.kind"


class TestWorkloads:
    def test_timestep_parses_flows(self):
        doc = minimal()
        doc["workload"] = {
            "kind": "timestep",
            "compute_seconds": [0.5, 0.25],
            "flows": [{"src": 0, "dst": 1, "bytes": 1000}],
        }
        scn = parse_scenario(doc)
        assert isinstance(scn.workload, TimestepScenario)
        assert scn.workload.compute_seconds == (0.5, 0.25)
        assert scn.workload.flows[0].bytes == 1000
        assert scn.workload.barrier_at_end is True

    def test_halo_defaults(self):
        doc = minimal()
        doc["workload"] = {"kind": "halo", "grid": "ring8", "ranks": 2, "steps": 3}
        scn = parse_scenario(doc)
        assert scn.workload.mode.value == "none"
        assert scn.workload.bytes_per_element == 8.0

    @pytest.mark.parametrize("key, value", [
        ("ranks", 0), ("steps", -1), ("bytes_per_element", 0.0),
        ("bytes_per_element", float("nan")), ("bytes_per_element", float("inf")),
        ("compute_seconds", -1.0), ("compute_seconds", float("nan")),
        ("grid", "hex9"),
    ])
    def test_halo_values_reported_at_field(self, key, value):
        doc = minimal()
        doc["workload"] = {"kind": "halo", "grid": "ring8", "ranks": 2, "steps": 3, key: value}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == f"workload.{key}"

    @pytest.mark.parametrize("grid, message", [
        ("ring1", "ring needs n >= 2"),
        ("quad1x4", "quad_mesh needs nx >= 2 and ny >= 2"),
        ("random1d4s0", "random_grid needs n >= 2"),
        ("random8d1s0", "random_grid needs max_degree >= 2"),
    ])
    def test_halo_grid_arguments_checked_like_the_builders(self, grid, message):
        doc = minimal()
        doc["workload"] = {"kind": "halo", "grid": grid, "ranks": 1, "steps": 1}
        with pytest.raises(ConfigurationError, match=message):
            parse_scenario(doc)
        with pytest.raises(ConfigurationError, match=message):
            parse_grid(grid)

    def test_halo_grid_is_not_built_while_parsing(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("grid built during validation")

        for name in ("ring", "quad_mesh", "random_grid"):
            monkeypatch.setattr(scenario_mod, name, refuse)
        for grid in ("ring8", "quad160x160", "random300d8s1"):
            doc = minimal()
            doc["workload"] = {"kind": "halo", "grid": grid, "ranks": 2, "steps": 3}
            assert parse_scenario(doc).workload.grid == grid

    def test_energy_fit_and_envelope_are_exclusive(self):
        doc = minimal(
            energy={
                "fit": [[0.5, 100.0], [1.0, 200.0]],
                "p_idle": 10.0,
                "configurations": [
                    {"name": "x", "step_seconds": 0.1, "busy_fraction": 0.5}
                ],
            }
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "energy.fit"


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where, path", [
        (("workload", "msg_bytes"), "workload.msg_bytes"),
        (("seed",), "seed"),
        (("topology", "nvlink_gbps"), "topology.nvlink_gbps"),
        (("unknown_key",), "unknown_key"),
    ])
    def test_python_documents_are_checked(self, value, where, path):
        doc = minimal()
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ScenarioError, match="finite") as err:
            parse_scenario(doc)
        assert err.value.path == path

    def test_nested_lists_carry_indices(self):
        doc = minimal(energy={"fit": [[1.0, 196.0], [0.55, float("inf")]],
                              "configurations": [{"name": "x", "step_seconds": 0.1,
                                                  "busy_fraction": 0.5}]})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "energy.fit[1][1]"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_json_literals(self, tmp_path, literal):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(minimal(sweep={
            "total_bytes": 12345, "compute_seconds_total": 0.0,
            "points": [{"name": "a", "topology": {"preset": "dgx2"}, "ranks": 4}],
        })).replace("12345", literal))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.path == "sweep.total_bytes"


    def test_integer_beyond_float_range(self):
        doc = minimal()
        doc["workload"]["msg_bytes"] = 10 ** 400
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "workload.msg_bytes"

    def test_deeply_nested_json_is_invalid_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    @pytest.mark.parametrize("where, path", [
        (("workload", "msg_bytes"), "workload.msg_bytes"),
        (("topology", "name"), "topology.name"),
        (("unknown_key",), "unknown_key"),
    ])
    def test_nesting_deeper_than_the_recursion_limit(self, where, path):
        # json's C decoder may accept more levels than Python's recursion
        # limit; checks of such a document must not recurse per level.
        deep = 1
        for _ in range(1200):
            deep = [deep]
        doc = minimal()
        if where[0] == "topology":
            doc["topology"] = {"nodes": ["device:0"], "links": []}
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = deep
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == path


class TestStringsOutputsCanCarry:
    """Strings reach CSV, JSON and SVG files: UTF-8 must encode them, XML carry names."""

    DEMO_PATHS = [
        ("name",), ("workload", "kind"), ("topology", "preset"),
        ("sweep", "points", 0, "name"), ("roofline", "kernels", 2, "name"),
        ("energy", "configurations", 1, "name"),
    ]

    @staticmethod
    def demo_with(where, value):
        doc = json.loads(bundled("demo.json").read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        return doc

    @staticmethod
    def dotted(where):
        return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)[1:]

    @pytest.mark.parametrize("where", DEMO_PATHS)
    @pytest.mark.parametrize("text", ["a\ud800b", "\udfff"])
    def test_lone_surrogate_anywhere(self, where, text):
        with pytest.raises(ScenarioError, match="UTF-8") as err:
            parse_scenario(self.demo_with(where, text))
        assert err.value.path == self.dotted(where)

    @pytest.mark.parametrize("where", [w for w in DEMO_PATHS if w[-1] == "name"])
    @pytest.mark.parametrize("text, code", [("a\u0001b", "U+0001"), ("x\ufffe", "U+FFFE"),
                                            ("\x7f\x1f", "U+001F")])
    def test_name_xml_cannot_carry(self, where, text, code):
        parse_scenario(self.demo_with(where, "tab\there, \x7f, é, \U0001f600 <&>"))
        with pytest.raises(ScenarioError, match=re.escape(code)) as err:
            parse_scenario(self.demo_with(where, text))
        assert err.value.path == self.dotted(where)


class TestTopologyAndSeed:
    def test_negative_seed(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(minimal(seed=-1))
        assert err.value.path == "seed"

    @pytest.mark.parametrize("topology, path", [
        ({"preset": 5}, "topology.preset"),
        ({"preset": "dgx1v", "srevers": 4}, "topology.srevers"),
        ({"preset": "dgx1v", "servers": 2.9}, "topology.servers"),
    ])
    def test_topology_checked_with_dotted_path(self, topology, path):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(minimal(topology=topology))
        assert err.value.path == path

    def test_sweep_point_topology_checked_with_dotted_path(self):
        doc = minimal(sweep={
            "total_bytes": 1.0, "compute_seconds_total": 0.0,
            "points": [{"name": "a", "topology": {"preset": "dgx2"}, "ranks": 4},
                       {"name": "b", "topology": {"preset": "dgx2", "servres": 1}, "ranks": 4}],
        })
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "sweep.points[1].topology.servres"

    def test_unknown_preset_keeps_its_error(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            parse_scenario(minimal(topology={"preset": "warpcore"}))


class TestConstructorsValidate:
    """Jobs built in Python (as the CLI does from flags) get the scenario checks."""

    @pytest.mark.parametrize("ranks, msg, path", [
        (0, 1, "ranks"), (2, -1, "msg_bytes"), (2, 1.5, "msg_bytes"),
        (2, float("nan"), "msg_bytes"), (2, float("inf"), "msg_bytes"),
    ])
    def test_alltoall(self, ranks, msg, path):
        with pytest.raises(ScenarioError) as err:
            AlltoallJob(ranks, msg, ())
        assert err.value.path == path

    def test_alltoall_integral_float_becomes_int(self):
        job = AlltoallJob(2, 100.0, ())
        assert job.msg_bytes == 100 and isinstance(job.msg_bytes, int)

    @pytest.mark.parametrize("comp, flow, path", [
        ((), None, "compute_seconds"),
        ((0.0, -1.0), None, "compute_seconds[1]"),
        ((0.0, float("nan")), None, "compute_seconds[1]"),
        ((0.0, 0.0), Flow(0, 2, 1, 10), "flows[0].src"),
        ((0.0, 0.0), Flow(0, 0, -1, 10), "flows[0].dst"),
        ((0.0, 0.0), Flow(0, 0, 1, -10), "flows[0].bytes"),
        ((0.0, 0.0), Flow(0, 0, 1, 10, -1), "flows[0].phase"),
        (("x",), None, "compute_seconds[0]"),
        ((0.0, True), None, "compute_seconds[1]"),
        ((0.0, 10**400), None, "compute_seconds[1]"),
        ((0.0, None), None, "compute_seconds[1]"),
    ])
    def test_timestep(self, comp, flow, path):
        with pytest.raises(ScenarioError) as err:
            TimestepScenario(comp, (flow,) if flow else (), True)
        assert err.value.path == path

    @pytest.mark.parametrize("comp, flows, path", [
        (5, (), "compute_seconds"),
        (None, (), "compute_seconds"),
        ((0.0,), [(0, 0, 1, 1)], "flows[0]"),
        ((0.0, 0.0), [Flow(0, 0, 1, 1), "flow"], "flows[1]"),
        ((0.0,), 5, "flows"),
    ])
    def test_timestep_of_the_wrong_shape(self, comp, flows, path):
        with pytest.raises(ScenarioError) as err:
            TimestepScenario(comp, flows)
        assert err.value.path == path

    def test_timestep_leaves_non_number_flow_fields_to_simulate(self):
        scen = TimestepScenario((0.0, 0.0), (Flow(0, 0, 1, "10"),))
        with pytest.raises(SimulationError, match=r"flow 0\.bytes: expected a number, got str"):
            simulate_timestep(preset("dgx1v"), RankMap.identity(2), scen)

    def test_timestep_normalises_its_fields(self):
        scen = TimestepScenario([1, 0.5], (f for f in [Flow(0, 0, 1, 1)]), barrier_at_end=0)
        assert scen.compute_seconds == (1.0, 0.5) and type(scen.compute_seconds[0]) is float
        assert scen.flows == (Flow(0, 0, 1, 1),) and scen.barrier_at_end is False

    def test_timestep_paths_prefixed_in_documents(self):
        doc = minimal()
        doc["workload"] = {"kind": "timestep", "compute_seconds": [0.0, 0.0],
                           "flows": [{"src": 0, "dst": 1, "bytes": 1},
                                     {"src": 0, "dst": 5, "bytes": 1}]}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "workload.flows[1].dst"

    def test_sweep_point_and_scenario(self):
        with pytest.raises(ScenarioError) as err:
            SweepPoint("a", {"preset": "dgx2", "lanes": 2}, 4, 1.0)
        assert err.value.path == "topology.lanes"
        with pytest.raises(ScenarioError) as err:
            Scenario("s", -2, {"preset": "dgx1v"}, AlltoallJob(2, 1, ()))
        assert err.value.path == "seed"


KERNEL = {"name": "k", "flops": 1e9, "bytes": 1e8, "seconds": 0.01}
CONFIG = {"name": "c", "step_seconds": 0.01, "busy_fraction": 0.5, "devices": 2}


class TestModelChecksCarryPaths:
    """Roofline and energy values fail at parse time, through the models' own checks."""

    @pytest.mark.parametrize("roofline, path, message", [
        ({"kernels": [KERNEL, dict(KERNEL, seconds=0)]}, "roofline.kernels[1]",
         "seconds must be finite and positive"),
        ({"kernels": [dict(KERNEL, flops=-1)]}, "roofline.kernels[0]",
         "flops must be finite and >= 0"),
        ({"kernels": [dict(KERNEL, bytes=-1)]}, "roofline.kernels[0]",
         "bytes_moved must be finite and >= 0"),
        ({"kernels": [KERNEL, dict(KERNEL, bytes=0)]}, "roofline.kernels[1]",
         "intensity undefined"),
        ({"peak_gflops": 0, "kernels": [KERNEL]}, "roofline",
         "peak_flops must be finite and positive"),
        ({"stream_gbps": -1, "kernels": [KERNEL]}, "roofline",
         "stream_bandwidth must be finite and positive"),
    ])
    def test_roofline(self, roofline, path, message):
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario(minimal(roofline=roofline))
        assert err.value.path == path

    @pytest.mark.parametrize("energy, path, message", [
        ({"configurations": [CONFIG, dict(CONFIG, busy_fraction=1.5)]},
         "energy.configurations[1]", "busy_fraction must be in"),
        ({"configurations": [dict(CONFIG, busy_fraction=-0.5)]}, "energy.configurations[0]",
         "busy_fraction must be in"),
        ({"configurations": [dict(CONFIG, step_seconds=-1)]}, "energy.configurations[0]",
         "step_seconds must be finite and >= 0"),
        ({"configurations": [dict(CONFIG, devices=0)]}, "energy.configurations[0]",
         "devices must be >= 1"),
        ({"p_idle": -1, "configurations": [CONFIG]}, "energy",
         "p_idle must be finite and >= 0"),
        ({"p_idle": 100, "p_max": 50, "configurations": [CONFIG]}, "energy",
         "must be >= p_idle"),
        ({"fit": [[0.5, 100]], "configurations": [CONFIG]}, "energy.fit", "at least two"),
        ({"fit": [[0.5, 100], [0.5, 120]], "configurations": [CONFIG]}, "energy.fit",
         "slope is undefined"),
        ({"fit": [[0.5, 100], [1.5, 120]], "configurations": [CONFIG]}, "energy.fit",
         "busy_fraction must be in"),
    ])
    def test_energy(self, energy, path, message):
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario(minimal(energy=energy))
        assert err.value.path == path

    def test_energy_spec_built_in_python(self):
        with pytest.raises(ScenarioError) as err:
            EnergySpec(PowerModel(), (("a", 0.1, 0.5, 1), ("b", 0.1, 2.0, 1)))
        assert err.value.path == "configurations[1]"


class TestLoading:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(minimal()))
        scn = load_scenario(path)
        assert scn.workload.ranks == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)
