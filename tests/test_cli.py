"""Command-line behaviour: output contracts, exit codes, seeding."""

import json
import subprocess
import sys
import warnings
from importlib import resources

import pytest

from haloflow import TopologyError
from haloflow.cli import main, parse_topology_arg, resolve_seed
from haloflow.topology import from_spec


def bundled(name):
    return str(resources.files("haloflow").joinpath("scenarios", name))


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeedPrecedence:
    def test_flag_beats_scenario(self, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        assert resolve_seed(9, 4) == 9
        assert resolve_seed(None, 4) == 4

    def test_environment_beats_flag(self, monkeypatch):
        monkeypatch.setenv("HALOFLOW_SEED", "77")
        assert resolve_seed(9, 4) == 77

    def test_environment_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("HALOFLOW_SEED", "seven")
        from haloflow import ConfigurationError
        with pytest.raises(ConfigurationError):
            resolve_seed(None)


class TestTopologyArg:
    def test_plain_preset(self):
        assert parse_topology_arg("dgx2").n_devices == 16

    def test_preset_with_parameters(self):
        assert parse_topology_arg("dgx1v:servers=2").n_devices == 16
        assert parse_topology_arg("fat_tree_edr:nodes=3,devices_per_node=2").n_devices == 6

    def test_malformed_parameters(self):
        from haloflow import ConfigurationError
        with pytest.raises(ConfigurationError):
            parse_topology_arg("dgx1v:servers")
        with pytest.raises(ConfigurationError):
            parse_topology_arg("dgx1v:servers=")


class TestStdoutContracts:
    def test_alltoall_csv(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, err = run_main(
            capsys, "alltoall", "--topology", "dgx1v",
            "--ranks", "4", "--msg-bytes", "100000000",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "schedule,ranks,msg_bytes,phases,makespan_seconds"
        assert len(lines) == 5
        assert out.endswith("\n") and "\r" not in out

    def test_json_format(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, _ = run_main(
            capsys, "alltoall", "--ranks", "2", "--msg-bytes", "8",
            "--schedule", "rotated_concurrent", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["header"][0] == "schedule"
        assert len(doc["rows"]) == 1

    def test_halo_emits_checksums_and_timing(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, _ = run_main(
            capsys, "halo", "--grid", "ring16", "--ranks", "4",
            "--steps", "3", "--seed", "1",
        )
        assert code == 0
        assert out.count("step,checksum") == 1
        assert "staged_over_direct" in out


class TestOutputDirectory:
    def test_report_writes_fixed_artifact_names(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        out = tmp_path / "rep"
        code, _, err = run_main(
            capsys, "report", "--scenario", bundled("demo.json"),
            "--output", str(out),
        )
        assert code == 0, err
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "alltoall.csv", "energy.csv", "roofline.csv",
            "roofline.svg", "summary.json", "sweep.csv",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "demo"
        assert summary["seed"] == 1234

    def test_halo_report_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        out = tmp_path / "rep"
        code, _, err = run_main(
            capsys, "report", "--scenario", bundled("halo.json"),
            "--output", str(out),
        )
        assert code == 0, err
        names = sorted(p.name for p in out.iterdir())
        assert names == ["halo_checksums.csv", "halo_timing.csv", "summary.json"]

    def test_svg_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        out = tmp_path / "roof"
        code, _, _ = run_main(
            capsys, "roofline", "--scenario", bundled("demo.json"),
            "--output", str(out), "--svg",
        )
        assert code == 0
        svg = (out / "roofline.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_svg_escapes_kernel_names(self, tmp_path, capsys, monkeypatch):
        from xml.dom import minidom

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, roofline={"kernels": [
            {"name": "a<b&c", "flops": 1e9, "bytes": 1e8, "seconds": 0.01}]})
        out = tmp_path / "roof"
        code, _, err = run_main(capsys, "roofline", "--scenario", write_scenario(tmp_path, doc),
                                "--output", str(out), "--svg")
        assert code == 0, err
        labels = minidom.parse(str(out / "roofline.svg")).getElementsByTagName("text")
        assert "a<b&c" in [t.firstChild.data for t in labels]

    def test_svg_needs_output(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, _, err = run_main(
            capsys, "roofline", "--scenario", bundled("demo.json"), "--svg",
        )
        assert code == 3
        assert json.loads(err)["error"] == "ConfigurationError"


class TestExitCodes:
    def test_invalid_scenario_is_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": 1,
            "topology": {"preset": "dgx1v"},
            "workload": {"kind": "alltoall", "ranks": 4, "msg_bytes": 1, "oops": 0},
        }))
        code, _, err = run_main(capsys, "alltoall", "--scenario", str(bad))
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "ScenarioError"
        assert doc["path"] == "workload.oops"

    def test_missing_section_is_3(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, _, err = run_main(capsys, "sweep", "--scenario", bundled("halo.json"))
        assert code == 3
        assert json.loads(err)["error"] == "ScenarioError"

    def test_unknown_preset_is_3(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, _, err = run_main(
            capsys, "alltoall", "--topology", "warpcore",
            "--ranks", "2", "--msg-bytes", "1",
        )
        assert code == 3
        assert json.loads(err)["error"] == "ConfigurationError"

    def test_simulation_error_is_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = {
            "schema": 1,
            "topology": {"preset": "dgx1v"},
            "workload": {
                "kind": "timestep",
                "compute_seconds": [0.0, 0.0],
                "flows": [
                    {"src": 0, "dst": 1, "bytes": 1, "phase": 1},
                ],
            },
        }
        scn = tmp_path / "gap.json"
        scn.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code, _, err = run_main(
            capsys, "report", "--scenario", str(scn), "--output", str(out)
        )
        assert code == 4
        assert json.loads(err)["error"] == "SimulationError"

    def test_io_failure_is_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_main(
            capsys, "report", "--scenario", bundled("demo.json"),
            "--output", str(blocker),
        )
        assert code == 5
        assert json.loads(err)["error"] in ("NotADirectoryError", "FileExistsError")

    @pytest.mark.parametrize("flag, value", [
        ("--steps", "-3"), ("--bytes-per-element", "nan"), ("--compute-seconds", "-inf"),
        ("--ranks", "0"),
    ])
    def test_bad_halo_flag_is_3(self, capsys, monkeypatch, flag, value):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        argv = {"--ranks": "2", "--grid": "ring8", "--steps": "1", flag: value}
        code, out, err = run_main(capsys, "halo", *[f"{k}={v}" for k, v in argv.items()])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "ScenarioError"
        assert doc["path"] == flag[2:].replace("-", "_")

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["alltoall", "--no-such-flag"])
        assert err.value.code == 2


class TestSeededRuns:
    def test_environment_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("HALOFLOW_SEED", "5")
        _, with_env, _ = run_main(
            capsys, "halo", "--grid", "ring16", "--ranks", "2",
            "--steps", "2", "--seed", "99",
        )
        monkeypatch.delenv("HALOFLOW_SEED")
        _, direct, _ = run_main(
            capsys, "halo", "--grid", "ring16", "--ranks", "2",
            "--steps", "2", "--seed", "5",
        )
        assert with_env == direct


class TestInstalledEntryPoint:
    def test_console_script_answers(self):
        proc = subprocess.run(
            [sys.executable, "-m", "haloflow.cli", "alltoall",
             "--ranks", "2", "--msg-bytes", "1000"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("schedule,")


def write_scenario(tmp_path, text):
    path = tmp_path / "scn.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    return str(path)


def one_json_line(err):
    assert len(err.splitlines()) == 1
    return json.loads(err)


ALLTOALL_DOC = {
    "schema": 1,
    "topology": {"preset": "dgx1v"},
    "workload": {"kind": "alltoall", "ranks": 4, "msg_bytes": 1000},
}


class TestRejectedBeforeAnyWork:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_msg_bytes(self, tmp_path, capsys, monkeypatch, literal):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        text = json.dumps(ALLTOALL_DOC).replace('"msg_bytes": 1000', f'"msg_bytes": {literal}')
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "report", "--scenario",
                                     write_scenario(tmp_path, text), "--output", str(out))
        assert code == 3 and stdout == ""
        assert one_json_line(err)["path"] == "workload.msg_bytes"
        assert not out.exists()

    def test_non_finite_sweep_total_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, sweep={
            "total_bytes": 12345, "compute_seconds_total": 0.0,
            "points": [{"name": "p", "topology": {"preset": "dgx2"}, "ranks": 4}]})
        text = json.dumps(doc).replace("12345", "NaN")
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "report", "--scenario",
                                write_scenario(tmp_path, text), "--output", str(out))
        assert code == 3
        assert one_json_line(err)["path"] == "sweep.total_bytes"
        assert not out.exists()

    def test_negative_scenario_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, seed=-1)
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "report", "--scenario", write_scenario(tmp_path, doc),
                                "--output", str(out))
        assert code == 3
        assert one_json_line(err)["path"] == "seed"
        assert not out.exists()

    def test_msg_bytes_flag_beyond_float_range(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, err = run_main(capsys, "alltoall", "--ranks", "2",
                                  "--msg-bytes", "1" + "0" * 400)
        assert code == 3 and out == ""
        assert one_json_line(err)["path"] == "msg_bytes"

    def test_negative_seed_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, err = run_main(capsys, "halo", "--grid", "ring8", "--ranks", "2",
                                  "--seed", "-1")
        assert code == 3 and out == ""
        assert one_json_line(err)["path"] == "seed"

    def test_negative_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("HALOFLOW_SEED", "-3")
        code, out, err = run_main(capsys, "halo", "--grid", "ring8", "--ranks", "2")
        assert code == 3 and out == ""
        assert "HALOFLOW_SEED" in one_json_line(err)["message"]

    @pytest.mark.parametrize("topology, path", [
        ({"preset": 5}, "topology.preset"),
        ({"preset": "dgx1v", "srevers": 4}, "topology.srevers"),
        ({"preset": "dgx1v", "servers": 2.0}, "topology.servers"),
        ({"preset": "dgx1v", "servers": True}, "topology.servers"),
        ({"preset": "dgx1v", "nvlink_gbps": "fast"}, "topology.nvlink_gbps"),
        ({"nodes": [], "links": [], "colour": "red"}, "topology.colour"),
    ])
    def test_bad_topology_spec(self, tmp_path, capsys, monkeypatch, topology, path):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, topology=topology)
        code, out, err = run_main(capsys, "alltoall", "--scenario",
                                  write_scenario(tmp_path, doc))
        assert code == 3 and out == ""
        assert one_json_line(err)["path"] == path

    @pytest.mark.parametrize("spec", ["dgx1v:servers=2.9", "dgx1v:srevers=2",
                                      "dgx1v:servers=true", "dgx1v:nvlink_gbps=\"x\"",
                                      "dgx1v:nvlink_gbps=NaN", "dgx1v:ib_gbps=1" + "0" * 400])
    def test_bad_topology_flag(self, capsys, monkeypatch, spec):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, err = run_main(capsys, "alltoall", "--topology", spec,
                                  "--ranks", "4", "--msg-bytes", "1")
        assert code == 3 and out == ""
        assert one_json_line(err)["path"].startswith("topology.")

    def test_report_needs_output(self, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, err = run_main(capsys, "report", "--scenario", bundled("demo.json"))
        assert code == 3 and out == ""
        assert one_json_line(err)["error"] == "ConfigurationError"

    def test_unchartable_roofline_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, roofline={
            "kernels": [{"name": "idle", "flops": 0, "bytes": 8, "seconds": 1}]})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "report", "--scenario", scn, "--output", str(out))
        assert code == 3
        assert one_json_line(err)["error"] == "ConfigurationError"
        assert not out.exists()
        # without --svg the table alone still prints
        code, stdout, _ = run_main(capsys, "roofline", "--scenario", scn)
        assert code == 0 and stdout.startswith("kernel,")

    @pytest.mark.parametrize("section, entry, path", [
        ("roofline", {"kernels": [{"name": "k", "flops": 1, "bytes": 1, "seconds": 0}]},
         "roofline.kernels[0]"),
        ("energy", {"configurations": [{"name": "c", "step_seconds": 1, "busy_fraction": 1.5}]},
         "energy.configurations[0]"),
    ])
    def test_model_values_fail_with_a_path(self, tmp_path, capsys, monkeypatch,
                                           section, entry, path):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        scn = write_scenario(tmp_path, dict(ALLTOALL_DOC, **{section: entry}))
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "report", "--scenario", scn, "--output", str(out))
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ScenarioError" and doc["path"] == path
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("alltoall", "--ranks", "100000000", "--msg-bytes", "1"),
        ("alltoall", "--ranks", "9", "--msg-bytes", "1"),
    ])
    def test_ranks_beyond_the_devices_fail_before_the_size_matrix(self, capsys, monkeypatch,
                                                                   argv):
        import haloflow.cli as cli

        def refuse(*_args):
            raise AssertionError("size matrix built for more ranks than devices")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(cli, "uniform_sizes", refuse)
        code, stdout, err = run_main(capsys, *argv)
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ConfigurationError" and "8 devices" in doc["message"]

    def test_halo_ranks_beyond_the_devices_fail_before_the_stencil(self, capsys, monkeypatch):
        import haloflow.cli as cli

        calls = []
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(cli, "run_stencil", lambda *args, **kwargs: calls.append(args))
        code, stdout, err = run_main(capsys, "halo", "--ranks", "9", "--grid", "ring16",
                                     "--steps", "1", "--topology", "dgx1v")
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ConfigurationError"
        assert doc["message"] == "9 ranks exceed the 8 devices of topology 'dgx1v'"
        assert calls == []

    def test_zero_byte_kernel_fails_at_parse_time(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = json.loads(resources.files("haloflow").joinpath("scenarios", "demo.json")
                         .read_text(encoding="utf-8"))
        doc["roofline"]["kernels"][0]["bytes"] = 0
        code, stdout, err = run_main(capsys, "roofline", "--scenario",
                                     write_scenario(tmp_path, doc))
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ScenarioError" and doc["path"] == "roofline.kernels[0]"

    @pytest.mark.parametrize("spec, path", [
        ("dgx1v:servers=65", "topology.servers"),
        ("dgx1p:servers=1" + "0" * 30, "topology.servers"),
        ("fat_tree_edr:nodes=100000", "topology.nodes"),
        ("fat_tree_edr:nodes=65,devices_per_node=8", "topology.nodes"),
        ("fat_tree_edr:nodes=2,devices_per_node=513", "topology.devices_per_node"),
    ])
    def test_preset_too_large_fails_before_it_is_built(self, capsys, monkeypatch, spec, path):
        import haloflow.topology as topology

        def refuse(*_args, **_kwargs):
            raise AssertionError("topology built beyond the preset size limit")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(topology, "preset", refuse)
        code, stdout, err = run_main(capsys, "alltoall", "--topology", spec,
                                     "--ranks", "2", "--msg-bytes", "1")
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ScenarioError" and doc["path"] == path
        assert "512" in doc["message"]

    @pytest.mark.parametrize("source, path", [("flag", "grid"), ("scenario", "workload.grid")])
    def test_random_grid_beyond_its_bound_fails_before_it_is_built(self, tmp_path, capsys,
                                                                   monkeypatch, source, path):
        import haloflow.scenario as scenario

        def refuse(*_args):
            raise AssertionError("random grid built beyond its size bound")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(scenario, "random_grid", refuse)
        out = tmp_path / "out"
        if source == "flag":
            argv = ("halo", "--grid", "random4097d8s1", "--ranks", "2", "--steps", "1")
        else:
            doc = dict(ALLTOALL_DOC, workload={"kind": "halo", "grid": "random20000d8s1",
                                               "ranks": 2, "steps": 1})
            argv = ("report", "--scenario", write_scenario(tmp_path, doc), "--output", str(out))
        code, stdout, err = run_main(capsys, *argv)
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ScenarioError" and doc["path"] == path
        assert "4096" in doc["message"]
        assert not out.exists()

    @pytest.mark.parametrize("grid, size", [("quad100000x100000", 10**10),
                                            ("ring99999999999", 99999999999),
                                            ("quad2049x2048", 2049 * 2048),
                                            ("ring4194305", 4194305)])
    @pytest.mark.parametrize("source, path", [("flag", "grid"), ("scenario", "workload.grid")])
    def test_mesh_beyond_its_bound_fails_before_it_is_built(self, tmp_path, capsys, monkeypatch,
                                                            grid, size, source, path):
        import haloflow.scenario as scenario

        def refuse(*_args):
            raise AssertionError("mesh built beyond its size bound")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(scenario, "ring", refuse)
        monkeypatch.setattr(scenario, "quad_mesh", refuse)
        out = tmp_path / "out"
        if source == "flag":
            argv = ("halo", "--grid", grid, "--ranks", "2", "--steps", "1")
        else:
            doc = dict(ALLTOALL_DOC, workload={"kind": "halo", "grid": grid,
                                               "ranks": 2, "steps": 1})
            argv = ("report", "--scenario", write_scenario(tmp_path, doc), "--output", str(out))
        code, stdout, err = run_main(capsys, *argv)
        assert code == 3 and stdout == ""
        doc = one_json_line(err)
        assert doc["error"] == "ScenarioError" and doc["path"] == path
        assert "4194304" in doc["message"] and str(size) in doc["message"]
        assert not out.exists()

    def test_sweep_point_ranks_beyond_its_devices(self, tmp_path, capsys, monkeypatch):
        import haloflow.cli as cli

        def refuse(*_args):
            raise AssertionError("size matrix built for more ranks than devices")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(cli, "uniform_sizes", refuse)
        doc = dict(ALLTOALL_DOC, sweep={"total_bytes": 1e6, "compute_seconds_total": 0.01,
                                        "points": [{"name": "big", "topology": {"preset": "dgx2"},
                                                    "ranks": 17}]})
        code, stdout, err = run_main(capsys, "sweep", "--scenario", write_scenario(tmp_path, doc))
        assert code == 3 and stdout == ""
        assert "16 devices" in one_json_line(err)["message"]

    def test_sweep_point_link_endpoint_before_the_workload_runs(self, tmp_path, capsys,
                                                                monkeypatch):
        import haloflow.cli as cli

        def refuse(*_args):
            raise AssertionError("simulated before the sweep point's topology was checked")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(cli, "simulate", refuse)
        topo = json.loads(json.dumps(INLINE_TOPOLOGY))
        topo["links"][0]["a"] = 5
        doc = dict(ALLTOALL_DOC, sweep={"total_bytes": 1e6, "compute_seconds_total": 0.01,
                                        "points": [{"name": "p", "topology": topo,
                                                    "ranks": 2}]})
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "report", "--scenario",
                                     write_scenario(tmp_path, doc), "--output", str(out))
        assert code == 3 and stdout == ""
        assert one_json_line(err)["path"] == "sweep.points[0].topology.links[0].a"
        assert not out.exists()

    def test_sweep_point_link_bandwidth_before_the_workload_runs(self, tmp_path, capsys,
                                                                 monkeypatch):
        """A bandwidth of no more than 0 failed only when the point's machine
        was built, after the workload had run, at the constructor's path ``bw_per_dir``."""
        import haloflow.cli as cli

        def refuse(*_args):
            raise AssertionError("simulated before the sweep point's topology was checked")

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        monkeypatch.setattr(cli, "simulate", refuse)
        topo = json.loads(json.dumps(INLINE_TOPOLOGY))
        topo["links"][0]["gbps_per_dir"] = -5
        doc = dict(ALLTOALL_DOC, sweep={"total_bytes": 1e6, "compute_seconds_total": 0.01,
                                        "points": [{"name": "p", "topology": topo,
                                                    "ranks": 2}]})
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "report", "--scenario",
                                     write_scenario(tmp_path, doc), "--output", str(out))
        assert code == 3 and stdout == ""
        assert one_json_line(err)["path"] == "sweep.points[0].topology.links[0].gbps_per_dir"
        assert not out.exists()

    def test_unrenderable_csv_cell_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, energy={
            "p_idle": 50.0, "p_max": 200.0,
            "configurations": [{"name": "a,b", "step_seconds": 0.1, "busy_fraction": 0.5}]})
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "report", "--scenario", write_scenario(tmp_path, doc),
                                "--output", str(out))
        assert code == 3
        assert "quoting" in one_json_line(err)["message"]
        assert not out.exists()


INLINE_TOPOLOGY = {
    "nodes": ["device:0", "device:1", "switch:0"],
    "links": [{"a": "device:0", "b": "switch:0", "gbps_per_dir": 10},
              {"a": "device:1", "b": "switch:0", "gbps_per_dir": 10}],
    "routes": [{"src": 0, "dst": 1, "links": [0, 1]}],
}


class TestInlineTopologyEntries:
    """A malformed inline-topology entry exits 3 naming it, instead of being coerced."""

    @pytest.mark.parametrize("entry, key, value, path", [
        ("links", "lanes", 2.5, "links[0].lanes"),
        ("links", "lanes", "2", "links[0].lanes"),
        ("links", "gbps_per_dir", "10", "links[0].gbps_per_dir"),
        ("links", "gbps_per_dir", True, "links[0].gbps_per_dir"),
        ("routes", "src", 0.7, "routes[0].src"),
        ("routes", "links", [0.9, 1], "routes[0].links[0]"),
        ("routes", "links", [False, 1], "routes[0].links[0]"),
        (None, "device_mem_bw_gbps", "800", "device_mem_bw_gbps"),
        ("links", "lane", 2, "links[0].lane"),
        ("routes", "via", 1, "routes[0].via"),
    ])
    def test_report_exits_3_with_the_entry_path(self, tmp_path, capsys, monkeypatch,
                                                entry, key, value, path):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        topo = json.loads(json.dumps(INLINE_TOPOLOGY))
        (topo[entry][0] if entry else topo)[key] = value
        doc = dict(ALLTOALL_DOC, topology=topo,
                   workload={"kind": "alltoall", "ranks": 2, "msg_bytes": 1000})
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "report", "--scenario",
                                     write_scenario(tmp_path, doc), "--output", str(out))
        assert code == 3 and stdout == ""
        assert one_json_line(err)["path"] == f"topology.{path}"
        assert not out.exists()
        with pytest.raises(TopologyError) as exc:
            from_spec(topo)
        assert exc.value.path == path

    @pytest.mark.parametrize("edit, path", [
        (lambda t: t["links"][0].pop("gbps_per_dir"), "links[0].gbps_per_dir"),
        (lambda t: t["links"][1].pop("b"), "links[1].b"),
        (lambda t: t["links"][0].pop("a"), "links[0].a"),
        (lambda t: t["links"][0].update(lanes=0), "links[0].lanes"),
        (lambda t: t["links"][1].update(lanes=-2), "links[1].lanes"),
        (lambda t: t["routes"][0].pop("links"), "routes[0].links"),
        (lambda t: t["nodes"].append("device:0"), "nodes[3]"),
        (lambda t: t["nodes"].insert(1, "switch:00"), "nodes[1]"),
        (lambda t: t["nodes"].append("device:x"), "nodes[3]"),
        (lambda t: t["links"][0].update(a=5), "links[0].a"),
        (lambda t: t["links"][0].update(a="device:x"), "links[0].a"),
        (lambda t: t["links"][1].update(b="switch:1"), "links[1].b"),
        (lambda t: t.pop("links"), "links"),
        (lambda t: t.pop("nodes"), "nodes"),
        (lambda t: t["routes"][0].pop("src"), "routes[0].src"),
        (lambda t: t["routes"][0].update(src=3), "routes[0].src"),
        (lambda t: t["routes"][0].update(dst=-1), "routes[0].dst"),
        (lambda t: t["routes"].append({"src": 0, "dst": 1, "links": [0, 1]}), "routes[1]"),
        (lambda t: t["routes"].append({"src": 0, "dst": 0, "links": [0, 0]}), "routes[1].links"),
        (lambda t: t["links"][0].update(gbps_per_dir=-5), "links[0].gbps_per_dir"),
        (lambda t: t.update(device_mem_bw_gbps=0), "device_mem_bw_gbps"),
        (lambda t: t["links"][1].update(b="device:1"), "links[1].b"),
    ], ids=["no_gbps_per_dir", "no_b", "no_a", "lanes_0", "lanes_negative", "route_no_links",
            "node_repeated", "node_repeated_as_switch_00", "node_malformed",
            "endpoint_not_a_string", "endpoint_malformed", "endpoint_not_a_node",
            "no_links", "no_nodes", "route_no_src", "route_src_not_a_device",
            "route_dst_not_a_device", "route_pair_repeated", "self_route_with_links",
            "gbps_per_dir_negative", "device_mem_bw_zero", "link_to_its_own_node"])
    def test_missing_keys_zero_lanes_and_repeated_nodes(self, tmp_path, capsys, monkeypatch,
                                                         edit, path):
        """Each exited 3 without a path before these checks, or (a repeated
        node) ran with the two names merged."""
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        topo = json.loads(json.dumps(INLINE_TOPOLOGY))
        edit(topo)
        doc = dict(ALLTOALL_DOC, topology=topo,
                   workload={"kind": "alltoall", "ranks": 2, "msg_bytes": 1000})
        out = tmp_path / "out"
        code, stdout, err = run_main(capsys, "report", "--scenario",
                                     write_scenario(tmp_path, doc), "--output", str(out))
        assert code == 3 and stdout == ""
        assert one_json_line(err)["path"] == f"topology.{path}"
        assert not out.exists()
        with pytest.raises(TopologyError) as exc:
            from_spec(topo)
        assert exc.value.path == path

    def test_the_well_formed_graph_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, topology=INLINE_TOPOLOGY,
                   workload={"kind": "alltoall", "ranks": 2, "msg_bytes": 1000})
        code, _, err = run_main(capsys, "report", "--scenario", write_scenario(tmp_path, doc),
                                "--output", str(tmp_path / "out"))
        assert code == 0 and err == ""


    @pytest.mark.parametrize("gbps", [5e-324, 1e-309], ids=["smallest_subnormal", "1e-309"])
    def test_links_too_slow_for_a_finite_makespan(self, tmp_path, capsys, monkeypatch, gbps):
        """Every makespan is inf: the CSV says so, summary.json records null,
        and nothing is printed."""
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        topo = json.loads(json.dumps(INLINE_TOPOLOGY))
        for link in topo["links"]:
            link["gbps_per_dir"] = gbps
        doc = dict(ALLTOALL_DOC, topology=topo,
                   workload={"kind": "alltoall", "ranks": 2, "msg_bytes": 10**10})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_main(capsys, "report", "--scenario",
                                         write_scenario(tmp_path, doc), "--output", str(out))
        assert (code, stdout, err) == (0, "", "")
        rows = (out / "alltoall.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",inf") for row in rows)
        makespans = json.loads((out / "summary.json").read_text())["artifacts"]["alltoall.csv"]
        assert set(makespans["makespans"].values()) == {None}


WORKLOAD_FLAGS = [
    ("alltoall", "--topology", "dgx2"), ("alltoall", "--ranks", "8"),
    ("alltoall", "--msg-bytes", "8"), ("alltoall", "--schedule", "pairwise_xor"),
    ("halo", "--topology", "dgx2"), ("halo", "--ranks", "8"), ("halo", "--grid", "ring8"),
    ("halo", "--steps", "1"), ("halo", "--mode", "mask_array"),
    ("halo", "--schedule", "linear_sequential"), ("halo", "--bytes-per-element", "4"),
    ("halo", "--compute-seconds", "0.5"),
]


class TestFlagsOrScenario:
    @pytest.mark.parametrize("command, flag, value", WORKLOAD_FLAGS)
    def test_workload_flag_with_scenario_is_3(self, capsys, monkeypatch, command, flag, value):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        scenario = bundled("demo.json" if command == "alltoall" else "halo.json")
        code, out, err = run_main(capsys, command, "--scenario", scenario, flag, value)
        assert code == 3 and out == ""
        doc = one_json_line(err)
        assert doc["error"] == "ConfigurationError"
        assert flag in doc["message"]

    def test_seed_output_and_format_combine_with_scenario(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        code, out, _ = run_main(capsys, "alltoall", "--scenario", bundled("demo.json"),
                                "--format", "json")
        assert code == 0 and json.loads(out)["header"][0] == "schedule"
        code, _, err = run_main(capsys, "halo", "--scenario", bundled("halo.json"),
                                "--seed", "3", "--output", str(tmp_path / "h"))
        assert code == 0, err
        assert sorted(p.name for p in (tmp_path / "h").iterdir()) == [
            "halo_checksums.csv", "halo_timing.csv"]


class TestOneCommandPath:
    def test_report_runs_the_roofline_model_once(self, tmp_path, capsys, monkeypatch):
        import haloflow.cli as cli

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        calls = []
        original = cli.roofline_report

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "roofline_report", counting)
        code, _, err = run_main(capsys, "report", "--scenario", bundled("demo.json"),
                                "--output", str(tmp_path / "rep"))
        assert code == 0, err
        assert len(calls) == 1

    def test_report_sections_match_the_subcommands(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        demo = bundled("demo.json")
        assert run_main(capsys, "report", "--scenario", demo,
                        "--output", str(tmp_path / "rep"))[0] == 0
        for command in ("alltoall", "sweep", "roofline", "energy"):
            code, out, _ = run_main(capsys, command, "--scenario", demo)
            assert code == 0
            assert out == (tmp_path / "rep" / f"{command}.csv").read_text()

    def test_tables_simulate_without_a_trace(self, tmp_path, capsys, monkeypatch):
        import haloflow.cli as cli
        import haloflow.halo.engine as engine

        configs = []

        def recording(simulate):
            def run(topo, rank_map, flows, cfg):
                configs.append(cfg)
                return simulate(topo, rank_map, flows, cfg)
            return run

        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        for module in (cli, engine):
            monkeypatch.setattr(module, "simulate", recording(module.simulate))
        monkeypatch.setattr(cli, "simulate_timestep", recording(cli.simulate_timestep))
        timestep = dict(ALLTOALL_DOC, workload={
            "kind": "timestep", "compute_seconds": [0.001, 0.002],
            "flows": [{"src": 0, "dst": 1, "bytes": 1000}]})
        for name, scenario in (("demo", bundled("demo.json")), ("halo", bundled("halo.json")),
                               ("timestep", write_scenario(tmp_path, timestep))):
            code, _, err = run_main(capsys, "report", "--scenario", scenario,
                                    "--output", str(tmp_path / name))
            assert code == 0, err
        assert len(configs) > 5
        assert not any(cfg.collect_events for cfg in configs)

    def test_one_rank_halo_report_records_null_ratio(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HALOFLOW_SEED", raising=False)
        doc = dict(ALLTOALL_DOC, workload={"kind": "halo", "grid": "ring8", "ranks": 1,
                                           "steps": 1})
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "report", "--scenario", write_scenario(tmp_path, doc),
                                "--output", str(out))
        assert code == 0, err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["artifacts"]["halo_timing.csv"] == {"staged_over_direct": None}
        assert (out / "halo_timing.csv").read_text().splitlines()[1].endswith(",inf")
