"""Golden gate for the command line: every case keeps its exact outcome.

``cli_golden.json`` holds, per case of a fixed invocation matrix,

* the exit code (``1`` with ``raised`` set when an exception escaped ``main``);
* the sha256 of stdout;
* stderr verbatim (for argparse errors, its last line), with the case's
  scratch directory written ``{work}``;
* every path written under the scratch directory, mapped to the sha256 of
  its bytes or to ``"dir"``.

The matrix covers every subcommand with ``--format csv|json``, from flags and
from ``--scenario``, ``--output`` with and without ``--svg``, ``report`` on
both bundled scenarios and on small custom ones, seeds from the flag and the
environment, and failing inputs.  Each case runs ``main()`` in-process in a
fresh directory.  Comparisons are ``==``.

Re-record (only for a deliberate change of outcome, named in CHANGES.md)::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from haloflow.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
SEED_ENV = "HALOFLOW_SEED"

A2A = {"kind": "alltoall", "ranks": 4, "msg_bytes": 1000}


def _doc(workload=A2A, **sections):
    doc = {"schema": 1, "name": "case", "seed": 3,
           "topology": {"preset": "dgx1v"}, "workload": workload}
    doc.update(sections)
    return doc


SWEEP = {"total_bytes": 1e8, "compute_seconds_total": 0.01,
         "points": [{"name": "p4", "topology": {"preset": "dgx2"}, "ranks": 4}]}
TIMESTEP = {"kind": "timestep", "compute_seconds": [0.001, 0.002, 0.0],
            "flows": [{"src": 0, "dst": 1, "bytes": 1000000},
                      {"src": 1, "dst": 2, "bytes": 2000000, "phase": 1},
                      {"src": 2, "dst": 0, "bytes": 500000, "phase": 1}]}
INLINE = {"nodes": ["device:0", "device:1", "switch:0"],
          "links": [{"a": "device:0", "b": "switch:0", "gbps_per_dir": 25, "lanes": 2},
                    {"a": "device:1", "b": "switch:0", "gbps_per_dir": 25}],
          "device_mem_bw_gbps": 900, "name": "pair"}
RING_HALO = {"kind": "halo", "grid": "ring16", "ranks": 2, "steps": 2}

# id -> (argv, environment seed or None, scenario written to {scn}: a document,
# raw JSON text or None).  {demo} and {halo} are the bundled scenarios, {out}
# an output path inside the case's scratch directory.
CASES = {
    # --- successful runs --------------------------------------------------
    "alltoall/flags/csv": (["alltoall", "--topology", "dgx1v", "--ranks", "4",
                            "--msg-bytes", "100000000"], None, None),
    "alltoall/flags/json": (["alltoall", "--ranks", "2", "--msg-bytes", "8",
                             "--schedule", "rotated_concurrent", "--format", "json"], None, None),
    "alltoall/flags/topology-params": (["alltoall", "--topology", "dgx1v:servers=2",
                                        "--ranks", "16", "--msg-bytes", "1000000",
                                        "--schedule", "pairwise_xor"], None, None),
    "alltoall/flags/output": (["alltoall", "--ranks", "4", "--msg-bytes", "1000",
                               "--output", "{out}"], None, None),
    "alltoall/flags/env-seed-unused": (["alltoall", "--ranks", "2", "--msg-bytes", "10"],
                                       "seven", None),
    "alltoall/scenario/csv": (["alltoall", "--scenario", "{demo}"], None, None),
    "alltoall/scenario/json": (["alltoall", "--scenario", "{demo}", "--format", "json"],
                               None, None),
    "alltoall/scenario/output": (["alltoall", "--scenario", "{demo}", "--output", "{out}"],
                                 None, None),
    "halo/flags/csv": (["halo", "--grid", "ring16", "--ranks", "4", "--steps", "3",
                        "--seed", "1"], None, None),
    "halo/flags/json": (["halo", "--grid", "quad8x8", "--ranks", "4", "--steps", "2",
                         "--mode", "mask_array", "--schedule", "linear_sequential",
                         "--bytes-per-element", "16", "--compute-seconds", "0.001",
                         "--seed", "2", "--format", "json"], None, None),
    "halo/flags/output": (["halo", "--grid", "random40d5s3", "--ranks", "3", "--steps", "2",
                           "--topology", "dgx1p", "--seed", "4", "--output", "{out}"],
                          None, None),
    "halo/flags/defaults": (["halo", "--ranks", "2"], None, None),
    "halo/flags/env-seed": (["halo", "--grid", "ring16", "--ranks", "2", "--steps", "2",
                             "--seed", "99"], "5", None),
    "halo/scenario/csv": (["halo", "--scenario", "{halo}"], None, None),
    "halo/scenario/json": (["halo", "--scenario", "{halo}", "--format", "json"], None, None),
    "halo/scenario/seed-output": (["halo", "--scenario", "{halo}", "--seed", "3",
                                   "--output", "{out}"], None, None),
    "sweep/scenario/csv": (["sweep", "--scenario", "{demo}"], None, None),
    "sweep/scenario/json": (["sweep", "--scenario", "{demo}", "--format", "json"], None, None),
    "sweep/scenario/output": (["sweep", "--scenario", "{demo}", "--output", "{out}"],
                              None, None),
    "roofline/scenario/csv": (["roofline", "--scenario", "{demo}"], None, None),
    "roofline/scenario/json": (["roofline", "--scenario", "{demo}", "--format", "json"],
                               None, None),
    "roofline/scenario/output": (["roofline", "--scenario", "{demo}", "--output", "{out}"],
                                 None, None),
    "roofline/scenario/output-svg": (["roofline", "--scenario", "{demo}", "--output", "{out}",
                                      "--svg"], None, None),
    "energy/scenario/csv": (["energy", "--scenario", "{demo}"], None, None),
    "energy/scenario/json": (["energy", "--scenario", "{demo}", "--format", "json"],
                             None, None),
    "energy/scenario/output": (["energy", "--scenario", "{demo}", "--output", "{out}"],
                               None, None),
    "report/demo": (["report", "--scenario", "{demo}", "--output", "{out}"], None, None),
    "report/demo/seed": (["report", "--scenario", "{demo}", "--output", "{out}",
                          "--seed", "31"], None, None),
    "report/demo/env-seed": (["report", "--scenario", "{demo}", "--output", "{out}",
                              "--seed", "8"], "31", None),
    "report/halo": (["report", "--scenario", "{halo}", "--output", "{out}"], None, None),
    "report/halo/seed": (["report", "--scenario", "{halo}", "--output", "{out}",
                          "--seed", "0"], None, None),
    "report/timestep": (["report", "--scenario", "{scn}", "--output", "{out}"], None,
                        _doc(TIMESTEP, sweep=SWEEP)),
    "report/inline-topology": (["report", "--scenario", "{scn}", "--output", "{out}"], None,
                               {**_doc({"kind": "alltoall", "ranks": 2, "msg_bytes": 4096,
                                        "schedules": ["linear_sequential"]}),
                                "topology": INLINE}),
    "report/preset-params": (["report", "--scenario", "{scn}", "--output", "{out}"], None,
                             _doc({**RING_HALO, "mode": "indirection_array"}, sweep={
                                 **SWEEP, "points": [
                                     {"name": "ft", "ranks": 4, "imbalance": 1.5,
                                      "topology": {"preset": "fat_tree_edr", "nodes": 2,
                                                   "devices_per_node": 2, "ib_gbps": 10}},
                                     {"name": "nv", "ranks": 8,
                                      "topology": {"preset": "dgx1p", "nvlink_gbps": 20,
                                                   "pcie_gbps": 12.5}}]})),
    # --- failing inputs ---------------------------------------------------
    "fail/usage/unknown-flag": (["alltoall", "--no-such-flag"], None, None),
    "fail/usage/report-needs-scenario": (["report", "--output", "{out}"], None, None),
    "fail/alltoall/missing-flags": (["alltoall", "--ranks", "4"], None, None),
    "fail/alltoall/ranks-0": (["alltoall", "--ranks", "0", "--msg-bytes", "1"], None, None),
    "fail/alltoall/msg-bytes-negative": (["alltoall", "--ranks", "2", "--msg-bytes", "-1"],
                                         None, None),
    "fail/alltoall/unknown-preset": (["alltoall", "--topology", "warpcore", "--ranks", "2",
                                      "--msg-bytes", "1"], None, None),
    "fail/alltoall/topology-param-no-value": (["alltoall", "--topology", "dgx1v:servers",
                                               "--ranks", "2", "--msg-bytes", "1"], None, None),
    "fail/alltoall/topology-param-not-json": (["alltoall", "--topology", "dgx1v:servers=two",
                                               "--ranks", "2", "--msg-bytes", "1"], None, None),
    "fail/halo/missing-ranks": (["halo", "--grid", "ring8"], None, None),
    "fail/halo/steps": (["halo", "--ranks=2", "--grid=ring8", "--steps=-3"], None, None),
    "fail/halo/bytes-per-element": (["halo", "--ranks=2", "--grid=ring8", "--steps=1",
                                     "--bytes-per-element=nan"], None, None),
    "fail/halo/compute-seconds": (["halo", "--ranks=2", "--grid=ring8", "--steps=1",
                                   "--compute-seconds=-inf"], None, None),
    "fail/halo/ranks-0": (["halo", "--ranks=0", "--grid=ring8"], None, None),
    "fail/halo/bad-grid": (["halo", "--ranks=2", "--grid=hex9"], None, None),
    "fail/halo/grid-arguments": (["halo", "--ranks=2", "--grid=ring1"], None, None),
    "fail/halo/not-a-halo-job": (["halo", "--scenario", "{demo}"], None, None),
    "fail/alltoall/not-an-alltoall-job": (["alltoall", "--scenario", "{halo}"], None, None),
    "fail/sweep/no-section": (["sweep", "--scenario", "{halo}"], None, None),
    "fail/roofline/no-section": (["roofline", "--scenario", "{halo}"], None, None),
    "fail/energy/no-section": (["energy", "--scenario", "{halo}"], None, None),
    "fail/roofline/svg-needs-output": (["roofline", "--scenario", "{demo}", "--svg"],
                                       None, None),
    "fail/scenario/unknown-key": (["alltoall", "--scenario", "{scn}"], None,
                                  _doc({**A2A, "oops": 0})),
    "fail/scenario/invalid-json": (["report", "--scenario", "{scn}", "--output", "{out}"],
                                   None, "{not json"),
    "fail/scenario/missing-file": (["report", "--scenario", "{work}/absent.json",
                                    "--output", "{out}"], None, None),
    "fail/report/simulation-error": (["report", "--scenario", "{scn}", "--output", "{out}"],
                                     None, _doc({"kind": "timestep",
                                                 "compute_seconds": [0.0, 0.0],
                                                 "flows": [{"src": 0, "dst": 1, "bytes": 1,
                                                            "phase": 1}]})),
    "fail/report/output-is-a-file": (["report", "--scenario", "{demo}", "--output",
                                      "{work}/blocker"], None, None),
    "fail/report/env-seed-not-integer": (["report", "--scenario", "{demo}", "--output",
                                          "{out}"], "seven", None),
    "fail/scenario/msg-bytes-nan": (["alltoall", "--scenario", "{scn}"], None,
                                    json.dumps(_doc()).replace('"msg_bytes": 1000',
                                                               '"msg_bytes": NaN')),
    "fail/scenario/msg-bytes-infinity": (["alltoall", "--scenario", "{scn}"], None,
                                         json.dumps(_doc()).replace('"msg_bytes": 1000',
                                                                    '"msg_bytes": Infinity')),
    "fail/scenario/msg-bytes-overflow": (["alltoall", "--scenario", "{scn}"], None,
                                         json.dumps(_doc()).replace('"msg_bytes": 1000',
                                                                    '"msg_bytes": 1e400')),
    "fail/scenario/msg-bytes-fraction": (["alltoall", "--scenario", "{scn}"], None,
                                         _doc({**A2A, "msg_bytes": 1.5})),
    "fail/report/sweep-total-bytes-nan": (
        ["report", "--scenario", "{scn}", "--output", "{out}"], None,
        json.dumps(_doc(sweep=SWEEP)).replace('"total_bytes": 100000000.0',
                                               '"total_bytes": NaN')),
    "fail/scenario/seed-negative": (["report", "--scenario", "{scn}", "--output", "{out}"],
                                    None, {**_doc(RING_HALO), "seed": -1}),
    "fail/halo/flag-seed-negative": (["halo", "--grid", "ring16", "--ranks", "2",
                                      "--steps", "1", "--seed", "-1"], None, None),
    "fail/halo/env-seed-negative": (["halo", "--grid", "ring16", "--ranks", "2",
                                     "--steps", "1"], "-3", None),
    "fail/scenario/preset-not-a-string": (["alltoall", "--scenario", "{scn}"], None,
                                          {**_doc(), "topology": {"preset": 5}}),
    "fail/scenario/preset-unknown-key": (["alltoall", "--scenario", "{scn}"], None,
                                         {**_doc(), "topology": {"preset": "dgx1v",
                                                                 "srevers": 4}}),
    "fail/scenario/preset-bandwidth-not-a-number": (
        ["alltoall", "--scenario", "{scn}"], None,
        {**_doc(), "topology": {"preset": "dgx1v", "nvlink_gbps": "x"}}),
    "fail/scenario/sweep-point-unknown-key": (
        ["report", "--scenario", "{scn}", "--output", "{out}"], None,
        _doc(sweep={**SWEEP, "points": [{"name": "p4", "ranks": 4,
                                         "topology": {"preset": "dgx2", "lanes": 3}}]})),
    "fail/scenario/sweep-point-unknown-preset": (
        ["report", "--scenario", "{scn}", "--output", "{out}"], None,
        _doc(sweep={**SWEEP, "points": [{"name": "p4", "ranks": 4,
                                         "topology": {"preset": "dgx9"}}]})),
    "fail/scenario/inline-unknown-key": (["alltoall", "--scenario", "{scn}"], None,
                                         {**_doc({**A2A, "ranks": 2}),
                                          "topology": {**INLINE, "colour": "red"}}),
    "fail/alltoall/topology-servers-fraction": (["alltoall", "--topology", "dgx1v:servers=2.9",
                                                 "--ranks", "4", "--msg-bytes", "1"],
                                                None, None),
    "fail/halo/scenario-with-mode-flag": (["halo", "--scenario", "{halo}", "--mode",
                                           "mask_array"], None, None),
    "fail/alltoall/scenario-with-ranks-flag": (["alltoall", "--scenario", "{demo}",
                                                "--ranks", "8"], None, None),
    "fail/scenario/timestep-flow-outside-ranks": (
        ["report", "--scenario", "{scn}", "--output", "{out}"], None,
        _doc({"kind": "timestep", "compute_seconds": [0.0, 0.0],
              "flows": [{"src": 0, "dst": 2, "bytes": 1}]})),
    "fail/scenario/timestep-negative-bytes": (
        ["report", "--scenario", "{scn}", "--output", "{out}"], None,
        _doc({"kind": "timestep", "compute_seconds": [0.0, 0.0],
              "flows": [{"src": 0, "dst": 1, "bytes": -5}]})),
    "fail/report/needs-output": (["report", "--scenario", "{demo}"], None, None),
    "fail/report/roofline-zero-flops": (
        ["report", "--scenario", "{scn}", "--output", "{out}"], None,
        _doc(roofline={"kernels": [{"name": "k", "flops": 0, "bytes": 8, "seconds": 1}]})),
    "roofline/zero-flops": (["roofline", "--scenario", "{scn}"], None,
                            _doc(roofline={"kernels": [{"name": "k", "flops": 0, "bytes": 8,
                                                        "seconds": 1}]})),
    "report/halo-one-rank": (["report", "--scenario", "{scn}", "--output", "{out}"], None,
                             _doc({"kind": "halo", "grid": "ring8", "ranks": 1, "steps": 1})),
}


def _bundled(name: str) -> str:
    return str(resources.files("haloflow").joinpath("scenarios", name))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case_id: str) -> dict:
    argv, env_seed, scenario = CASES[case_id]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = work / "in"
        inputs.mkdir()
        scn = inputs / "scn.json"
        if scenario is not None:
            text = scenario if isinstance(scenario, str) else json.dumps(scenario)
            scn.write_text(text, encoding="utf-8")
        if "blocker" in " ".join(argv):
            (work / "blocker").write_bytes(b"")
        names = {"demo": _bundled("demo.json"), "halo": _bundled("halo.json"),
                 "scn": str(scn), "out": str(work / "out"), "work": str(work)}
        argv = [a.format(**names) for a in argv]
        saved = os.environ.pop(SEED_ENV, None)
        if env_seed is not None:
            os.environ[SEED_ENV] = env_seed
        out, err = io.StringIO(), io.StringIO()
        raised = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            # argparse: keep only its last line, the usage above it wraps with the terminal
            code = exc.code
            err = io.StringIO(err.getvalue().splitlines()[-1] + "\n")
        except Exception as exc:  # recorded, so that a fixed crash shows as a change
            code, raised = 1, f"{type(exc).__name__}: {exc}"
        finally:
            os.environ.pop(SEED_ENV, None)
            if saved is not None:
                os.environ[SEED_ENV] = saved
        files = {}
        for p in sorted(work.rglob("*")):
            rel = p.relative_to(work).as_posix()
            if rel != "in" and not rel.startswith("in/"):
                files[rel] = "dir" if p.is_dir() else _sha(p.read_bytes())
        outcome = {
            "exit": code,
            "stdout": _sha(out.getvalue().encode("utf-8")),
            "stderr": err.getvalue().replace(str(work), "{work}"),
            "files": files,
        }
        if raised is not None:
            outcome["raised"] = raised.replace(str(work), "{work}")
        return outcome


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_matches_golden(case_id):
    assert run_case(case_id) == _golden()[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    doc = {case_id: run_case(case_id) for case_id in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} cases in {GOLDEN}")
