"""Fuzz the command-line contract with mutated scenario files and flag sets.

Whatever the input, ``main()`` exits 0, 2 (from argparse only), 3, 4 or 5;
every exit 3, 4 or 5 writes exactly one JSON line on stderr; a failing
``report`` leaves no output directory; no other exception escapes.

Scenario mutations replace one leaf with a raw JSON literal (so it goes
through ``load_scenario``), delete one key, or insert an unknown key.  Some
literals are text no output file can carry: a lone surrogate, or in a name
a character XML 1.0 cannot hold; after exit 0 every file written must be
UTF-8 and every SVG well-formed XML.  Flag
mutations replace, drop or add one flag, or set the seed environment
variable.  No mutation makes a job larger than its base.
"""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path
from xml.dom import minidom

from hypothesis import given, settings, strategies as st

from haloflow.cli import SEED_ENV, main

DEMO = json.loads(resources.files("haloflow").joinpath("scenarios", "demo.json").read_text())
TINY_A2A = {"kind": "alltoall", "ranks": 2, "msg_bytes": 8, "schedules": ["rotated_concurrent"]}


def _doc(workload, **sections):
    doc = {"schema": 1, "name": "fuzz", "seed": 5, "topology": {"preset": "dgx1v"},
           "workload": workload}
    doc.update(sections)
    return doc


# base document -> the commands that run it
BASES = {
    "halo": (_doc({"kind": "halo", "grid": "ring16", "ranks": 2, "steps": 2, "mode": "none",
                   "bytes_per_element": 8, "compute_seconds": 0.001}), ("report", "halo")),
    "alltoall": (_doc({"kind": "alltoall", "ranks": 4, "msg_bytes": 1000}),
                 ("report", "alltoall")),
    "sweep": (_doc(TINY_A2A, sweep={
        "total_bytes": 1e6, "compute_seconds_total": 0.01, "schedule": "rotated_concurrent",
        "points": [{"name": "p4", "topology": {"preset": "dgx2"}, "ranks": 4,
                    "imbalance": 1.25}]}), ("report", "sweep")),
    "roofline_energy": (_doc(TINY_A2A, roofline=DEMO["roofline"], energy=DEMO["energy"]),
                        ("report", "roofline", "energy")),
}
# Text no output file can carry, as JSON: lone surrogates (UTF-8 cannot
# encode them) and characters XML 1.0 cannot hold, which matter in names.
BAD_TEXT = ('"a\\ud800b"', '"\\udfff"', '"a\\u0001b"', '"x\\ufffe"')
LITERALS = ("NaN", "Infinity", "1e400", "-1", "0", "1.5", "true", '"x"', "null", "[]",
            "{}") + BAD_TEXT
SENTINEL = "\x00mutation\x00"


def _paths(value, prefix=()):
    """Every (path, is_mapping) below ``value``, containers and leaves alike."""
    yield prefix, isinstance(value, dict)
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _paths(sub, prefix + (key,))


def _mutations():
    out = []
    for base, (doc, commands) in BASES.items():
        for path, is_mapping in _paths(doc):
            for command in commands:
                target = (base, command)
                if path:
                    out.extend(target + ("replace", path, lit) for lit in LITERALS)
                if path and isinstance(path[-1], str):
                    out.append(target + ("delete", path, None))
                if is_mapping:
                    out.append(target + ("insert", path, None))
    return out


MUTATIONS = _mutations()


def _mutated_text(base, action, path, literal):
    doc = json.loads(json.dumps(BASES[base][0]))
    parent = doc
    for key in path[:-1] if action != "insert" else path:
        parent = parent[key]
    if action == "replace":
        parent[path[-1]] = SENTINEL
    elif action == "delete":
        del parent[path[-1]]
    else:
        parent["zz_unknown"] = 1
    return json.dumps(doc).replace(json.dumps(SENTINEL), literal or "")


FLAG_BASES = {
    "alltoall": ["--topology", "dgx1v", "--ranks", "4", "--msg-bytes", "1000",
                 "--schedule", "rotated_concurrent"],
    "halo": ["--topology", "dgx1v", "--grid", "ring16", "--ranks", "2", "--steps", "2",
             "--mode", "mask_array", "--schedule", "rotated_concurrent",
             "--bytes-per-element", "8", "--compute-seconds", "0.001", "--seed", "1"],
}
# An integer beyond float range, only for flags that do not set how much work runs.
HUGE = "1" + "0" * 400
FLAG_VALUES = ("NaN", "Infinity", "1e400", "-1", "0", "1.5", "true", "x", "", "null", "[]",
               "{}", "dgx1v:servers=1.5", "dgx1v:servers=-1", "dgx1v:srevers=1", "dgx2:x",
               "dgx1v:servers=NaN", "dgx1v:nvlink_gbps=0", "dgx1v:servers=true",
               "dgx1v:nvlink_gbps=NaN", "dgx1v:nvlink_gbps=" + HUGE,
               "dgx1v:servers=1" + "0" * 30, "fat_tree_edr:nodes=100000")
HUGE_FLAGS = ("--msg-bytes", "--bytes-per-element", "--compute-seconds", "--seed")


def _run(argv, env_seed=None):
    """(exit code, stdout, stderr) of one in-process run; SystemExit must be argparse's 2."""
    saved = os.environ.pop(SEED_ENV, None)
    if env_seed is not None:
        os.environ[SEED_ENV] = env_seed
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, f"SystemExit({exc.code!r}) is not argparse's"
                code = "argparse"
    finally:
        os.environ.pop(SEED_ENV, None)
        if saved is not None:
            os.environ[SEED_ENV] = saved
    return code, out.getvalue(), err.getvalue()


def _check_contract(code, err, out=None):
    """The exit code and error line; after exit 0, ``out``'s files are UTF-8 and SVG is XML."""
    assert code == "argparse" or code in (0, 3, 4, 5), code
    if code in (3, 4, 5):
        lines = err.splitlines()
        assert len(lines) == 1, err
        doc = json.loads(lines[0])
        assert set(doc) <= {"error", "message", "path"} and doc["error"] and doc["message"]
    elif code == 0 and out is not None and out.exists():
        for f in out.iterdir():
            f.read_bytes().decode("utf-8")
            if f.suffix == ".svg":
                minidom.parse(str(f))


@settings(max_examples=160, derandomize=True, deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_mutated_scenarios_keep_the_contract(mutation):
    base, command, action, path, literal = mutation
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "scn.json"
        scn.write_text(_mutated_text(base, action, path, literal), encoding="utf-8")
        out = Path(tmp) / "out"
        argv = [command, "--scenario", str(scn)]
        if command == "report":
            argv += ["--output", str(out)]
        code, _stdout, err = _run(argv)
        _check_contract(code, err, out)
        if command == "report" and code != 0:
            assert not out.exists(), "a failing report left an output directory"


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# (base, command, path) of every string in the base documents
STRING_LEAVES = [(base, command, path) for base, (doc, commands) in BASES.items()
                 for path, _ in _paths(doc) if isinstance(_leaf(doc, path), str)
                 for command in commands]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(STRING_LEAVES), st.sampled_from(BAD_TEXT))
def test_text_no_output_can_carry_is_refused_at_its_path(leaf, literal):
    """A lone surrogate anywhere, or a name XML cannot carry, exits 3 at its dotted path."""
    base, command, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "scn.json"
        scn.write_text(_mutated_text(base, "replace", path, literal), encoding="utf-8")
        out = Path(tmp) / "out"
        argv = [command, "--scenario", str(scn), "--output", str(out)]
        if command == "roofline":
            argv.append("--svg")
        code, _stdout, err = _run(argv)
        _check_contract(code, err, out)
        if "\\ud" in literal or path[-1] == "name":
            dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
            assert code == 3 and json.loads(err)["path"] == dotted, err


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(FLAG_BASES)), st.data())
def test_mutated_flags_keep_the_contract(command, data):
    argv = list(FLAG_BASES[command])
    action = data.draw(st.sampled_from(("replace", "drop", "add_scenario", "add_unknown",
                                        "env_seed")))
    env_seed = None
    if action in ("replace", "drop"):
        i = 2 * data.draw(st.integers(0, len(argv) // 2 - 1))
        if action == "replace":
            values = FLAG_VALUES + (HUGE,) if argv[i] in HUGE_FLAGS else FLAG_VALUES
            argv[i + 1] = data.draw(st.sampled_from(values))
        else:
            del argv[i:i + 2]
    elif action == "add_scenario":
        scenario = "demo.json" if command == "alltoall" else "halo.json"
        argv += ["--scenario", str(resources.files("haloflow").joinpath("scenarios", scenario))]
    elif action == "add_unknown":
        argv += ["--bogus", "1"]
    else:
        env_seed = data.draw(st.sampled_from(FLAG_VALUES + (HUGE,)))
    code, _stdout, err = _run([command] + argv, env_seed)
    _check_contract(code, err)


def test_every_base_runs_clean():
    for base, (doc, commands) in BASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            scn = Path(tmp) / "scn.json"
            scn.write_text(json.dumps(doc), encoding="utf-8")
            for command in commands:
                argv = [command, "--scenario", str(scn)]
                if command == "report":
                    argv += ["--output", str(Path(tmp) / "out")]
                assert _run(argv)[0] == 0, (base, command)
    for command, argv in FLAG_BASES.items():
        assert _run([command] + argv)[0] == 0, command
