"""Hand-picked mutants of ``src/haloflow`` and the tests that must kill each.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each entry names a file under ``src/haloflow``, an exact snippet of it, its
replacement, and the pytest node ids that must fail once the snippet is
replaced.  A snippet found other than exactly once fails the script, so the
list cannot go stale silently.  The named tests first run once against an
unedited copy of ``src/``, where they must pass.  Then, per mutant, ``src/``
is copied to a temporary directory, the edit is applied, and its node ids
run in one pytest process whose ``PYTHONPATH`` is that copy.  Hypothesis
runs there without shrinking or an example database, so a failing property
stops at its first failing example and leaves nothing behind.  The script
exits 1 if the clean run fails, a snippet is stale, or a listed test
survives a mutant.  It uses the standard library only, and pytest does not
collect it, since its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# pytest in the subprocess: the copy's haloflow, no shrinking, no database
_RUNNER = """
import sys
src = sys.argv[1]
from hypothesis import Phase, settings
settings.register_profile("mutants", database=None, phases=(Phase.explicit, Phase.generate))
settings.load_profile("mutants")
import haloflow
assert haloflow.__file__.startswith(src), haloflow.__file__
import pytest
sys.exit(pytest.main(["-q", "-rfE", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/haloflow
    snippet: str
    replacement: str
    kills: tuple[str, ...]  # node ids, each of which must fail


ORACLE = "tests/test_netsim_oracle.py"
CLI_INLINE = ("tests/test_cli.py::TestInlineTopologyEntries"
              "::test_missing_keys_zero_lanes_and_repeated_nodes")
CHECK_SPEC = "tests/test_topology.py::TestCheckSpec::test_inline_value_refused_at_its_path"
GIVEN_ROUTE = ("tests/test_topology.py::TestFromSpec"
               "::test_given_route_names_a_device_with_no_links_to_itself")

MUTANTS = [
    # a one-flow phase walked on a machine whose given route lists a direction twice
    Mutant("walk guard dropped", "netsim.py",
           "    walk = not topo._revisits\n", "    walk = True\n",
           (f"{ORACLE}::test_route_revisiting_a_link_direction_matches_reference"
            "[device_direct-alphas0-True]",)),
    # the inline topology checks, and a given route's devices for Python callers
    Mutant("repeated route pair accepted", "topology.py",
           "        if (src, dst) in pairs:\n", "        if False:\n",
           (f"{CLI_INLINE}[route_pair_repeated]", f"{CHECK_SPEC}[route_pair_repeated]")),
    Mutant("route device not checked", "topology.py",
           "            if node not in first:\n", "            if False:\n",
           (f"{CLI_INLINE}[route_src_not_a_device]", f"{CHECK_SPEC}[route_dst_not_a_device]")),
    Mutant("gbps_per_dir lower bound dropped", "topology.py",
           'get(entry, "gbps_per_dir", float, at, error=fault, low=0, low_open=True)',
           'get(entry, "gbps_per_dir", float, at, error=fault)',
           ("tests/test_cli.py::TestRejectedBeforeAnyWork"
            "::test_sweep_point_link_bandwidth_before_the_workload_runs",
            f"{CHECK_SPEC}[gbps_per_dir_zero]")),
    Mutant("missing key reported at the parent path", "errors.py",
           '            raise error("missing required key", sub)\n',
           '            raise error("missing required key", path or key)\n',
           ("tests/test_scenario.py::TestValidationPaths::test_missing_required_key",
            "tests/test_topology.py::TestCheckSpec::test_missing_key_at_its_own_path",
            f"{CLI_INLINE}[no_gbps_per_dir]")),
    Mutant("inline self route with links accepted", "topology.py",
           "        if src == dst and hops:\n", "        if False:\n",
           (f"{CLI_INLINE}[self_route_with_links]", f"{CHECK_SPEC}[self_route_with_links]")),
    Mutant("link to its own node accepted", "topology.py",
           'f"{at}.b", first) == a:\n', 'f"{at}.b", first) is None:\n',
           (f"{CLI_INLINE}[link_to_its_own_node]", f"{CHECK_SPEC}[link_to_its_own_node]")),
    Mutant("device_mem_bw_gbps lower bound dropped", "topology.py",
           'get(doc, "device_mem_bw_gbps", float, "", None, error=fault, low=0, low_open=True)',
           'get(doc, "device_mem_bw_gbps", float, "", None, error=fault)',
           (f"{CLI_INLINE}[device_mem_bw_zero]", f"{CHECK_SPEC}[device_mem_bw_negative]")),
    Mutant("unlisted link endpoint accepted", "topology.py",
           "    if known is not None and node not in known:\n", "    if False:\n",
           (f"{CLI_INLINE}[endpoint_not_a_node]",)),
    Mutant("given route of an absent device built", "topology.py",
           "            if any(number(d,", "            if False and any(number(d,",
           (f"{GIVEN_ROUTE}[self_route_of_an_absent_device]",
            "tests/test_api_fuzz.py::test_repro_is_refused_by_name[Topology route (5, 5)]")),
    Mutant("given self route with links built", "topology.py",
           "            if i == j and links:\n", "            if False:\n",
           (f"{GIVEN_ROUTE}[self_route_with_links]",)),
    # the timestep shift of simulate's result
    Mutant("no trace shift", "netsim.py",
           "    comm.events._shift(start)\n", "",
           ("tests/test_netsim.py::TestTraceReplay"
            "::test_timestep_trace_replays_after_compute[True]",)),
    Mutant("unshifted makespan", "netsim.py",
           "    makespan = start + comm.makespan\n", "    makespan = comm.makespan\n",
           ("tests/test_netsim.py::TestTimestep::test_exchange_starts_after_slowest_compute",)),
    Mutant("unshifted phase ends", "netsim.py",
           "phase_completion=[start + t for t in comm.phase_completion]",
           "phase_completion=comm.phase_completion",
           ("tests/test_netsim_golden.py"
            "::test_simulation_matches_golden[timestep/barrier=True]",)),
    Mutant("unshifted no-barrier completions", "netsim.py",
           "            end = completion[f.id]\n",
           "            end = comm.flow_completion[f.id]\n",
           ("tests/test_netsim.py::TestTimestep"
            "::test_without_barrier_a_rank_ends_with_its_last_flow",)),
    # the event loop's exactness guards and the flow check
    Mutant("remaining <= 0.0 half dropped", "netsim.py",
           "ended = ((q == dt) | (remaining <= 0.0)).nonzero()[0].tolist()",
           "ended = (q == dt).nonzero()[0].tolist()",
           ("tests/test_netsim_wide.py::test_wide_phase_matches_reference"
            "[zero_left_an_ulp_late-device_direct]",)),
    Mutant("dt == inf guard dropped", "netsim.py",
           "        if dt == math.inf:\n", "        if False:\n",
           ("tests/test_netsim_wide.py::test_every_quotient_overflowing_ends_the_live_legs_only"
            "[device_direct]",)),
    Mutant("no sort when the ids do not ascend", "netsim.py",
           "            group.sort(key=_FLOW_ID)\n", "            pass\n",
           ("tests/test_netsim.py::TestPhases"
            "::test_flows_that_end_together_are_recorded_in_id_order",)),
    Mutant("duplicate-id set left empty", "netsim.py",
           "                    ids = {g.id for group in groups.values() for g in group}\n",
           "                    ids = set()\n",
           ("tests/test_netsim.py::TestPhases::test_duplicate_flow_id_rejected",)),
    # route compilation
    Mutant("d for d ^ 1 in a derived reverse route", "topology.py",
           "                routes[(j, i)] = (tuple([d ^ 1 for d in reversed(ids)]), nic, low)\n",
           "                routes[(j, i)] = (tuple([d for d in reversed(ids)]), nic, low)\n",
           ("tests/test_netsim.py::TestSharing::test_opposite_directions_do_not_share",)),
    Mutant("d for d ^ 1 in a given reverse route", "topology.py",
           "routes.setdefault((j, i), (tuple([d ^ 1 for d in reversed(ids)]), nic, low))",
           "routes.setdefault((j, i), (tuple([d for d in reversed(ids)]), nic, low))",
           ("tests/test_topology.py::TestRoutesMatchReference::test_route_records",)),
    Mutant("the search's running min dropped", "topology.py",
           "                    lows[v] = cap[d] if cap[d] < low else low\n",
           "                    lows[v] = cap[d]\n",
           ("tests/test_topology.py::TestPresets"
            "::test_island_machine_direct_and_bridged_routes",)),
    # halo
    Mutant("boundary write dropped before the exchange in mask_array", "halo/engine.py",
           "        np.copyto(new[:n], workspace.means, where=plan.boundary_mask)\n", "",
           ("tests/test_halo_engine.py::TestStencilValues"
            "::test_thread_router_matches_lockstep[OverlapMode.MASK_ARRAY]",
            "tests/test_halo_engine.py::TestScaledInit"
            "::test_init_times_2_to_the_40_scales_every_checksum")),
    Mutant("router desync check dropped", "halo/router.py",
           "                if len(done) == self.nranks:\n", "                if True:\n",
           ("tests/test_halo_plan.py::TestRouter::test_desync_detected[rounds]",)),
    Mutant("mesh bound off by one", "halo/grid.py",
           "    if n > MAX_MESH_ELEMENTS:\n", "    if n > MAX_MESH_ELEMENTS + 1:\n",
           ("tests/test_halo_grid.py::TestGridValidation::test_mesh_size_bound",)),
]


def _run(src: Path, ids) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="400")
    return subprocess.run([sys.executable, "-c", _RUNNER, str(src), *ids], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def _failed(out: str) -> set[str]:
    """Node ids of pytest's ``-rfE`` summary lines."""
    got = set()
    for line in out.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            got.add(rest.split(" - ", 1)[0])
    return got


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}")
        return 1
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="haloflow-mutants-") as tmp:
        clean = Path(tmp) / "clean" / "src"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        every_id = list(dict.fromkeys(i for m in chosen for i in m.kills))
        run = _run(clean, every_id)
        if run.returncode != 0:
            print(f"the unedited tree fails its mutants' tests:\n{run.stdout[-3000:]}")
            return 1
        for k, m in enumerate(chosen):
            src = Path(tmp) / f"m{k}" / "src"
            shutil.copytree(clean, src)
            path = src / "haloflow" / m.file
            text = path.read_text()
            found = text.count(m.snippet)
            if found != 1:
                print(f"STALE     {m.name}: its snippet is found {found} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.snippet, m.replacement))
            t0 = time.perf_counter()
            run = _run(src, m.kills)
            survivors = [i for i in m.kills if i not in _failed(run.stdout)]
            took = time.perf_counter() - t0
            if survivors:
                bad += 1
                print(f"SURVIVED  {m.name} ({took:.1f} s): {', '.join(survivors)}")
                print(run.stdout[-2000:])
            else:
                print(f"killed    {m.name} ({took:.1f} s)")
            shutil.rmtree(src.parent)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
