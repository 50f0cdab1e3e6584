"""The benchmark's tracing layer still fits the program.

perfbench/tracing.py wraps skewlab functions by name and reads their
arguments and results with counters; a renamed function or a changed
signature must fail here, not only in a benchmark run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPEC = """\
ring Z2xZ2
map s = [0, 2, 1, 3]
maps s
checks weak_sigma_rigid
check weak_sigma_skew_armendariz degree_bound=1
check sigma_delta_skew_armendariz degree_bound=1
check skew_pi_armendariz degree_bound=1
"""


S_RING_SPEC = """\
ring S(Z2)
maps negate-B
checks sigma_rigid, weak_sigma_rigid, abelian
check weak_sigma_skew_armendariz degree_bound=1 subset=block-elementary
"""


DERIVATION_SPEC = """\
ring Z2xZ2
map s = [0, 2, 1, 3]
derivation dd = id-minus s
maps s
deltas dd
check sigma_delta_skew_armendariz degree_bound=1
check skew_pi_armendariz degree_bound=1
"""


def _launch(tmp_path, *argv):
    """Run one CLI command under the benchmark's traced launcher; its stdout lines and spans."""
    marks, spans = tmp_path / "marks.json", tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(marks),
         "--trace", str(spans), "--run-id", "t", "--", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["missing"] == []
    return proc.stdout.splitlines(), trace["spans"]


def _counted(spans) -> set:
    return {layer for _, _, layer, _, _, counts in spans if counts}


def _traced_check(tmp_path, text):
    """Run `check` on a spec under the benchmark's traced launcher."""
    spec = tmp_path / "tiny.spec"
    spec.write_text(text)
    lines, spans = _launch(tmp_path, "check", str(spec), "--json")
    return lines, _counted(spans)


def test_launch_trace_finds_every_target(tmp_path):
    lines, counted = _traced_check(tmp_path, SPEC)
    assert len(lines) == 4
    # explicit map, rigidity sweep, closure, table search and the
    # derivation-capable deciders each ran with their counters
    assert {
        "maps.verify",
        "maps.closure",
        "properties.rigidity",
        "kernels.table_search",
        "properties.engine_search",
    } <= counted


def test_launch_trace_s_ring_block_maps(tmp_path):
    # block-diagonal twists keep no carrier table; every counter still
    # reads what it expects (a counter that no longer fits raises)
    lines, counted = _traced_check(tmp_path, S_RING_SPEC)
    assert [json.loads(line)["status"] for line in lines] == ["fails", "holds", "fails", "fails"]
    assert {"maps.closure", "properties.rigidity", "kernels.generic_search"} <= counted


def test_launch_trace_derivation_system(tmp_path):
    # with a nonzero derivation the deciders build their move-past tables
    # with the rewriting engine; every traced layer still fits
    lines, counted = _traced_check(tmp_path, DERIVATION_SPEC)
    assert [json.loads(line)["status"] for line in lines] == ["fails", "fails"]
    assert "properties.engine_search" in counted


def test_launch_trace_theorem_suite(tmp_path):
    # the statement suite's own layers, and the counters it feeds
    lines, spans = _launch(tmp_path, "verify-theorems", "--instance", "Z4/id", "--json")
    assert json.loads(lines[-1])["failed"] == 0
    assert {"properties.rigidity", "kernels.table_search", "maps.closure"} <= _counted(spans)
    assert {"theorems.catalog_flags", "theorems.nil_transfer"} <= {s[2] for s in spans}
