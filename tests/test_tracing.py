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


def test_launch_trace_finds_every_target(tmp_path):
    spec = tmp_path / "tiny.spec"
    spec.write_text(SPEC)
    marks, spans = tmp_path / "marks.json", tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(marks),
         "--trace", str(spans), "--run-id", "t", "--", "check", str(spec), "--json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4
    trace = json.loads(spans.read_text())
    assert trace["missing"] == []
    counted = {layer for _, _, layer, _, _, counts in trace["spans"] if counts}
    # explicit map, rigidity sweep, closure, table search and the
    # derivation-capable deciders each ran with their counters
    assert {
        "maps.verify",
        "maps.closure",
        "properties.rigidity",
        "kernels.table_search",
        "properties.engine_search",
    } <= counted
