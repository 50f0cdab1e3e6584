"""Command output against the benchmark's reference digests.

perfbench/reference.json holds the sha256 of each benchmark command's
NDJSON minus wall_ms (`digest` in perfbench/run.py).  `verify-theorems
--json`, and `check --json` on the small-checks specs at seed 0, must
hash to those digests here, so any change to their output fails the
suite.  The perfbench files are read, never written.
"""
import importlib.util
import json
import pathlib
import sys

import pytest

from skewlab.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_run():
    """perfbench/run.py as a module; it imports perfbench/workloads.py itself."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _perfbench_run()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
SPECS = RUN.workloads.small_check_specs(0)


def _matches(capsys, argv, ref, seed_key):
    code = main(argv)
    assert code == ref["exit"]
    assert RUN.digest(capsys.readouterr().out) == ref["seeds"][seed_key]


def test_verify_theorems_matches_reference(capsys):
    ref = REFERENCE["theorem-suite"]["verify-theorems"]
    _matches(capsys, ["verify-theorems", "--json"], ref, "*")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_small_check_matches_reference(name, tmp_path, capsys):
    path = tmp_path / f"{name}.spec"
    path.write_text(SPECS[name])
    _matches(capsys, ["check", str(path), "--json"], REFERENCE["small-checks"][name], "0")
