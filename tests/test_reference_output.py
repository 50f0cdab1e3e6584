"""Command output against the benchmark's reference digests.

perfbench/reference.json holds the sha256 of each benchmark command's
NDJSON minus wall_ms (`digest` in perfbench/run.py).  `verify-theorems
--json`, and `check --json` on the small-checks specs at seed 0, must
hash to those digests here, so any change to their output fails the
suite.  The perfbench files are read, never written.  The `fails`
witnesses of the same outputs are re-checked with the reference
rewriting engine of tests/oracles.py, not the program's products.
"""
import importlib.util
import json
import pathlib
import sys

import pytest

from skewlab.cli import main, parse_spec
from skewlab.poly import SkewPoly
from skewlab.properties import untwisted
from skewlab.theorems import entry_by_name, resolve

from oracles import engine_product, poly_is_nilpotent

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


def _witnesses(obj):
    """Every polynomial witness (a dict with `f_terms`) inside a record."""
    if isinstance(obj, dict):
        if "f_terms" in obj:
            yield obj
        for v in obj.values():
            yield from _witnesses(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _witnesses(v)


def _engine_recheck(sys, w):
    ring = sys.ring
    el = ring.element_index

    def poly(terms):
        return SkewPoly(sys, {tuple(t["exp"]): el(t["coeff"]) for t in terms})

    fg = engine_product(poly(w["f_terms"]), poly(w["g_terms"]))
    ai, bj = el(w["a_i"]), el(w["b_j"])
    ei, ej = tuple(w["exp_i"]), tuple(w["exp_j"])
    if "fg_power_zero_at" in w:  # skew_pi_armendariz: the least zero power
        k = w["fg_power_zero_at"]
        assert poly_is_nilpotent(fg, k) == (True, k)
        assert w["product"] == ring.element_name(int(ring.mul(ai, bj)))
        return
    assert fg.is_zero
    if "term_product" in w:
        term = engine_product(sys.monomial(ei, ai), sys.monomial(ej, bj))
        assert str(term) == w["term_product"]
    else:  # without derivations a_i x^alpha_i * b_j = a_i sigma^alpha_i(b_j) x^alpha_i
        term = engine_product(sys.monomial(ei, ai), sys.constant(bj))
        assert ring.element_name(term.coeff(ei)) == w["product"]


def test_fails_witnesses_recheck_with_engine(tmp_path, capsys):
    main(["verify-theorems", "--json"])
    theorems = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    checked = 0
    for rec in theorems:
        for w in _witnesses(rec.get("details")):
            _engine_recheck(resolve(entry_by_name(rec["instance"])).system, w)
            checked += 1
    assert checked >= 1
    fails = checked = 0
    for name, text in sorted(SPECS.items()):
        path = tmp_path / f"{name}.spec"
        path.write_text(text)
        main(["check", str(path), "--json"])
        for rec in map(json.loads, capsys.readouterr().out.splitlines()):
            if rec["status"] != "fails":
                continue
            fails += 1
            sys = parse_spec(rec["context"]["spec_text"]).system
            if rec["check"] == "weak_armendariz":
                sys = untwisted(sys.ring)
            _engine_recheck(sys, rec["witness"])
            checked += 1
    assert checked == fails >= 1
