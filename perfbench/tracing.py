"""Spans around the public functions of each skewlab layer.

`install` wraps the functions named in LAYERS in every skewlab namespace
that holds them, plus the class attributes in METHODS.  Each call
records a span (id, parent id, layer, start, end, counts) in memory; the
launcher writes them out when the process exits.  `aggregate` turns the
spans of one process into per-layer self time, call counts and work
counts.  The program's files are not changed.  A target that is absent,
or a counter that fails, makes the benchmark run incorrect: a renamed
function must not read as a layer that got faster.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _size(fn, args, kw, out):
    return {"elements": args[0].size}


def _law_triples(fn, args, kw, out):
    return {"triples": out.triples_checked}


def _map_pairs(fn, args, kw, out):
    b = inspect.signature(fn).bind(*args, **kw)
    b.apply_defaults()
    n = b.arguments["ring"].size
    exhaustive = n <= b.arguments["pair_cap"]
    return {"pairs": n * n if exhaustive else b.arguments["samples"]}


def _closure_maps(fn, args, kw, out):
    return {"maps": len(out)}


def _kernel_pairs(fn, args, kw, out):
    return {"pairs": out[1], "zeros": out[2]}


def _verdict_pairs(fn, args, kw, out):
    return {"pairs": (out.bound or out.witness)["pairs_checked"]}


def _catalog_hit():
    """A hit returns an object some getter returned before (the cached one)."""
    seen: dict[int, object] = {}

    def count(fn, args, kw, out):
        hit = id(out) in seen
        seen[id(out)] = out
        return {"hits": int(hit)}

    return count


# layer -> [(module, function, counter or None)]; a counter reads the
# function, arguments and return value of one call and changes none
LAYERS = {
    "rings.laws": [("rings", "verify_ring_laws", _law_triples)],
    "rings.idempotents": [("rings", "idempotents", _size)],
    "rings.center": [
        ("rings", "central_mask", None),
        ("rings", "central_idempotents", None),
        ("rings", "abelian_failure", None),
        ("rings", "is_abelian", None),
    ],
    "rings.ni": [("rings", "ni_failure", None), ("rings", "is_ni", None)],
    "rings.ideal": [("rings", "make_ideal", None), ("rings", "principal_right_set", None)],
    "maps.verify": [
        ("maps", "verify_endomorphism", _map_pairs),
        ("maps", "verify_sigma_derivation", _map_pairs),
    ],
    "maps.closure": [("maps", "orbit_closure", _closure_maps)],
    "maps.sigma_power": [("maps", "sigma_power", None)],
    "poly.pbw": [("poly", "verify_pbw_axioms", None)],
    "poly.search_setup": [
        ("poly", "monomials_upto", None),
        ("poly", "monomial_product_table", None),
        ("poly", "sigma_power_tables", None),
    ],
    "kernels.table_search": [("kernels", "search_zero_products_table", _kernel_pairs)],
    "kernels.generic_search": [("kernels", "search_zero_products_generic", _kernel_pairs)],
    "kernels.nil_mask": [("kernels", "nilpotent_mask", None)],
    "kernels.law_sweep": [
        ("kernels", "associativity_witness", None),
        ("kernels", "distributivity_witness", None),
    ],
    "properties.rigidity": [
        ("properties", "is_sigma_rigid", _size),
        ("properties", "is_weak_sigma_rigid", _size),
        ("properties", "is_weak_sigma_rigid_ideal", _size),
    ],
    "properties.search": [
        ("properties", "is_weak_sigma_skew_armendariz", None),
        ("properties", "is_sigma_skew_armendariz", None),
        ("properties", "is_skew_armendariz", None),
        ("properties", "is_weak_armendariz", None),
    ],
    "properties.engine_search": [
        ("properties", "is_sigma_delta_skew_armendariz", _verdict_pairs),
        ("properties", "is_skew_pi_armendariz", _verdict_pairs),
    ],
    "theorems.resolve": [("theorems", "resolve", None)],
    "theorems.catalog_flags": [("theorems", "check_catalog_flags", None)],
    "theorems.rigid_iff_weak_reduced": [("theorems", "check_rigid_iff_weak_reduced", None)],
    "theorems.nil_transfer": [("theorems", "check_nil_transfer", None)],
    "theorems.idempotent_fixed": [("theorems", "check_idempotent_fixed", None)],
    "theorems.ideal_decomposition": [("theorems", "check_ideal_decomposition", None)],
    "theorems.ni_weak_rigid_implies_weak_armendariz": [
        ("theorems", "check_weak_armendariz_implication", None)
    ],
    "theorems.counterexamples": [("theorems", "reproduce_counterexamples", None)],
    "catalog.build": [
        ("catalog", "get_ring", _catalog_hit()),
        ("catalog", "get_map", _catalog_hit()),
        ("catalog", "get_system", _catalog_hit()),
    ],
    "cli.parse": [("cli", "parse_spec", None)],
    "cli.self": [("cli", "main", None)],
}

# layer -> [(module, class, attribute, counter or None)]
METHODS = {
    "rings.nil_mask": [("rings", "FiniteRing", "nil_mask", None)],
    "maps.injective": [("maps", "RingMap", "is_injective", None)],
    "poly.engine": [("poly", "SkewPoly", "__mul__", None)],
}


class Recorder:
    """Spans of one process, kept in memory until it exits."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [id, parent, layer, start, end, counts]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, layer: str, count=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def traced(*args, **kw):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, layer, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = now()
            try:
                out = fn(*args, **kw)
            finally:
                span[4] = now()
                stack.pop()
            if count is not None:
                # no fallback: a counter that no longer fits the program
                # fails the command, so a lost count never reads as a gain
                span[5] = count(fn, args, kw, out)
            return out

        return functools.wraps(fn)(traced)


def install(rec: Recorder) -> None:
    """Wrap every LAYERS function and METHODS attribute; absent ones are noted."""
    mods = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "skewlab" or name.startswith("skewlab."))
    }
    for layer, targets in LAYERS.items():
        for modname, attr, count in targets:
            mod = mods.get(f"skewlab.{modname}")
            fn = getattr(mod, attr, None)
            if fn is None:
                rec.missing.append(f"{modname}.{attr}")
                continue
            traced = rec.wrap(fn, layer, count)
            for m in mods.values():
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, traced)
                    elif isinstance(v, dict):  # dispatch tables such as cli._SYSTEM_CHECKS
                        for dk, dv in list(v.items()):
                            if dv is fn:
                                v[dk] = traced
    for layer, targets in METHODS.items():
        for modname, clsname, attr, count in targets:
            cls = getattr(mods.get(f"skewlab.{modname}"), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                rec.missing.append(f"{modname}.{clsname}.{attr}")
            elif isinstance(raw, property):
                setattr(cls, attr, property(rec.wrap(raw.fget, layer, count)))
            else:
                setattr(cls, attr, rec.wrap(raw, layer, count))


def aggregate(spans: list) -> dict:
    """Per layer: self ms, calls and summed counts from one process's spans."""
    child = defaultdict(float)
    for sid, parent, layer, t0, t1, counts in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = defaultdict(lambda: defaultdict(float))
    for sid, parent, layer, t0, t1, counts in spans:
        row = out[layer]
        row["ms"] += (t1 - t0 - child[sid]) * 1000.0
        row["calls"] += 1
        for k, v in (counts or {}).items():
            row[k] += v
    return {k: dict(v) for k, v in out.items()}
