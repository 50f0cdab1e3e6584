"""Acceptance gate: ten checks, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every check recomputes its facts from scratch (no reliance on module
caches from other test files) and pins its runtime bound.
"""
import json
import re
import subprocess
import sys
import time

import numpy as np

from skewlab.catalog import BUILTIN_RINGS, BUILTIN_SYSTEMS, get_ring, get_system
from skewlab.maps import SigmaFamily, identity_map
from skewlab.poly import (
    CommutationSystem,
    monomials_upto,
    verify_pbw_axioms,
)
from skewlab.properties import (
    SearchBudget,
    block_elementary_subset,
    is_sigma_rigid,
    is_weak_sigma_rigid,
    is_weak_sigma_skew_armendariz,
)
from skewlab.rings import (
    SRing,
    power_trajectory,
    verify_ring_laws,
)
from skewlab.theorems import (
    DEFAULT_ENTRIES,
    check_ideal_decomposition,
    resolve,
    run_all,
)

from oracles import mono_times_coeff_closed, mono_times_coeff_engine, nil_mask_cycle_detect


def verdict_line(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


def test_criterion_01_ring_laws():
    t0 = time.perf_counter()
    ok = True
    detail = []
    names = BUILTIN_RINGS + ["M2(Z3)", "M2(Z4)"]
    for name in names:
        ring = get_ring(name)
        rep = verify_ring_laws(ring)
        k = len(ring.additive_generators)
        ok = ok and rep.ok
        if isinstance(ring, SRing):
            ok = ok and rep.mode == "block" and rep.triples_checked == k**3 + k**2 + 2 * k
        else:
            ok = ok and rep.mode == "generators"
            ok = ok and rep.triples_checked == 3 * ring.size**2 * k + k**3
        detail.append(f"{name}:{rep.mode[0]}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert verdict_line(
        1, ok, f"exact ring laws on {len(names)} rings ({', '.join(detail)}) in {dt:.2f}s (< 10s)"
    )


def test_criterion_02_nilradical_oracle():
    expected = {
        "Z4": {0, 2},
        "Z6": {0},
    }
    ok = True
    for name, want in expected.items():
        ring = get_ring(name)
        via_power = ring.nil_mask()
        via_cycle = nil_mask_cycle_detect(ring)
        ok = ok and (via_power == via_cycle).all()
        ok = ok and set(np.nonzero(via_power)[0].tolist()) == want
    r3 = get_ring("R3(Z2)")
    p, c = r3.nil_mask(), nil_mask_cycle_detect(r3)
    ok = ok and (p == c).all() and int(p.sum()) == 8
    ok = ok and all(
        r3.element_name(int(a)).startswith("ut3[0,") for a in np.nonzero(p)[0]
    )
    assert verdict_line(
        2, ok, "nil(Z4)={0,2}, nil(Z6)={0}, nil(R3(Z2))=8 zero-diagonal elements, both routes agree"
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for sysname in ("swap-ore", "quantum-plane(Z3,2)"):
        sys_ = get_system(sysname)
        alphas = monomials_upto(sys_.n, 4)
        for alpha in alphas:
            for r in range(sys_.ring.size):
                closed = mono_times_coeff_closed(sys_, alpha, r)
                engine = mono_times_coeff_engine(sys_, alpha, r)
                normal = sys_.monomial(alpha) * sys_.constant(r)
                ok = ok and closed == engine == normal
                checked += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert verdict_line(
        3, ok, f"closed formula == rewriting engine == normal products on {checked} (system, alpha, r) triples in {dt:.2f}s (< 5s)"
    )


def test_criterion_04_confluence():
    ok = all(verify_pbw_axioms(get_system(nm)).ok for nm in BUILTIN_SYSTEMS)
    z3 = get_ring("Z3")
    ident = identity_map(z3)
    degenerate = CommutationSystem(z3, SigmaFamily(z3, [ident, ident]), c={(0, 1): 0})
    rep = verify_pbw_axioms(degenerate)
    ok = ok and not rep.ok and rep.failures[0][0] == "c_nonzero[1,2]"
    ok = ok and "nonzero leading coefficient" in rep.failures[0][1]
    assert verdict_line(
        4,
        ok,
        f"axioms pass on all {len(BUILTIN_SYSTEMS)} builtin systems; q=0 plane rejected with {rep.failures[0][0]}",
    )


def test_criterion_05_rigid_iff_weak_reduced():
    ok = len(DEFAULT_ENTRIES) >= 8
    rows = []
    for entry in DEFAULT_ENTRIES:
        ctx = resolve(entry)
        rigid = is_sigma_rigid(ctx.system.ring, ctx.system.sigma).holds
        weak = is_weak_sigma_rigid(ctx.system.ring, ctx.system.sigma).holds
        from skewlab.rings import is_reduced

        red = is_reduced(ctx.system.ring)
        ok = ok and (rigid == (weak and red))
        rows.append(entry.name)
    assert verdict_line(
        5, ok, f"rigid <=> (weak rigid and reduced) on all {len(rows)} instances"
    )


def test_criterion_06_counterexample_r3():
    t0 = time.perf_counter()
    ctx = resolve(next(e for e in DEFAULT_ENTRIES if e.name == "R3(Z2)/id"))
    weak = is_weak_sigma_rigid(ctx.system.ring, ctx.system.sigma)
    rigid = is_sigma_rigid(ctx.system.ring, ctx.system.sigma)
    dt = time.perf_counter() - t0
    ok = weak.holds and rigid.fails and dt < 1.0
    if ok:
        a = ctx.system.ring.element_index(rigid.witness["element"])
        m = ctx.system.sigma.maps[0]
        ok = a != ctx.system.ring.zero and int(ctx.system.ring.mul(a, m(a))) == ctx.system.ring.zero
    assert verdict_line(
        6,
        ok,
        f"R3(Z2): weak rigid holds, rigid fails at {rigid.witness['element']} in {dt * 1000:.0f}ms (< 1s)",
    )


def test_criterion_07_counterexample_s():
    t0 = time.perf_counter()
    ctx = resolve(next(e for e in DEFAULT_ENTRIES if e.name == "S(Z3)/negate-B"))
    weak = is_weak_sigma_rigid(ctx.system.ring, ctx.system.sigma)
    budget = SearchBudget(
        degree_bound=1,
        subset=block_elementary_subset(ctx.system.ring),
        subset_name="block-elementary",
    )
    arm = is_weak_sigma_skew_armendariz(ctx.system, budget)
    ok = weak.holds and arm.fails
    if ok:
        p = ctx.system.ring.element_index(arm.witness["product"])
        powers, reaches_zero = power_trajectory(ctx.system.ring, p)
        # cycle detection bounds the sweep by |S|: a cycle without 0 proves
        # no power within |S| steps (or ever) hits 0
        ok = not reaches_zero and len(powers) <= ctx.system.ring.size
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert verdict_line(
        7,
        ok,
        f"S(Z3): weak rigid holds, armendariz fails at D=1, witness product never reaches 0; {dt:.1f}s (< 60s)",
    )


def test_criterion_08_armendariz_gate():
    gated = []
    witnesses = []
    for entry in DEFAULT_ENTRIES:
        ctx = resolve(entry)
        from skewlab.rings import is_ni

        gate = (
            is_ni(ctx.system.ring)
            and is_weak_sigma_rigid(ctx.system.ring, ctx.system.sigma).holds
            and ctx.system.endomorphism_type
            and ctx.system.c_central_invertible()
        )
        if not gate:
            continue
        gated.append(entry.name)
        v = is_weak_sigma_skew_armendariz(ctx.system, SearchBudget(degree_bound=2))
        if v.fails:
            witnesses.append((entry.name, v.witness))
    ok = (
        not witnesses
        and "R3(Z2)/id" in gated
        and "Z4/id" in gated
    )
    assert verdict_line(
        8,
        ok,
        f"degree-2 search clean on all {len(gated)} gated instances ({', '.join(gated)})",
    )


def test_criterion_09_hypothesis_suites():
    reports = run_all()
    suites = ("nil_transfer", "idempotent_fixed", "ideal_decomposition")
    ok = all(
        r.status in ("pass", "vacuous") for r in reports if r.theorem in suites
    )
    gated_runs = [
        r for r in reports if r.theorem in suites and r.status == "pass"
    ]
    ok = ok and len(gated_runs) >= 15  # 6 + 6 + something gated per suite
    literal_ok = True
    for entry in DEFAULT_ENTRIES:
        status, details = check_ideal_decomposition(resolve(entry), mode="literal")
        literal_ok = literal_ok and status == "vacuous"
        literal_ok = (
            literal_ok
            and details["unsatisfiable_at"]
            == resolve(entry).system.ring.element_name(resolve(entry).system.ring.one)
        )
    ok = ok and literal_ok
    assert verdict_line(
        9,
        ok,
        f"{len(gated_runs)} gated suite runs pass; literal idempotent mode unsatisfiable at e=1 on all {len(DEFAULT_ENTRIES)} instances",
    )


def _verify_theorems_output() -> str:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "skewlab.cli", "verify-theorems", "--json"],
        capture_output=True,
        text=True,
        timeout=180,
    )
    dt = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert dt < 180.0
    return re.sub(r', "wall_ms": [0-9.]+', "", proc.stdout)


def test_criterion_10_determinism():
    run1 = _verify_theorems_output()
    run2 = _verify_theorems_output()
    ok = run1 == run2 and len(run1.splitlines()) == 63
    summary = json.loads(run1.splitlines()[-1])
    ok = ok and summary["failed"] == 0 and summary["theorems"] == 62
    assert verdict_line(
        10,
        ok,
        f"verify-theorems --json byte-identical across two repeat runs in fresh processes (63 lines, {summary['passed']} passed)",
    )
