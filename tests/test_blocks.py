"""S rings decided at block level, checked against the carrier route.

A block-diagonal twist (phi, psi, chi) of an S ring is compared with a
carrier-table RingMap of the same map: the carrier table sends every
decider down its carrier sweep, the block map down the block rule, and
both must give the same closure, twists, records and witnesses.  The
ring invariants (idempotents, nilpotents, reducedness, central
idempotents) and `_first_moved` are compared with plain carrier sweeps
in the same way.
"""
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewlab.cli import main
from skewlab.maps import (
    MapVerificationError,
    RingMap,
    SigmaFamily,
    id_minus_sigma_derivation,
    identity_map,
    orbit_closure,
    sigma_power,
    verify_block_endomorphism,
    verify_sigma_derivation,
)
from skewlab.poly import CommutationSystem
from skewlab.properties import (
    SearchBudget,
    block_elementary_subset,
    decide,
    is_sigma_rigid,
    is_weak_sigma_rigid,
    is_weak_sigma_skew_armendariz,
    reduced_verdict,
    subset_fields,
)
from skewlab.rings import (
    _CHUNK,
    SRing,
    central_idempotents,
    idempotents,
    is_invertible,
    is_reduced,
    ni_failure,
    nil_set,
)
from skewlab.theorems import _first_moved

from conftest import get_map, get_ring

ROOT = Path(__file__).resolve().parents[1]


def _units(blk):
    """(u, u^-1) for every unit of the block ring, ascending in u."""
    mul, one = blk.mul_table, blk.one
    out = []
    for u in range(blk.size):
        inv = np.flatnonzero((mul[u] == one) & (mul[:, u] == one))
        if inv.size:
            out.append((u, int(inv[0])))
    return out


def _conjugation_map(ring, P, Q, u, name):
    """phi = P . P^-1, chi = Q . Q^-1, psi(B) = u P B Q^-1, verified."""
    blk = ring.block
    mul, M = blk.mul_table, np.arange(blk.size)
    (p, pinv), (q, qinv) = P, Q
    scalar = blk.element_index(f"[{u},0;0,{u}]")
    phi = mul[mul[p, M], pinv]
    chi = mul[mul[q, M], qinv]
    psi = mul[scalar, mul[mul[p, M], qinv]]
    return verify_block_endomorphism(ring, phi, psi, chi, name)


@st.composite
def block_families(draw):
    ring = get_ring(draw(st.sampled_from(["S(Z2)", "S(Z3)"])))
    units = _units(ring.block)
    base = round(ring.bsize ** 0.25)
    maps = []
    for k in range(draw(st.integers(1, 2))):
        P, Q = draw(st.sampled_from(units)), draw(st.sampled_from(units))
        u = draw(st.sampled_from([s for s in range(1, base) if np.gcd(s, base) == 1]))
        maps.append(_conjugation_map(ring, P, Q, u, f"g{k}"))
    return ring, maps


def _carrier_twin(m):
    return RingMap(m.ring, m.carrier_table(), m.name)


def _records(ring, maps):
    fam = SigmaFamily(ring, maps)
    budget = SearchBudget(
        degree_bound=1, subset=block_elementary_subset(ring), subset_name="block-elementary"
    )
    # one variable: two would be 25^6 pairs at D = 1 on S(Z3)
    sys = CommutationSystem(ring, SigmaFamily(ring, maps[:1]), name="first-map")
    return {
        "closure": [m.name for m in orbit_closure(fam)],
        "sigma_rigid": is_sigma_rigid(ring, fam),
        "weak_sigma_rigid": is_weak_sigma_rigid(ring, fam),
        "armendariz": is_weak_sigma_skew_armendariz(sys, budget),
    }, fam


@settings(max_examples=12, deadline=None)
@given(block_families())
def test_block_route_matches_carrier_route(drawn):
    ring, maps = drawn
    # the carrier route sweeps |closure| * |S| elements; two random twists
    # of S(Z3) can close over 1,152 maps, past what this oracle can afford
    assume(len(orbit_closure(SigmaFamily(ring, maps))) * ring.size <= 24 * 3**12)
    twins = [_carrier_twin(m) for m in maps]
    assert all(m.blocks is not None and t.blocks is None for m, t in zip(maps, twins))
    block, bfam = _records(ring, maps)
    carrier, cfam = _records(ring, twins)
    assert block == carrier
    for theta in [(0,) * len(maps), (1,) * len(maps), tuple(range(2, 2 + len(maps)))]:
        bp, cp = sigma_power(bfam, theta), sigma_power(cfam, theta)
        assert bp.blocks is not None and cp.blocks is None and bp.name == cp.name
        assert np.array_equal(bp.carrier_table(), cp.table)
        assert bp.equals(cp) and cp.equals(bp)


@pytest.mark.parametrize("block", ["Z2", "Z3", "Z4", "Z2xZ2"])
def test_rigidity_slices_over_commutative_block_rings(block):
    # over a reduced block ring (Z2, Z3, Z2xZ2) no C != 0 has C chi(C) = 0,
    # so the least sigma_rigid bad element is (0|B|0): B = 0 would miss it
    blk = get_ring(block)
    ring = SRing(blk, f"S[{block}]")
    maps = [identity_map(ring)]
    if block == "Z2xZ2":
        t = get_map(blk, "swap").table
        maps.append(verify_block_endomorphism(ring, t, t, t, "swap3"))
    for decide in (is_sigma_rigid, is_weak_sigma_rigid):
        for m in maps:
            got = decide(ring, SigmaFamily(ring, [m]))
            assert got == decide(ring, SigmaFamily(ring, [_carrier_twin(m)]))


def test_mixed_family_closes_over_carrier_tables():
    s = get_ring("S(Z2)")
    neg = get_map(s, "negate-B")
    units = _units(s.block)
    conj = _conjugation_map(s, units[1], units[2], 1, "c")
    mixed = orbit_closure(SigmaFamily(s, [neg, _carrier_twin(conj)]))
    blocks = orbit_closure(SigmaFamily(s, [neg, conj]))
    assert all(m.blocks is None for m in mixed)
    assert [m.name for m in mixed] == [m.name for m in blocks]
    assert all(a.equals(b) for a, b in zip(mixed, blocks))


def _carrier_chunks(ring):
    for lo in range(0, ring.size, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, ring.size), dtype=np.int64)


def _s_ring(name):
    """A catalog S ring, or S[R]: the block ring of triples over R itself."""
    return get_ring(name) if name.startswith("S(") else SRing(get_ring(name[2:-1]), name)


# S[Z3] and S[Z2xZ2]: reduced block rings, whose S rings are still not reduced
@pytest.mark.parametrize("name", ["S(Z2)", "S(Z3)", "S[Z3]", "S[Z2xZ2]"])
def test_block_invariants_match_carrier_sweeps(name):
    ring = _s_ring(name)
    idem, nil = [], []
    for x in _carrier_chunks(ring):
        idem.append(x[ring.mul(x, x) == x])
        p = x
        for _ in range(4):  # x^16; every nilpotent of these S rings has index <= 8
            p = ring.mul(p, p)
        nil.append(x[p == ring.zero])
        assert np.array_equal(ring.nil_at(x), p == ring.zero)
    idem, nil = np.concatenate(idem), np.concatenate(nil)
    assert np.array_equal(idempotents(ring), idem)
    assert np.array_equal(nil_set(ring), nil)
    assert is_reduced(ring) == (len(nil) == 1)
    # the least nonzero nilpotent, named off the block ring alone
    verdict = reduced_verdict(ring)
    assert verdict.fails and verdict.witness["element"] == ring.element_name(int(nil[1]))
    # centrality by carrier products: with all of S(Z2), or with the
    # single-slot generating set of S(Z3), whose centralizer is the center
    every = ring.elements() if ring.size <= 4096 else ring.generating_set()
    central = [e for e in idem.tolist() if (ring.mul(e, every) == ring.mul(every, e)).all()]
    assert central_idempotents(ring).tolist() == central


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["S(Z2)", "S(Z3)", "S(Z4)"]), st.data())
def test_mul_is_the_block_rule_on_decoded_triples(name, data):
    ring = get_ring(name)
    blk = ring.block
    n = data.draw(st.integers(1, 20))
    a, b = (
        np.asarray(data.draw(st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)))
        for _ in range(2)
    )
    got = ring.mul(a, b)
    assert np.array_equal(got, ring.encode(*ring.mul_blocks(ring.decode(a), ring.decode(b))))
    for x, y, p in zip(a.tolist(), b.tolist(), got.tolist()):
        # the block rule on the block ring's own scalar ops, and the scalar path
        (A, B, C), (A2, B2, C2) = ((int(t) for t in ring.decode(v)) for v in (x, y))
        rule = blk.mul(A, A2), blk.add(blk.mul(A, B2), blk.mul(B, C2)), blk.mul(C, C2)
        assert p == ring.encode(*rule) == ring.mul(x, y)


def _scalar_first_moved(ctx, elems):
    """The per-element, per-map loop that `_first_moved` replaces."""
    name = ctx.system.ring.element_name
    for e in elems:
        for m in ctx.system.sigma.maps:
            if int(m(e)) != e:
                return {"e": name(e), "map": m.name, "image": name(int(m(e)))}
    return None


def _assert_first_moved_matches(ring, maps, extra):
    ctx = SimpleNamespace(system=SimpleNamespace(ring=ring, sigma=SigmaFamily(ring, maps)))
    for elems in (idempotents(ring).tolist(), central_idempotents(ring).tolist(), extra, []):
        assert _first_moved(ctx, elems) == _scalar_first_moved(ctx, elems)


@pytest.mark.parametrize("name", ["S(Z2)", "S(Z3)"])
def test_first_moved_matches_scalar_loop_negate_b(name):
    ring = get_ring(name)
    neg = get_map(ring, "negate-B")
    # negate-B moves (A|B|C) exactly when B != -B: never over Z2
    _assert_first_moved_matches(ring, [neg], [0, ring.one, 5, 7, 1000])
    _assert_first_moved_matches(ring, [identity_map(ring), neg, _carrier_twin(neg)], [3, 2, 1])


@settings(max_examples=12, deadline=None)
@given(block_families(), st.data())
def test_first_moved_matches_scalar_loop_drawn_maps(drawn, data):
    ring, maps = drawn
    extra = data.draw(st.lists(st.integers(0, ring.size - 1), max_size=12))
    _assert_first_moved_matches(ring, maps, extra)


def _carrier_ni_failure(ring):
    """The carrier loop over nil(S) that the block route replaces."""
    nil = nil_set(ring)
    for a in nil:
        for x in np.array_split(nil, -(-len(nil) // _CHUNK)):
            bad = ~ring.nil_at(ring.add(int(a), x))
            if bad.any():
                return ("add", int(a), int(x[int(np.argmax(bad))]))
    every = ring.elements()
    for a in nil:
        bad = ~ring.nil_at(ring.mul(every, int(a)))
        if bad.any():
            return ("mul", int(np.argmax(bad)), int(a))
        bad = ~ring.nil_at(ring.mul(int(a), every))
        if bad.any():
            return ("mul", int(a), int(np.argmax(bad)))
    return None


@pytest.mark.parametrize("name,expected", [
    ("S(Z2)", "add"),
    ("S(Z3)", "add"),
    ("S[Z4]", None),  # blocks over the commutative NI rings themselves
    ("S[Z2xZ2]", None),
])
def test_block_ni_matches_carrier_loop(name, expected):
    ring = _s_ring(name)
    got = ni_failure(ring)
    assert got == _carrier_ni_failure(ring)
    assert (got and got[0]) == expected
    if got:
        # the witness lies in the (0|0|C) slot: index x encodes (0|0|x)
        assert all(0 <= x < ring.bsize for x in got[1:])


def test_unit_rule_matches_carrier_sweep():
    s = get_ring("S(Z2)")
    every = s.elements()
    for x in np.array_split(every, 16):
        left = s.mul(x[:, None], every[None, :]) == s.one
        right = s.mul(every[None, :], x[:, None]) == s.one
        assert [is_invertible(s, int(a)) for a in x] == (left & right).any(axis=1).tolist()


@pytest.mark.parametrize("law", ["phi_unital", "psi_additive", "psi_left_linear"])
def test_corrupted_block_map_names_its_law(law):
    s = get_ring("S(Z3)")
    blk = s.block
    ident = np.arange(blk.size)
    phi, psi, chi = ident.copy(), ident.copy(), ident.copy()
    if law == "phi_unital":
        phi[blk.one], phi[2] = 2, blk.one
    elif law == "psi_additive":
        psi[1], psi[2] = 2, 1
    else:  # transpose: additive, but psi(AB) = (AB)^T != A B^T
        psi = np.array([blk.element_index(_transpose(blk.element_name(b))) for b in ident])
    with pytest.raises(MapVerificationError) as exc:
        verify_block_endomorphism(s, phi, psi, chi, "bad")
    assert exc.value.law == law
    if law != "phi_unital":
        # the named pair really breaks the law
        A, B = exc.value.witness
        if law == "psi_additive":
            assert psi[blk.add(A, B)] != blk.add(psi[A], psi[B])
        else:
            assert psi[blk.mul(A, B)] != blk.mul(phi[A], psi[B])


def _transpose(name):
    (a, b), (c, d) = (row.split(",") for row in name[1:-1].split(";"))
    return f"[{a},{c};{b},{d}]"


# --- scale: no S-ring path touches the carrier ------------------------------------


S_Z5_CHECKS = """\
checks reduced, ni, abelian, sigma_rigid, weak_sigma_rigid
expect reduced=fails, ni=fails, abelian=fails, sigma_rigid=fails, weak_sigma_rigid=holds
"""


@pytest.mark.parametrize("head", ["system s-negate-b(Z5)", "ring S(Z5)\nmaps negate-B"])
def test_s_z5_through_check(tmp_path, capsys, head):
    # S(Z5) has 244,140,625 elements: one int32 carrier table is 977 MB
    spec = tmp_path / "s5.spec"
    spec.write_text(f"{head}\n{S_Z5_CHECKS}")
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["check", str(spec), "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - t0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0 and not any(r.get("mismatch") for r in recs)
    assert elapsed < 10 and peak < 64 << 20, (elapsed, peak)
    by = {r["check"]: r for r in recs}
    assert by["sigma_rigid"]["witness"]["element"] == "blk[[0,0;0,0];[0,0;0,0];[0,0;1,0]]"
    assert by["ni"]["witness"] == {
        "kind": "add",
        "a": "blk[[0,0;0,0];[0,0;0,0];[0,0;1,0]]",
        "b": "blk[[0,0;0,0];[0,0;0,0];[0,1;0,0]]",
    }


def test_s_z4_theorem_suite_memory_guard():
    # a fresh process, so no earlier test has warmed the S(Z4) caches; one
    # int32 carrier table of S(Z4) alone would be 67 MB.  The suite peaks at
    # 2.4 MiB, while building the block ring M2(Z4); the block-elementary
    # pair sweep's index arrays take 1.8 MiB, and checking the negate-B map
    # one law's |M|x|M| grid at a time stays below that, where all seven
    # laws over pair vectors at once took 5.7 MiB.  The bound leaves 1.6 MiB
    # of margin
    code = (
        "import tracemalloc\n"
        "from skewlab.theorems import run_all\n"
        "tracemalloc.start()\n"
        "reports = run_all(instance='S(Z4)/negate-B')\n"
        "print(tracemalloc.get_traced_memory()[1], all(r.status != 'fail' for r in reports))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    peak, ok = proc.stdout.split()
    assert ok == "True" and int(peak) < 4 << 20, peak


def _check_under_3gb(spec: Path) -> subprocess.CompletedProcess:
    """`check SPEC --json` in a process whose address space is capped at 3 GB."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "skewlab.cli", "check", str(spec), "--json"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit,
    )


def test_two_variable_s_z5_under_address_space_limit(tmp_path):
    # two variables make the PBW check ask whether c_12 = 1 is a unit; a
    # carrier sweep of S(Z5) allocates 1 GB arrays and dies under 3 GB
    spec = tmp_path / "s5x2.spec"
    spec.write_text(f"ring S(Z5)\nmaps negate-B, negate-B\n{S_Z5_CHECKS}")
    proc = _check_under_3gb(spec)
    assert proc.returncode == 0, proc.stderr
    recs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(recs) == 5 and not any(r.get("mismatch") for r in recs)


S_DERIVATION_SPEC = """\
ring S(Z{n})
map s = negate-B
derivation dd = id-minus s
maps s
deltas dd
{checks}check sigma_delta_skew_armendariz degree_bound=1 subset=block-elementary
check skew_pi_armendariz degree_bound=1 subset=block-elementary
expect sigma_delta_skew_armendariz=fails, skew_pi_armendariz=fails
"""


def test_s_z5_derivation_runs_under_address_space_limit(tmp_path):
    # id - sigma is applied through the block map: no carrier table of
    # 244,140,625 entries is built, so the spec runs under a 3 GB cap
    spec = tmp_path / "s5d.spec"
    spec.write_text(S_DERIVATION_SPEC.format(n=5, checks=S_Z5_CHECKS))
    proc = _check_under_3gb(spec)
    assert proc.returncode == 0, proc.stderr
    recs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(recs) == 7 and not any(r.get("mismatch") for r in recs)


def test_s_z4_derivation_memory_guard(tmp_path):
    # a fresh process: S(Z4) has 16,777,216 elements, and a carrier table of
    # id - negate-B with its verification took 1,185 MB of max RSS; applied
    # through the block map the spec peaks near 35 MB
    spec = tmp_path / "s4d.spec"
    spec.write_text(S_DERIVATION_SPEC.format(n=4, checks=""))
    code = (
        "import re, sys\n"
        "from skewlab.cli import main\n"
        "code = main(['check', sys.argv[1], '--json'])\n"
        "hwm = re.search(r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read())\n"
        "print(code, int(hwm.group(1)), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(spec)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    exit_code, hwm_kb = proc.stderr.split()[-2:]
    assert exit_code == "0", proc.stderr
    assert int(hwm_kb) < 100 << 10, hwm_kb


def test_s_z3_derivation_keeps_no_carrier_table_and_equals_its_twin():
    ring = get_ring("S(Z3)")
    sigma = get_map(ring, "negate-B")
    d = id_minus_sigma_derivation(ring, sigma)
    assert d.table is None and not d.is_zero
    idx = ring.elements()
    twin_table = ring.sub(idx, sigma(idx))
    assert np.array_equal(d(idx), twin_table)
    twin = verify_sigma_derivation(ring, sigma, twin_table, d.name)
    family = SigmaFamily(ring, [sigma])
    budget = SearchBudget(degree_bound=1, **subset_fields(ring))
    for name in ("sigma_delta_skew_armendariz", "skew_pi_armendariz"):
        got = [
            decide(name, CommutationSystem(ring, family, delta=[delta]), budget, "S(Z3)/dd")
            for delta in (d, twin)
        ]
        assert got[0] == got[1] and got[0].fails
