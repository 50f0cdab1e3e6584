"""Ring construction, law verification, nilradicals, ideals."""
import ast
import copy
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import kernels, rings
from skewlab.catalog import BUILTIN_RINGS

from skewlab.rings import (
    DEFAULT_TABLE_BUDGET,
    BudgetError,
    NotAnIdealError,
    RingConstructionError,
    SRing,
    TableRing,
    abelian_failure,
    central_idempotents,
    central_mask,
    idempotents,
    is_abelian,
    is_central,
    is_invertible,
    is_ni,
    is_reduced,
    make_ideal,
    make_matrix_ring,
    make_product,
    make_r3,
    make_s_ring,
    make_zn,
    ni_failure,
    nil_set,
    noncommuting_witness,
    power_trajectory,
    principal_right_set,
    verify_ring_laws,
)

from conftest import get_ring
from oracles import nil_mask_cycle_detect
from test_blocks import _carrier_ni_failure


# --- construction and laws -------------------------------------------------


def test_zn_tables():
    z6 = make_zn(6)
    assert z6.size == 6 and z6.zero == 0 and z6.one == 1
    assert int(z6.add(4, 5)) == 3
    assert int(z6.mul(4, 5)) == 2
    assert int(z6.neg(2)) == 4
    assert z6.element_name(5) == "5" and z6.element_index("5") == 5


def test_law_verification_generators_flag():
    rep = make_zn(7).law_report
    assert make_zn(7).additive_generators.tolist() == [1]
    assert rep.ok and rep.mode == "generators" and rep.triples_checked == 3 * 7**2 + 1


@pytest.mark.parametrize("name,k", [
    ("Z6", 1), ("Z2xZ2", 2), ("M2(Z2)", 4), ("R3(Z2)", 4), ("M2(Z3)", 4), ("S(Z3)", 12),
])
def test_additive_generators_span(name, k):
    # every element is a sum of generators: closing {0} under +g reaches the carrier
    ring = get_ring(name)
    gens = ring.additive_generators
    assert len(gens) == k and (np.diff(gens) > 0).all()
    reached = np.zeros(ring.size, dtype=bool)
    reached[ring.zero] = True
    frontier = np.array([ring.zero])
    while len(frontier):
        nxt = np.unique(ring.add(frontier[:, None], gens[None, :]))
        frontier = nxt[~reached[nxt]]
        reached[frontier] = True
    assert reached.all()


def _reference_violation(add, mul, one):
    """The full-sweep verdict: O(n^2) checks, then the canonical (a, b, c) sweeps."""
    idx = np.arange(len(add))
    for law, bad in (
        ("add_commutative", add != add.T),
        ("zero_identity", add[0] != idx),
        ("negation_exists", ~(add == 0).any(axis=1)),
        ("one_left_identity", mul[one] != idx),
        ("one_right_identity", mul[:, one] != idx),
    ):
        if bad.any():
            return law, tuple(int(v) for v in np.unravel_index(np.argmax(bad), bad.shape))
    for law, w in (
        ("add_associative", kernels.associativity_witness(add)),
        ("mul_associative", kernels.associativity_witness(mul)),
    ):
        if w is not None:
            return law, tuple(int(v) for v in w)
    w = kernels.distributivity_witness(add, mul)
    return None if w is None else (f"distributive_{w[0]}", tuple(int(v) for v in w[1]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generator_laws_match_full_sweep(data):
    # single-entry corruptions (mirrored for + so commutativity still holds
    # and the deeper laws are reached): the generator check must reject
    # exactly the tables the full sweep rejects, with the same (law, witness)
    name = data.draw(st.sampled_from(
        ["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "M2(Z2)", "R3(Z2)", "M2(Z3)"]
    ))
    ring = get_ring(name)
    n = ring.size
    add, mul = ring.add_table.copy(), ring.mul_table.copy()
    table = data.draw(st.sampled_from(["add", "add-mirrored", "mul"]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    t = mul if table == "mul" else add
    v = data.draw(st.integers(0, n - 2))
    t[i, j] = v if v < t[i, j] else v + 1
    if table == "add-mirrored":
        t[j, i] = t[i, j]
    want = _reference_violation(add, mul, ring.one)
    if want is None:
        rep = TableRing("c", add, mul, ring.one, ring.names).law_report
        assert rep.ok and rep.mode == "generators"
    else:
        with pytest.raises(RingConstructionError) as e:
            TableRing("c", add, mul, ring.one, ring.names)
        assert (e.value.law, e.value.witness) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generator_laws_match_full_sweep_on_deformed_products(data):
    # x*y = A_x y on (Z2)^k, 1 = e_0 a two-sided unit.  A bilinear A keeps
    # both distributive laws, so only associativity on G^3 can fail; an
    # arbitrary A keeps x*_ additive but not _*x (the transpose swaps the two)
    k = data.draw(st.integers(2, 3))
    n = 1 << k

    def columns(x):  # A_x e_0 = x, so x*1 = x
        return [x] + [data.draw(st.integers(0, n - 1)) for _ in range(k - 1)]

    unit = [1 << j for j in range(k)]
    if data.draw(st.booleans()):
        basis = [unit] + [columns(1 << i) for i in range(1, k)]
        cols = [
            [int(np.bitwise_xor.reduce([basis[i][j] for i in range(k) if x >> i & 1] or [0]))
             for j in range(k)]
            for x in range(n)
        ]
    else:
        cols = [unit if x == 1 else columns(x) for x in range(n)]
    mul = np.array([
        [int(np.bitwise_xor.reduce([cols[x][j] for j in range(k) if y >> j & 1] or [0]))
         for y in range(n)]
        for x in range(n)
    ])
    if data.draw(st.booleans()):
        mul = mul.T.copy()
    add = np.bitwise_xor.outer(np.arange(n), np.arange(n))
    want = _reference_violation(add, mul, 1)
    names = [str(i) for i in range(n)]
    if want is None:
        assert TableRing("d", add, mul, 1, names).law_report.ok
    else:
        with pytest.raises(RingConstructionError) as e:
            TableRing("d", add, mul, 1, names)
        assert (e.value.law, e.value.witness) == want


def test_z1024_laws_exact():
    rep = make_zn(1024).law_report
    assert rep.ok and rep.mode == "generators" and rep.triples_checked == 3 * 1024**2 + 1


@pytest.mark.parametrize("table", ["add", "mul"])
def test_corrupted_z1024_names_a_real_violation(table):
    # above 256 elements the witness comes from the generator check itself;
    # recomputed from the tables, it must break the law it names
    z = make_zn(1024)
    add, mul = z.add_table.copy(), z.mul_table.copy()
    if table == "add":
        add[5, 7] = add[7, 5] = 13
    else:
        mul[5, 7] = 36
    with pytest.raises(RingConstructionError) as e:
        TableRing("Z1024*", add, mul, 1, z.names)
    a, b, c = e.value.witness
    lhs, rhs = {
        "add_associative": (add[add[a, b], c], add[a, add[b, c]]),
        "mul_associative": (mul[mul[a, b], c], mul[a, mul[b, c]]),
        "distributive_left": (mul[a, add[b, c]], add[mul[a, b], mul[a, c]]),
        "distributive_right": (mul[add[a, b], c], add[mul[a, c], mul[b, c]]),
    }[e.value.law]
    assert lhs != rhs


def test_no_seeded_sampling_under_src():
    # ring laws, PBW confluence and map checks are all exact: nothing under
    # src/ draws random pairs
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    users = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if "default_rng" in {getattr(node, k, None) for k in ("id", "attr", "name")}
    ]
    assert users == []


def test_broken_mul_table_rejected():
    z3 = make_zn(3)
    mul = z3.mul_table.copy()
    mul[2, 2] = 2  # 2*2 = 2 breaks distributivity/associativity
    with pytest.raises(RingConstructionError):
        TableRing("broken", z3.add_table, mul, 1, ["0", "1", "2"])


def test_duplicate_names_rejected():
    z2 = make_zn(2)
    with pytest.raises(ValueError):
        TableRing("dup", z2.add_table, z2.mul_table, 1, ["a", "a"])


def test_wide_int64_table_rejected():
    # checked before the int32 cast, where 2**32 would wrap to 0 and build Z2
    add = np.array([[0, 1], [1, 2**32]])
    with pytest.raises(ValueError, match="out of range"):
        TableRing("F2", add, [[0, 0], [0, 1]], 1, ["0", "1"])


def test_table_budget():
    n = 5000
    with pytest.raises(BudgetError):
        TableRing(
            "huge",
            np.zeros((n, n), dtype=np.int32),
            np.zeros((n, n), dtype=np.int32),
            1,
            [str(i) for i in range(n)],
        )


def test_product_ring():
    r = make_product(make_zn(2), make_zn(3))
    assert r.size == 6
    a = r.element_index("(1|2)")
    b = r.element_index("(1|1)")
    assert r.element_name(int(r.mul(a, b))) == "(1|2)"
    assert r.element_name(int(r.add(a, b))) == "(0|0)"


def test_matrix_ring_units():
    m2 = make_matrix_ring(make_zn(2), 2)
    assert m2.size == 16
    e11 = m2.element_index("[1,0;0,0]")
    e12 = m2.element_index("[0,1;0,0]")
    e21 = m2.element_index("[0,0;1,0]")
    assert int(m2.mul(e11, e12)) == e12
    assert int(m2.mul(e12, e21)) == e11
    assert int(m2.mul(e12, e12)) == m2.zero


def test_r3_product_rule():
    r3 = make_r3(make_zn(2))
    assert r3.size == 16
    # (a,b,c,d)(a',b',c',d') = (aa', ab'+ba', ac'+bd'+ca', ad'+da')
    x = r3.element_index("ut3[1,1,0,1]")
    y = r3.element_index("ut3[1,0,1,1]")
    assert r3.element_name(int(r3.mul(x, y))) == "ut3[1,1,0,0]"
    assert r3.element_name(int(r3.mul(y, x))) == "ut3[1,1,1,0]"


def test_s_ring_block_rule_and_names():
    s = make_s_ring(make_zn(3))
    assert s.size == 3 ** 12
    A, B, C = 5, 17, 40
    a = s.encode(A, B, C)
    A2, B2, C2 = s.decode(a)
    assert (int(A2), int(B2), int(C2)) == (A, B, C)
    # product follows (A|B|C)(A'|B'|C') = (AA' | AB'+BC' | CC')
    b = s.encode(2, 3, 7)
    blk = s.block
    expect = s.encode(
        int(blk.mul(A, 2)),
        int(blk.add(blk.mul(A, 3), blk.mul(B, 7))),
        int(blk.mul(C, 7)),
    )
    assert int(s.mul(a, b)) == expect
    nm = s.element_name(a)
    assert nm.startswith("blk[") and s.element_index(nm) == a


def test_s_ring_block_laws():
    s = get_ring("S(Z3)")
    g = s.additive_generators
    assert len(g) == 12 and set(s.decode(g)[0].tolist()) == {0, 1, 3, 9, 27}
    assert s.law_report.ok and s.law_report.mode == "block"
    assert s.law_report.triples_checked == 12**3 + 12**2 + 2 * 12


# --- nilpotency ------------------------------------------------------------


def test_nil_sets_frozen():
    assert nil_set(make_zn(4)).tolist() == [0, 2]
    assert nil_set(make_zn(6)).tolist() == [0]
    r3 = make_r3(make_zn(2))
    nil = nil_set(r3)
    assert nil.tolist() == list(range(8))  # exactly the zero-diagonal block
    assert all(r3.element_name(int(a)).startswith("ut3[0,") for a in nil)


@pytest.mark.parametrize("name", ["Z4", "Z6", "Z2xZ2", "M2(Z2)", "R3(Z2)"])
def test_nil_dual_routes_agree(name):
    ring = get_ring(name)
    assert (ring.nil_mask() == nil_mask_cycle_detect(ring)).all()


def test_s_ring_nil_mask_block_rule():
    s = get_ring("S(Z3)")
    bnil = s.block.nil_mask()
    rng = np.random.default_rng(0)
    for a in rng.integers(0, s.size, size=50):
        A, _, C = s.decode(int(a))
        assert s.is_nilpotent(int(a)) == bool(bnil[int(A)] and bnil[int(C)])
        powers, reaches_zero = power_trajectory(s, int(a))
        assert reaches_zero == s.is_nilpotent(int(a))


def test_power_trajectory():
    z4 = make_zn(4)
    powers, reaches_zero = power_trajectory(z4, 2)
    assert reaches_zero and powers == [2, 0]
    z6 = make_zn(6)
    powers, reaches_zero = power_trajectory(z6, 2)
    assert not reaches_zero and 0 not in powers


FACT_RINGS = [n for n in BUILTIN_RINGS if not n.startswith("S(")] + [
    "Z8", "Z16", "Z4xZ4", "R3(Z4)", "M2(Z4)",
]


@pytest.mark.parametrize("name", FACT_RINGS)
def test_finite_ring_facts_match_full_sweeps(name):
    # the nil mask forms powers up to log2 |R| only, ni_failure sweeps
    # sums only, is_invertible looks on one side only: each against the
    # sweep that does not lean on the finite-ring fact
    ring = get_ring(name)
    assert np.array_equal(
        kernels.nilpotent_mask(ring.mul_table, ring.zero), nil_mask_cycle_detect(ring)
    )
    assert ni_failure(ring) == _carrier_ni_failure(ring)
    two_sided = ((ring.mul_table == ring.one) & (ring.mul_table.T == ring.one)).any(axis=1)
    assert [is_invertible(ring, a) for a in range(ring.size)] == two_sided.tolist()


# --- classification flags --------------------------------------------------


def test_reduced():
    assert is_reduced(make_zn(6))
    assert not is_reduced(make_zn(4))


def test_ni_witness_on_matrix_ring():
    m2 = get_ring("M2(Z2)")
    assert not is_ni(m2)
    kind, a, b = ni_failure(m2)
    if kind == "add":
        assert m2.is_nilpotent(a) and m2.is_nilpotent(b)
        assert not m2.is_nilpotent(int(m2.add(a, b)))
    else:
        assert not m2.is_nilpotent(int(m2.mul(a, b)))
    assert is_ni(make_zn(4))
    assert is_ni(get_ring("R3(Z2)"))


def test_idempotents():
    assert idempotents(make_zn(6)).tolist() == [0, 1, 3, 4]
    assert idempotents(make_zn(4)).tolist() == [0, 1]


def test_abelian():
    assert is_abelian(make_zn(6))
    assert is_abelian(get_ring("R3(Z2)"))
    m2 = get_ring("M2(Z2)")
    assert not is_abelian(m2)
    e, r = abelian_failure(m2)
    assert int(m2.mul(e, e)) == e
    assert int(m2.mul(e, r)) != int(m2.mul(r, e))


def test_centrality_matches_brute_force():
    for name in ("Z6", "M2(Z2)", "R3(Z2)"):
        ring = get_ring(name)
        every = ring.elements()
        brute = np.array(
            [bool((ring.mul(a, every) == ring.mul(every, a)).all()) for a in range(ring.size)]
        )
        fast = central_mask(ring, np.arange(ring.size))
        assert (brute == fast).all()
        for a in range(ring.size):
            assert is_central(ring, a) == bool(brute[a])


def test_central_idempotents_m2():
    m2 = get_ring("M2(Z2)")
    names = [m2.element_name(int(e)) for e in central_idempotents(m2)]
    assert names == ["[0,0;0,0]", "[1,0;0,1]"]


def test_s_ring_generating_set_sound():
    # commuting with the generating set must equal commuting with everything,
    # checked on every element of S(Z2)
    # and so must commuting with the additive generators (`central_mask`)
    s = get_ring("S(Z2)")
    every = s.elements()
    for x in np.array_split(every, 16):
        central = (s.mul(x[:, None], every[None, :]) == s.mul(every[None, :], x[:, None])).all(axis=1)
        assert np.array_equal(central_mask(s, x), central)
        for a, c in zip(x.tolist(), central.tolist()):
            w = noncommuting_witness(s, a)
            assert (w is None) == c
            if w is not None:
                assert int(s.mul(a, w)) != int(s.mul(w, a))


def _mask_over(ring, cand, gens):
    """Centrality of each candidate, tested against `gens` one at a time."""
    alive = np.arange(len(cand))
    for g in gens.tolist():
        c = cand[alive]
        alive = alive[ring.mul(c, g) == ring.mul(g, c)]
    mask = np.zeros(len(cand), dtype=bool)
    mask[alive] = True
    return mask


@pytest.mark.parametrize("name", BUILTIN_RINGS)
def test_central_mask_additive_generators_match_generating_set(name):
    # the additive generators' centralizer is the center, as the generating set's is
    ring = get_ring(name)
    idem = idempotents(ring)
    assert np.array_equal(central_mask(ring, idem), _mask_over(ring, idem, ring.generating_set()))


def test_invertibility():
    z6 = make_zn(6)
    assert is_invertible(z6, 5) and not is_invertible(z6, 2)


# --- ideals ----------------------------------------------------------------


def test_principal_ideal_z6():
    z6 = make_zn(6)
    elems = principal_right_set(z6, 3)
    ideal = make_ideal(z6, elems, "3*R")
    assert ideal.elements == (0, 3)
    assert 3 in ideal.elements and 2 not in ideal.elements


def test_non_ideal_rejected():
    z6 = make_zn(6)
    with pytest.raises(NotAnIdealError):
        make_ideal(z6, [0, 1], "not-an-ideal")


def _loop_make_ideal(ring, elems):
    """The per-element membership loops that `make_ideal` replaces:
    ("ok", elements) or (reason, witness)."""
    elems = np.asarray(sorted(set(int(x) for x in elems)), dtype=np.int64)
    sset = set(elems.tolist())
    if ring.zero not in sset:
        return "missing zero", (ring.zero,)
    for a in elems:
        for v in np.asarray(ring.add(int(a), elems)).ravel():
            if int(v) not in sset:
                return "add closure", (int(a),)
    every = ring.elements()
    for a in elems:
        for prod in (ring.mul(every, int(a)), ring.mul(int(a), every)):
            for v in kernels.dedupe(np.asarray(prod))[0]:
                if int(v) not in sset:
                    return "mul absorption", (int(a),)
    return "ok", tuple(int(x) for x in elems)


def _closure(ring, gens, sides):
    """The additive subgroup generated by `gens` and closed under r*a
    ("left" in sides) and a*r ("right" in sides) for every r."""
    out = np.union1d([ring.zero], np.asarray(gens, dtype=np.int64))
    while True:
        parts = [ring.add_table[np.ix_(out, out)].ravel()]
        if "left" in sides:
            parts.append(ring.mul_table[:, out].ravel())
        if "right" in sides:
            parts.append(ring.mul_table[out, :].ravel())
        grown = np.union1d(out, np.concatenate(parts))
        if grown.size == out.size:
            return out
        out = grown


@st.composite
def ideal_candidates(draw):
    """A table ring and a subset: drawn, or an additive subgroup, a one-sided
    or a two-sided ideal, each with one element toggled or not."""
    kind = draw(st.sampled_from(["Zn", "Z2xZ2", "M2(Z2)", "R3(Z2)"]))
    ring = make_zn(draw(st.integers(2, 24))) if kind == "Zn" else get_ring(kind)
    elems = st.integers(0, ring.size - 1)
    shape = draw(st.sampled_from(["drawn", "subgroup", "left", "right", "left right"]))
    if shape == "drawn":
        subset = draw(st.lists(elems, max_size=ring.size))
    else:  # few generators, so the closure is seldom the whole ring
        subset = _closure(ring, draw(st.lists(elems, max_size=2)), shape.split()).tolist()
    if draw(st.booleans()):
        subset = sorted(set(subset) ^ {draw(elems)})
    return ring, subset


@settings(max_examples=200, deadline=None)
@given(ideal_candidates(), st.sampled_from([1, 40, rings._CHUNK]))
def test_make_ideal_matches_membership_loops(drawn, chunk):
    # chunks of one row, a few rows, and the default
    ring, subset = drawn
    with mock.patch.object(rings, "_CHUNK", chunk):
        try:
            got = "ok", make_ideal(ring, subset).elements
        except NotAnIdealError as err:
            got = err.reason, err.witness
    assert got == _loop_make_ideal(ring, subset)


def test_block_law_report_structure():
    s = get_ring("S(Z4)")
    rep = verify_ring_laws(s)
    assert rep.ok and rep.mode == "block" and rep.triples_checked == 12**3 + 12**2 + 2 * 12
    # a wrong unit is caught on the generators
    bad = copy.copy(s)
    bad.one = s.encode(s.block.one, 0, 0)
    assert verify_ring_laws(bad).violation == ("one_left_identity", (1,))


def test_make_zn_budget_before_tables():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"Z{DEFAULT_TABLE_BUDGET + 1} has size"):
            make_zn(DEFAULT_TABLE_BUDGET + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
