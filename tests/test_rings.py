"""Ring construction, law verification, nilradicals, ideals."""
import numpy as np
import pytest

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
    nil_mask_cycle_detect,
    nil_mask_power_bound,
    nil_set,
    noncommuting_witness,
    power_trajectory,
    principal_right_set,
    verify_ring_laws,
)

from conftest import get_ring


# --- construction and laws -------------------------------------------------


def test_zn_tables():
    z6 = make_zn(6)
    assert z6.size == 6 and z6.zero == 0 and z6.one == 1
    assert int(z6.add(4, 5)) == 3
    assert int(z6.mul(4, 5)) == 2
    assert int(z6.neg(2)) == 4
    assert z6.element_name(5) == "5" and z6.element_index("5") == 5


def test_law_verification_exhaustive_flag():
    rep = make_zn(7).law_report
    assert rep.ok and rep.mode == "exhaustive" and rep.triples_checked == 7**3


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


def test_s_ring_sampled_laws():
    s = get_ring("S(Z3)")
    assert s.law_report.ok and s.law_report.mode == "sampled"
    assert s.law_report.triples_checked >= 100_000


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
    via_power = nil_mask_power_bound(ring)
    via_cycle = nil_mask_cycle_detect(ring)
    assert (via_power == via_cycle).all()
    assert (via_power == ring.nil_mask()).all()


def test_s_ring_nil_mask_block_rule():
    s = get_ring("S(Z3)")
    bnil = s.block.nil_mask()
    rng = np.random.default_rng(0)
    for a in rng.integers(0, s.size, size=50):
        A, _, C = s.decode(int(a))
        assert bool(s.nil_mask()[int(a)]) == bool(bnil[int(A)] and bnil[int(C)])
        powers, reaches_zero = power_trajectory(s, int(a))
        assert reaches_zero == bool(s.nil_mask()[int(a)])


def test_power_trajectory():
    z4 = make_zn(4)
    powers, reaches_zero = power_trajectory(z4, 2)
    assert reaches_zero and powers == [2, 0]
    z6 = make_zn(6)
    powers, reaches_zero = power_trajectory(z6, 2)
    assert not reaches_zero and 0 not in powers


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
    # spot-checked against random elements
    s = get_ring("S(Z3)")
    rng = np.random.default_rng(1)
    probe = rng.integers(0, s.size, size=40)
    one = s.one
    assert noncommuting_witness(s, s.zero) is None
    assert noncommuting_witness(s, one) is None
    for a in probe:
        w = noncommuting_witness(s, int(a))
        if w is None:
            sample = rng.integers(0, s.size, size=2000)
            assert (s.mul(int(a), sample) == s.mul(sample, int(a))).all()
        else:
            assert int(s.mul(int(a), w)) != int(s.mul(w, int(a)))


def test_invertibility():
    z6 = make_zn(6)
    assert is_invertible(z6, 5) and not is_invertible(z6, 2)


# --- ideals ----------------------------------------------------------------


def test_principal_ideal_z6():
    z6 = make_zn(6)
    elems = principal_right_set(z6, 3)
    ideal = make_ideal(z6, elems, "3*R")
    assert ideal.elements == (0, 3)
    assert 3 in ideal and 2 not in ideal


def test_non_ideal_rejected():
    z6 = make_zn(6)
    with pytest.raises(NotAnIdealError):
        make_ideal(z6, [0, 1], "not-an-ideal")


def test_sampled_law_report_structure():
    s = get_ring("S(Z4)")
    rep = verify_ring_laws(s, samples=50_000, seed=3)
    assert rep.ok and rep.mode == "sampled" and rep.triples_checked == 50_000


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
