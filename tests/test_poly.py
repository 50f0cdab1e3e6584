"""Skew polynomial arithmetic: normal products against the engine and
closed-formula oracles, and the axioms."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.maps import (
    SigmaFamily,
    id_minus_sigma_derivation,
    identity_map,
    verify_endomorphism,
    zero_derivation,
)
from skewlab.poly import (
    CommutationSystem,
    PbwAxiomError,
    SkewPoly,
    monomial_product_table,
    monomials_upto,
    require_pbw,
    verify_pbw_axioms,
)

from conftest import get_map, get_ring, get_system
from oracles import mono_times_coeff_closed, mono_times_coeff_engine, pbw_failures_engine


def double_swap_system():
    """Two variables over Z2xZ2, both twisted by swap, delta1 = id - swap."""
    r = get_ring("Z2xZ2")
    sw = get_map(r, "swap")
    fam = SigmaFamily(r, [sw, sw])
    return CommutationSystem(
        r,
        fam,
        delta=[id_minus_sigma_derivation(r, sw), zero_derivation(r, sw)],
        name="double-swap",
    )


# --- monomial order ---------------------------------------------------------


def test_deglex_frozen():
    assert monomials_upto(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert monomials_upto(1, 3) == [(0,), (1,), (2,), (3,)]


# --- single rewrite rules --------------------------------------------------


def test_var_times_coeff_rule():
    so = get_system("swap-ore")
    r = so.ring
    a = r.element_index("(0|1)")
    p = so.variable(0) * so.constant(a)
    sw = so.sigma.maps[0]
    d = so.delta[0]
    assert p.coeff((1,)) == sw(a)
    assert p.coeff((0,)) == d(a)
    assert not so.endomorphism_type


def test_var_times_var_rule():
    qp = get_system("quantum-plane(Z3,2)")
    x1, x2 = qp.variable(0), qp.variable(1)
    assert (x2 * x1).terms == {(1, 1): 2}
    assert (x1 * x2).terms == {(1, 1): 1}
    assert qp.endomorphism_type


def test_quantum_plane_reads_q_mod_p():
    assert get_system("quantum-plane(Z3,5)").c == get_system("quantum-plane(Z3,2)").c == {(0, 1): 2}


def test_quantum_plane_products_frozen():
    qp = get_system("quantum-plane(Z3,2)")
    x1, x2 = qp.variable(0), qp.variable(1)
    assert str(x2 * x1) == "2*x1*x2"
    assert str((x1 + x2) ** 2) == "x2^2 + x1^2"  # cross terms cancel mod 3
    assert str(x2 * x2 * x1) == "x1*x2^2"  # coefficient 4 = 1 mod 3


def test_c_central_invertible_two_variables():
    assert get_system("quantum-plane(Z3,2)").c_central_invertible()
    # 2 is central in Z4 but no unit: 2x is 0 or 2 for every x
    z4 = get_ring("Z4")
    fam = SigmaFamily(z4, [identity_map(z4), identity_map(z4)])
    assert not CommutationSystem(z4, fam, c={(0, 1): 2}).c_central_invertible()


def test_poly_str_and_zero():
    so = get_system("swap-ore")
    a = so.ring.element_index("(0|1)")
    f = SkewPoly(so, {(1,): a, (0,): a})
    assert str(f) == "(0|1)*x1 + (0|1)"
    assert str(f * f) == "0" and (f * f).is_zero
    assert str(SkewPoly(so, {})) == "0"


# --- three routes to x^alpha * r: closed formula, rewriting engine, normal products


def assert_routes_agree(sys, alpha, r):
    closed = mono_times_coeff_closed(sys, alpha, r)
    assert closed == mono_times_coeff_engine(sys, alpha, r)
    assert closed == sys.monomial(alpha) * sys.constant(r)


@pytest.mark.parametrize("sysname", ["swap-ore", "untwisted(Z4)"])
def test_closed_formula_matches_engine_one_var(sysname):
    sys = get_system(sysname)
    for m in range(5):
        for r in range(sys.ring.size):
            assert_routes_agree(sys, (m,), r)


def test_closed_formula_matches_engine_quantum_plane():
    qp = get_system("quantum-plane(Z3,2)")
    for alpha in monomials_upto(2, 4):
        for r in range(3):
            assert_routes_agree(qp, alpha, r)


def test_closed_formula_matches_engine_with_derivations():
    sys = double_swap_system()
    require_pbw(sys)
    for alpha in monomials_upto(2, 4):
        for r in range(sys.ring.size):
            assert_routes_agree(sys, alpha, r)


def test_closed_formula_rejects_bad_exponent():
    so = get_system("swap-ore")
    with pytest.raises(ValueError):
        mono_times_coeff_closed(so, (1, 1), 0)
    with pytest.raises(ValueError):
        mono_times_coeff_closed(so, (-1,), 0)


# --- ring laws of the polynomial ring (hypothesis) --------------------------


def poly_strategy(sys, max_deg=2, max_terms=3):
    exps = monomials_upto(sys.n, max_deg)
    term = st.tuples(st.sampled_from(exps), st.integers(0, sys.ring.size - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: SkewPoly(sys, {e: c for e, c in ts})
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_poly_associativity(data):
    sys = get_system("quantum-plane(Z3,2)")
    f = data.draw(poly_strategy(sys))
    g = data.draw(poly_strategy(sys))
    h = data.draw(poly_strategy(sys))
    assert (f * g) * h == f * (g * h)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_poly_distributivity(data):
    sys = get_system("swap-ore")
    f = data.draw(poly_strategy(sys, max_deg=3))
    g = data.draw(poly_strategy(sys, max_deg=3))
    h = data.draw(poly_strategy(sys, max_deg=3))
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_poly_additive_group(data):
    sys = double_swap_system()
    f = data.draw(poly_strategy(sys))
    g = data.draw(poly_strategy(sys))
    assert f + g == g + f
    assert (f - f).is_zero
    assert f + SkewPoly(sys, {}) == f


def test_unit_polynomial():
    qp = get_system("quantum-plane(Z3,2)")
    one = qp.constant(qp.ring.one)
    f = SkewPoly(qp, {(2, 1): 2, (0, 0): 1})
    assert one * f == f and f * one == f


# --- axiom verification ------------------------------------------------------


@pytest.mark.parametrize(
    "sysname", ["untwisted(Z6)", "swap-ore", "quantum-plane(Z3,2)"]
)
def test_builtin_systems_pass_axioms(sysname):
    sys = get_system(sysname)
    assert verify_pbw_axioms(sys).ok
    # exact: the sweep over additive generators agrees with every r
    for i, j in itertools.combinations(range(sys.n), 2):
        xj, xi = sys.variable(j), sys.variable(i)
        for r in range(sys.ring.size):
            assert xj * (xi * sys.constant(r)) == (xj * xi) * sys.constant(r)


@st.composite
def pbw_candidates(draw):
    """A two- or three-variable system, valid or not: drawn twists (M2(Z2)
    conjugations among them), delta = 0 or id - sigma, c_ij and d_ij."""
    kind = draw(st.sampled_from(["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "M2(Z2)", "S(Z2)"]))
    ring = get_ring(kind)
    twists = [identity_map(ring)]
    if kind == "Z2xZ2":
        twists += [get_map(ring, "swap"), verify_endomorphism(ring, np.array([0, 0, 3, 3]), "proj")]
    elif kind == "M2(Z2)":  # conjugation by each unit u
        mul = ring.mul_table
        for u in range(ring.size):
            if (mul[u] == ring.one).any():
                uinv = int(np.argmax(mul[u] == ring.one))
                twists.append(verify_endomorphism(ring, mul[mul[u], uinv], f"conj{u}"))
    elif kind == "S(Z2)":
        twists.append(get_map(ring, "negate-B"))
    n = draw(st.sampled_from([2, 3]))
    sigma = [draw(st.sampled_from(twists)) for _ in range(n)]
    delta = [
        draw(st.sampled_from([zero_derivation, id_minus_sigma_derivation]))(ring, m) for m in sigma
    ]
    # c = 1 and d entries of 0 or 1 keep the valid systems common; any
    # element, c = 0 among them, breaks them
    anything = st.integers(0, ring.size - 1)
    small = st.sampled_from([ring.zero, ring.one]) | anything
    c, d = {}, {}
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            c[i, j] = draw(st.just(ring.one) | anything)
        if draw(st.booleans()):
            d[i, j] = (draw(small), tuple(draw(small) for _ in range(n)))
    return CommutationSystem(ring, SigmaFamily(ring, sigma), delta=delta, c=c, d=d)


@settings(max_examples=250, deadline=None)
@given(pbw_candidates())
def test_pbw_failures_match_engine(sys):
    # the two sides of each overlap through the system's normal products
    # decide confluence exactly as the rewriting engine's do, details included
    assert verify_pbw_axioms(sys).failures == pbw_failures_engine(sys)


def test_zero_c_rejected():
    z3 = get_ring("Z3")
    ident = identity_map(z3)
    sys = CommutationSystem(z3, SigmaFamily(z3, [ident, ident]), c={(0, 1): 0})
    rep = verify_pbw_axioms(sys)
    assert not rep.ok
    assert rep.failures[0][0] == "c_nonzero[1,2]"
    with pytest.raises(PbwAxiomError):
        require_pbw(sys)


def test_noninjective_twist_rejected():
    r = get_ring("Z2xZ2")
    proj = verify_endomorphism(r, np.array([0, 0, 3, 3]), "proj")
    sys = CommutationSystem(r, SigmaFamily(r, [proj]))
    rep = verify_pbw_axioms(sys)
    assert ("sigma_injective[1]", "twist proj is not injective") in rep.failures


def test_noncentral_c_breaks_overlap():
    m2 = get_ring("M2(Z2)")
    ident = identity_map(m2)
    e11 = m2.element_index("[1,0;0,0]")
    sys = CommutationSystem(m2, SigmaFamily(m2, [ident, ident]), c={(0, 1): e11})
    rep = verify_pbw_axioms(sys)
    assert rep.failures and rep.failures[0][0] == "overlap_var_coeff[1,2]"


def test_pbw_confluence_exact_over_s_ring():
    # S(Z3) has 531441 elements; r runs over its 12 additive generators, so a
    # noncentral c is caught at the least generator that breaks confluence
    s = get_ring("S(Z3)")
    ident = identity_map(s)
    e11 = s.element_index("blk[[1,0;0,0];[0,0;0,0];[0,0;0,0]]")
    sys = CommutationSystem(s, SigmaFamily(s, [ident, ident]), c={(0, 1): e11})
    rep = verify_pbw_axioms(sys)
    assert [f[0] for f in rep.failures] == ["overlap_var_coeff[1,2]"]
    r = s.element_index(rep.failures[0][1].rsplit("r=", 1)[1])
    gens = s.additive_generators.tolist()
    xj, xi = sys.variable(1), sys.variable(0)
    broken = [g for g in gens if xj * (xi * sys.constant(g)) != (xj * xi) * sys.constant(g)]
    assert r == broken[0]
    assert verify_pbw_axioms(CommutationSystem(s, SigmaFamily(s, [ident, ident]))).ok


def test_structural_validation():
    z3 = get_ring("Z3")
    ident = identity_map(z3)
    with pytest.raises(ValueError):
        CommutationSystem(z3, SigmaFamily(z3, [ident]), c={(1, 0): 2})
    with pytest.raises(ValueError):
        CommutationSystem(z3, SigmaFamily(z3, [ident]), delta=[])
    z4 = get_ring("Z4")
    with pytest.raises(ValueError):
        CommutationSystem(
            z3, SigmaFamily(z3, [ident]), delta=[zero_derivation(z4, identity_map(z4))]
        )


def test_d_terms_enter_products():
    z3 = get_ring("Z3")
    ident = identity_map(z3)
    sys = CommutationSystem(
        z3,
        SigmaFamily(z3, [ident, ident]),
        c={(0, 1): 2},
        d={(0, 1): (1, (1, 2))},
        name="d-terms",
    )
    assert require_pbw(sys).ok
    x1, x2 = sys.variable(0), sys.variable(1)
    assert (x2 * x1).terms == {(1, 1): 2, (1, 0): 1, (0, 1): 2, (0, 0): 1}
    # engine associativity with d-terms in play
    f = x2 * x1 + sys.constant(2)
    assert (f * f) * f == f * (f * f)


def test_monomial_product_table():
    qp = get_system("quantum-plane(Z3,2)")
    exps1 = monomials_upto(2, 1)
    exps2 = monomials_upto(2, 2)
    stc = monomial_product_table(qp, exps1, exps2)
    i_x1 = exps1.index((1, 0))
    i_x2 = exps1.index((0, 1))
    g_x1x2 = exps2.index((1, 1))
    assert stc[i_x2, i_x1, g_x1x2] == 2  # x2*x1 = 2*x1*x2
    assert stc[i_x1, i_x2, g_x1x2] == 1
    with pytest.raises(ValueError):
        monomial_product_table(qp, exps2, exps1)
