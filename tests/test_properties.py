"""Property deciders: exact verdicts, frozen witnesses, bounded searches."""
import numpy as np
import pytest

from skewlab.maps import SigmaFamily, identity_map
from skewlab.poly import CommutationSystem, NormalProducts, SkewPoly, require_pbw
import skewlab.properties as P
from skewlab.properties import (
    ConsistencyError,
    NotEndomorphismTypeError,
    SearchBudget,
    block_elementary_subset,
    family_label,
    is_sigma_delta_skew_armendariz,
    is_sigma_rigid,
    is_sigma_skew_armendariz,
    is_skew_armendariz,
    is_skew_pi_armendariz,
    is_weak_armendariz,
    is_weak_sigma_rigid,
    is_weak_sigma_rigid_ideal,
    is_weak_sigma_skew_armendariz,
    nilpotent_within,
)
from skewlab.rings import BudgetError, make_ideal, principal_right_set

from conftest import get_map, get_ring, get_system
from oracles import engine_product, poly_is_nilpotent

def id_family(ring):
    return SigmaFamily(ring, [identity_map(ring)])


def swap_family():
    r = get_ring("Z2xZ2")
    return r, SigmaFamily(r, [get_map(r, "swap")])


def cblk(m):
    """Name of the S-ring element with matrix m in the C slot."""
    return f"blk[[0,0;0,0];[0,0;0,0];{m}]"


# --- rigidity deciders -------------------------------------------------------


def test_sigma_rigid_reduced_ring_holds():
    z6 = get_ring("Z6")
    v = is_sigma_rigid(z6, id_family(z6))
    assert v.status == "holds" and v.witness is None
    assert v.instance == "Z6/[id]"


def test_sigma_rigid_z4_fails_frozen():
    z4 = get_ring("Z4")
    v = is_sigma_rigid(z4, id_family(z4))
    assert v.status == "fails"
    assert v.witness == {
        "element": "2",
        "map": "id",
        "twisted": "2",
        "product": "0",
        "maps_swept": 1,
    }


def test_weak_rigid_z4_holds():
    z4 = get_ring("Z4")
    assert is_weak_sigma_rigid(z4, id_family(z4)).status == "holds"


def test_weak_rigid_m2_holds():
    # element-level biconditional: a*a nilpotent exactly when a is,
    # which does hold in the 2x2 matrix ring even though it is not NI
    m2 = get_ring("M2(Z2)")
    assert is_weak_sigma_rigid(m2, id_family(m2)).status == "holds"


def test_weak_rigid_swap_fails_frozen():
    r, fam = swap_family()
    v = is_weak_sigma_rigid(r, fam)
    assert v.status == "fails"
    assert v.witness == {
        "element": "(0|1)",
        "element_nilpotent": False,
        "map": "swap",
        "product": "(0|0)",
        "product_nilpotent": True,
        "maps_swept": 2,
    }


def test_weak_rigid_ideal_holds_z6():
    z6 = get_ring("Z6")
    ideal = make_ideal(z6, principal_right_set(z6, 3), "3*R")
    v = is_weak_sigma_rigid_ideal(z6, id_family(z6), ideal)
    assert v.status == "holds"
    assert v.bound == {"ideal": "3*R", "ideal_size": 2}


def test_weak_rigid_ideal_fails_swap():
    r, fam = swap_family()
    ideal = make_ideal(r, [0, 1], "0x(0|1)")
    v = is_weak_sigma_rigid_ideal(r, fam, ideal)
    assert v.status == "fails"
    assert v.witness["element"] == "(0|1)"
    assert v.witness["product"] == "(0|0)"
    assert v.witness["ideal"] == "0x(0|1)"


def test_family_label():
    r, fam = swap_family()
    assert family_label(fam) == "[swap]"


# --- zero-product searches (table path) --------------------------------------


def test_sigma_skew_armendariz_m2_fails_frozen():
    v = is_sigma_skew_armendariz(
        get_system("untwisted(M2(Z2))"), SearchBudget(degree_bound=1)
    )
    assert v.status == "fails"
    w = v.witness
    assert w["f"] == "[0,0;1,0]*x1 + [0,0;0,1]"
    assert w["g"] == "[0,0;0,1]*x1 + [0,1;0,0]"
    assert (w["monomial_i"], w["monomial_j"]) == ("1", "x1")
    assert w["a_i"] == "[0,0;0,1]" and w["b_j"] == "[0,0;0,1]"
    assert w["twist"] == "s^0"
    assert w["product"] == "[0,0;0,1]" and w["product_nilpotent"] is False
    assert (w["pairs_checked"], w["zero_products"]) == (11837, 875)


def test_weak_armendariz_m2_fails_both_bounds():
    m2 = get_ring("M2(Z2)")
    v1 = is_weak_armendariz(m2, SearchBudget(degree_bound=1))
    v2 = is_weak_armendariz(m2, SearchBudget(degree_bound=2))
    assert v1.status == "fails" and v2.status == "fails"
    # same canonical witness pair, more pairs swept at the higher bound
    assert v1.witness["f"] == v2.witness["f"] == "[0,0;1,0]*x1 + [0,0;0,1]"
    assert v1.witness["pairs_checked"] == 11837
    assert v2.witness["pairs_checked"] == 73277
    assert v2.witness["zero_products"] == 5147


def test_weak_armendariz_z4_holds_frozen():
    v = is_weak_armendariz(get_ring("Z4"), SearchBudget(degree_bound=2))
    assert v.status == "holds_up_to_bound" and v.witness is None
    assert v.bound == {
        "degree_bound": 2,
        "subset": "full",
        "monomials": 3,
        "polys": 64,
        "pairs_checked": 4096,
        "zero_products": 176,
    }


def test_weak_armendariz_z6_holds():
    v = is_weak_armendariz(get_ring("Z6"), SearchBudget(degree_bound=2))
    assert v.status == "holds_up_to_bound"
    assert v.bound["zero_products"] > 0  # zero divisors exist, none break it


def test_quantum_plane_two_variables_holds():
    v = is_sigma_skew_armendariz(
        get_system("quantum-plane(Z3,2)"), SearchBudget(degree_bound=1)
    )
    assert v.status == "holds_up_to_bound"
    assert v.bound["monomials"] == 3 and v.bound["polys"] == 27


def test_s_ring_armendariz_fails_frozen():
    sys = get_system("s-negate-b(Z3)")
    sub = block_elementary_subset(sys.ring)
    budget = SearchBudget(degree_bound=1, subset=sub, subset_name="block_elementary")
    for fn in (is_weak_sigma_skew_armendariz, is_sigma_skew_armendariz, is_skew_armendariz):
        v = fn(sys, budget)
        assert v.status == "fails"
        w = v.witness
        assert w["a_i"] == cblk("[0,0;0,1]")
        assert w["b_j"] == cblk("[0,0;0,2]")
        assert w["product"] == cblk("[0,0;0,2]")
        assert w["twist"] == "s^0"
        assert (w["pairs_checked"], w["zero_products"]) == (46347, 29242)


def test_block_elementary_sizes():
    assert block_elementary_subset(get_ring("S(Z3)")).size == 25
    assert block_elementary_subset(get_ring("S(Z4)")).size == 37
    with pytest.raises(TypeError):
        block_elementary_subset(get_ring("Z4"))


def test_explicit_subset_named_in_bound():
    # a caller's own subset array is not reported as the full carrier
    v = P.is_weak_sigma_skew_armendariz(
        get_system("untwisted(R3(Z2))"),
        SearchBudget(degree_bound=1, subset=np.asarray([1, 2, 4, 8])),
    )
    assert (v.bound["subset"], v.bound["polys"]) == ("explicit", 25)


def test_pair_cap_budget():
    with pytest.raises(BudgetError):
        is_weak_armendariz(get_ring("M2(Z2)"), SearchBudget(degree_bound=2, pair_cap=1000))


def test_pair_cap_checked_before_search_tables(monkeypatch):
    def built(*args, **kw):
        raise AssertionError("search tables built past the pair cap")

    for name in ("monomials_upto", "monomial_product_table", "move_past_tables"):
        monkeypatch.setattr(P, name, built)
    z2 = get_ring("Z2")
    with pytest.raises(BudgetError) as e:
        is_weak_armendariz(z2, SearchBudget(degree_bound=120))
    assert str(e.value) == (
        f"{2**242} polynomial pairs exceed pair_cap=50000000; "
        "lower the degree bound or pass a coefficient subset"
    )
    # past every cap the count is not formed, only named
    with pytest.raises(BudgetError, match=r"^2\^2000002 polynomial pairs exceed"):
        is_weak_armendariz(z2, SearchBudget(degree_bound=10**6))


def _fails_calls():
    """A call per decider that returns a `fails` verdict, cheap on small rings."""
    m2, b1 = get_ring("M2(Z2)"), SearchBudget(degree_bound=1)
    z22, swap = swap_family()
    return {
        "reduced": lambda: P.reduced_verdict(m2),
        "ni": lambda: P.ni_verdict(m2),
        "abelian": lambda: P.abelian_verdict(m2),
        "sigma_rigid": lambda: P.is_sigma_rigid(m2, id_family(m2)),
        "weak_sigma_rigid": lambda: P.is_weak_sigma_rigid(z22, swap),
        "weak_sigma_rigid_ideal": lambda: P.is_weak_sigma_rigid_ideal(
            z22, swap, make_ideal(z22, range(z22.size), "R")
        ),
        "weak_armendariz": lambda: P.is_weak_armendariz(m2, b1),
        "weak_sigma_skew_armendariz": lambda: P.is_weak_sigma_skew_armendariz(
            get_system("untwisted(M2(Z2))"), b1
        ),
        "sigma_skew_armendariz": lambda: P.is_sigma_skew_armendariz(
            get_system("untwisted(M2(Z2))"), b1
        ),
        "skew_armendariz": lambda: P.is_skew_armendariz(get_system("untwisted(M2(Z2))"), b1),
        "sigma_delta_skew_armendariz": lambda: P.is_sigma_delta_skew_armendariz(
            get_system("swap-ore"), b1
        ),
        "skew_pi_armendariz": lambda: P.is_skew_pi_armendariz(get_system("swap-ore"), b1),
    }


@pytest.mark.parametrize("prop", list(_fails_calls()))
def test_every_fails_path_runs_recheck(monkeypatch, prop):
    call = _fails_calls()[prop]
    assert call().status == "fails"
    seen = []

    def reject(p, inst, witness):
        seen.append(p)
        return False, "rejected"

    monkeypatch.setattr(P, "recheck", reject)
    with pytest.raises(ConsistencyError, match=f"^{prop} witness failed its re-check: rejected$"):
        call()
    assert seen == [prop]


def test_derivations_rejected_by_table_searches():
    so = get_system("swap-ore")
    with pytest.raises(NotEndomorphismTypeError):
        is_sigma_skew_armendariz(so, SearchBudget(degree_bound=1))


# --- engine-based searches ----------------------------------------------------


def test_sigma_delta_swap_ore_fails_frozen():
    v = is_sigma_delta_skew_armendariz(get_system("swap-ore"), SearchBudget(degree_bound=1))
    assert v.status == "fails"
    w = v.witness
    assert w["f"] == "(0|1)*x1 + (0|1)"
    assert w["g"] == "(0|1)"
    assert w["term_product"] == "(0|1)"
    assert (w["pairs_checked"], w["zero_products"]) == (78, 30)
    v2 = is_sigma_delta_skew_armendariz(get_system("swap-ore"), SearchBudget(degree_bound=2))
    assert v2.status == "fails" and v2.witness["pairs_checked"] == 270


def test_sigma_delta_holds_on_reduced_base():
    v = is_sigma_delta_skew_armendariz(get_system("untwisted(Z3)"), SearchBudget(degree_bound=2))
    assert v.status == "holds_up_to_bound"


def test_skew_pi_z4_holds_frozen():
    v = is_skew_pi_armendariz(
        get_system("untwisted(Z4)"), SearchBudget(degree_bound=1, power_bound=8)
    )
    assert v.status == "holds_up_to_bound"
    assert v.bound == {
        "degree_bound": 1,
        "power_bound": 8,
        "subset": "full",
        "pairs_checked": 256,
        "nilpotent_products": 112,
    }


def test_skew_pi_m2_fails_frozen():
    v = is_skew_pi_armendariz(
        get_system("untwisted(M2(Z2))"), SearchBudget(degree_bound=1, power_bound=4)
    )
    assert v.status == "fails"
    assert v.witness["fg_power_zero_at"] == 1
    assert (v.witness["pairs_checked"], v.witness["nilpotent_products"]) == (11837, 2275)


def test_poly_is_nilpotent():
    s4 = get_system("untwisted(Z4)")
    f = SkewPoly(s4, {(1,): 2, (0,): 2})
    ok, k = poly_is_nilpotent(f, 4)
    assert ok and k == 2
    assert poly_is_nilpotent(SkewPoly(s4, {}), 4) == (True, 1)
    assert poly_is_nilpotent(s4.constant(1), 4) == (False, 0)
    # power bound too small: no nilpotency certificate
    assert poly_is_nilpotent(f, 1) == (False, 0)


def _untwisted(ring_name, n=2, **rules):
    ring = get_ring(ring_name)
    sys = CommutationSystem(ring, SigmaFamily(ring, [identity_map(ring)] * n), **rules)
    require_pbw(sys)
    return sys


def _power_chain_systems():
    return [
        get_system("quantum-plane(Z3,2)"),
        get_system("swap-ore"),
        get_system("untwisted(M2(Z2))"),
        get_system("untwisted(Z4)"),
        _untwisted("Z4"),
        # x2 x1 = x1 x2 + x2 + 1: every swap branches into lower terms
        _untwisted("Z5", d={(0, 1): (1, (0, 1))}),
        # x3 x2 = x2 x3 + x1: a lower term past the leading one in lex order
        _untwisted("Z3", n=3, d={(1, 2): (0, (1, 0, 0))}),
        # an S ring keeps no Cayley tables: products go through ring.add/ring.mul
        get_system("s-negate-b(Z2)"),
    ]


def _random_poly(sys, rng, degree):
    exps = [e for e in np.ndindex(*(degree + 1,) * sys.n) if sum(e) <= degree]
    return SkewPoly(sys, {tuple(int(x) for x in e): int(rng.integers(sys.ring.size)) for e in exps})


@pytest.mark.parametrize("at", range(8))
def test_normal_products_match_engine(at):
    sys = _power_chain_systems()[at]
    rng = np.random.default_rng(at)
    products = NormalProducts(sys)
    for _ in range(12):
        f, g = _random_poly(sys, rng, 3), _random_poly(sys, rng, 2)
        assert products.product(f.terms, g.terms) == engine_product(f, g).terms


@pytest.mark.parametrize("at", range(8))
def test_nilpotent_within_matches_engine(at):
    sys = _power_chain_systems()[at]
    rng = np.random.default_rng(10 + at)
    products = NormalProducts(sys)
    for _ in range(12):
        fg = engine_product(_random_poly(sys, rng, 1), _random_poly(sys, rng, 1))
        for bound in (1, 2, 4):
            got = nilpotent_within(products, fg.terms, bound, 10**9)
            assert got == poly_is_nilpotent(fg, bound)


def test_skew_pi_power_chains_are_bounded():
    # powers up to degree 34 of every product: the rewrite engine took
    # minutes here, the leading-term certificate settles each in a few
    # products
    qp = get_system("quantum-plane(Z3,2)")
    v = is_skew_pi_armendariz(qp, SearchBudget(degree_bound=1, power_bound=17))
    assert v.status == "holds_up_to_bound"
    assert (v.bound["pairs_checked"], v.bound["nilpotent_products"]) == (729, 53)
    # over Z4 leading coefficients 2 die, and full powers are formed
    z4 = _untwisted("Z4")
    with pytest.raises(BudgetError, match="^nilpotency certificates multiplied more than pair_cap=200000"):
        is_skew_pi_armendariz(z4, SearchBudget(degree_bound=1, power_bound=17, pair_cap=200_000))
    with pytest.raises(BudgetError, match="^power_bound=129 forms powers of degree 258, past 256"):
        is_skew_pi_armendariz(qp, SearchBudget(degree_bound=1, power_bound=129))


def test_certificate_cap_counts_one_search():
    # every product of a system goes through its one NormalProducts, so the
    # PBW check, the structure constants and earlier searches have counted
    # term pairs there before; the cap still meters this search alone
    z4 = _untwisted("Z4")
    budget = SearchBudget(degree_bound=1, power_bound=17, pair_cap=200_000)

    def spent_at_raise():
        start = z4.products.term_products
        with pytest.raises(BudgetError, match="^nilpotency certificates multiplied more than pair_cap=200000"):
            is_skew_pi_armendariz(z4, budget)
        return z4.products.term_products - start

    first = spent_at_raise()
    assert first > 200_000
    is_sigma_delta_skew_armendariz(z4, SearchBudget(degree_bound=2))
    assert spent_at_raise() == first


@pytest.mark.parametrize("sysname,power_bound", [("untwisted(Z4)", 8), ("untwisted(M2(Z2))", 4)])
def test_skew_pi_repeats_on_one_system(sysname, power_bound):
    # the second run meets the memo the first one filled: same verdict, same counters
    sys = get_system(sysname)
    budget = SearchBudget(degree_bound=1, power_bound=power_bound)
    first = is_skew_pi_armendariz(sys, budget)
    assert is_skew_pi_armendariz(sys, budget) == first


# --- determinism ----------------------------------------------------------------


def test_verdicts_identical_across_backends_and_runs():
    # repeat runs must give identical verdicts
    sys = get_system("untwisted(M2(Z2))")
    verdicts = [is_sigma_skew_armendariz(sys, SearchBudget(degree_bound=1)) for _ in range(3)]
    assert verdicts[0].status == "fails"
    assert all(v == verdicts[0] for v in verdicts)


def test_weak_armendariz_backend_agreement():
    # repeat runs must give identical verdicts
    z6 = get_ring("Z6")
    verdicts = [is_weak_armendariz(z6, SearchBudget(degree_bound=2)) for _ in range(2)]
    assert verdicts[0].status == "holds_up_to_bound"
    assert verdicts[0] == verdicts[1]
