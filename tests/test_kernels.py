"""Kernels: law sweeps, nil masks and the zero-product pair sweep.

The pair sweep is checked against a brute-force oracle that walks the
same canonical pair order with rewriting-engine products, for every
zero-product property, derivations included.
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import kernels
from skewlab.maps import (
    SigmaFamily,
    id_minus_sigma_derivation,
    identity_map,
    verify_endomorphism,
    zero_derivation,
)
from skewlab.poly import (
    CommutationSystem,
    monomial_product_table,
    monomial_str,
    monomials_upto,
    move_past_tables,
    term_tables,
)
from skewlab.properties import (
    PropertyVerdict,
    SearchBudget,
    _coeff_subset,
    _enumerate_polys,
    _row_poly,
    _violation_tables,
    _zero_product_search,
    block_elementary_subset,
    is_sigma_delta_skew_armendariz,
    is_skew_pi_armendariz,
    poly_terms_record,
)
from skewlab.rings import make_zn

from conftest import get_map, get_ring, get_system
from oracles import (
    engine_product,
    mono_times_coeff_engine,
    nil_mask_cycle_detect,
    poly_is_nilpotent,
)


# --- law sweeps --------------------------------------------------------------


@pytest.mark.parametrize("name", ["Z2", "Z4", "Z6", "Z2xZ2", "M2(Z2)", "R3(Z2)"])
def test_valid_tables_have_no_witness(name):
    ring = get_ring(name)
    assert kernels.associativity_witness(ring.mul_table) is None
    assert kernels.associativity_witness(ring.add_table) is None
    assert kernels.distributivity_witness(ring.add_table, ring.mul_table) is None


def test_distributivity_right_law_regression():
    # a table whose left law holds but right law fails must be reported
    # as "right" (mul[a,b] = b left-distributes trivially)
    n = 3
    add = make_zn(3).add_table
    mul = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    expected = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]:
                    expected = ("left", (a, b, c))
                    break
                if mul[add[a, b], c] != add[mul[a, c], mul[b, c]]:
                    expected = ("right", (a, b, c))
                    break
            if expected:
                break
        if expected:
            break
    assert expected is not None and expected[0] == "right"
    assert kernels.distributivity_witness(add, mul) == expected


def test_corrupted_tables_same_witness_across_backends():
    # the witness repeats across runs and is a genuine law violation
    z4 = make_zn(4)
    mul = z4.mul_table.copy()
    mul[2, 3] = 1
    add = z4.add_table
    runs = [
        (kernels.associativity_witness(mul), kernels.distributivity_witness(add, mul))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    a, b, c = runs[0][0]
    assert mul[mul[a, b], c] != mul[a, mul[b, c]]
    law, (a, b, c) = runs[0][1]
    if law == "left":
        assert mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]
    else:
        assert mul[add[a, b], c] != add[mul[a, c], mul[b, c]]


@pytest.mark.parametrize("name", ["Z4", "Z6", "M2(Z2)", "R3(Z2)"])
def test_nil_mask_across_backends(name):
    # the power sweep against the independent cycle-detection route
    ring = get_ring(name)
    mask = kernels.nilpotent_mask(ring.mul_table, ring.zero)
    assert (mask == nil_mask_cycle_detect(ring)).all()
    assert (mask == ring.nil_mask()).all()


# --- pair search -------------------------------------------------------------


def _search_inputs(sysname, mode):
    """The sweep's inputs over K, the full carrier, at degree bound 1."""
    sys = get_system(sysname)
    ring = sys.ring
    exps = monomials_upto(sys.n, 1)
    K = _coeff_subset(ring, SearchBudget(degree_bound=1), len(exps))
    moves = move_past_tables(sys, exps, K)
    terms = term_tables(ring, K, moves, monomial_product_table(sys, exps, monomials_upto(sys.n, 2)))
    V = _violation_tables(ring, K, moves, terms, mode, len(exps))
    polys, deg_starts = _enumerate_polys(exps, K.size)
    return ring, polys, deg_starts, terms, V


def _table_search(sysname, mode):
    ring, polys, deg_starts, terms, V = _search_inputs(sysname, mode)
    return kernels.search_zero_products_table(
        polys, deg_starts, ring.add_table, terms, V, ring.zero
    )


def _generic_search(sysname, mode):
    ring, polys, deg_starts, terms, V = _search_inputs(sysname, mode)
    return kernels.search_zero_products_generic(ring, polys, deg_starts, terms, V)


@pytest.mark.parametrize("sysname,mode", [
    ("untwisted(Z4)", 0),          # holds: counters with no witness
    ("untwisted(M2(Z2))", 1),      # fails: witness plus counters
    ("untwisted(M2(Z2))", 2),
    ("untwisted(Z6)", 1),
])
def test_table_search_identical_across_backends(sysname, mode):
    # the Cayley-table sweep and the ring.add sweep agree to the last
    # counter, witness included
    assert _table_search(sysname, mode) == _generic_search(sysname, mode)


def test_m2_mode1_frozen_counters():
    witness, pairs, zeros = _table_search("untwisted(M2(Z2))", 1)
    assert witness is not None
    assert (pairs, zeros) == (11837, 875)


def test_generic_path_matches_table_path_holds_case():
    table = _table_search("untwisted(Z4)", 0)
    generic = _generic_search("untwisted(Z4)", 0)
    assert generic == table
    assert table[0] is None and generic[0] is None
    assert table[1] == 256  # 16 polys of degree <= 1, all pairs swept


# --- brute-force engine oracle -------------------------------------------------

_PROPS = {
    0: "weak_sigma_skew_armendariz",
    1: "sigma_skew_armendariz",
    2: "skew_armendariz",
    3: "sigma_delta_skew_armendariz",
}


def _poly_pairs_engine(sys, exps, budget):
    """Yield (f, g) in the canonical pair order."""
    K = _coeff_subset(sys.ring, budget, len(exps))
    polys, deg_starts = _enumerate_polys(exps, K.size)
    nblocks = deg_starts.shape[0] - 1

    @functools.cache
    def poly_at(r):
        return _row_poly(sys, exps, K[polys[r]])

    for df in range(nblocks):
        for dg in range(nblocks):
            for fi in range(int(deg_starts[df]), int(deg_starts[df + 1])):
                for gi in range(int(deg_starts[dg]), int(deg_starts[dg + 1])):
                    yield poly_at(fi), poly_at(gi)


def engine_sweep(sys, budget, mode):
    """(witness, pairs, zeros) from engine products in canonical pair order.

    The coefficient condition is read off a_i x^alpha_i * b_j, whose only
    term is a_i sigma^alpha_i(b_j) x^alpha_i when all derivations are zero.
    """
    ring = sys.ring
    nil = nil_mask_cycle_detect(ring)
    exps = monomials_upto(sys.n, budget.degree_bound)
    pairs = zeros = 0
    for f, g in _poly_pairs_engine(sys, exps, budget):
        pairs += 1
        if not engine_product(f, g).is_zero:
            continue
        zeros += 1
        for ea in exps[:1] if mode == 2 else exps:
            for eb in exps:
                a = f.terms.get(ea, ring.zero)
                b = g.terms.get(eb, ring.zero)
                term = engine_product(sys.monomial(ea, a), sys.constant(b))
                p = term.terms.get(ea, ring.zero)
                if (not nil[p]) if mode == 0 else p != ring.zero:
                    return (str(f), str(g), list(ea), list(eb)), pairs, zeros
    return None, pairs, zeros


def kernel_sweep(sys, budget, mode):
    """The same triple read off the vectorized search's verdict."""
    v = _zero_product_search(sys, budget, _PROPS[mode], "")
    if v.fails:
        w = v.witness
        return (w["f"], w["g"], w["exp_i"], w["exp_j"]), w["pairs_checked"], w["zero_products"]
    return None, v.bound["pairs_checked"], v.bound["zero_products"]


def _inner_automorphism(ring, u):
    mul = ring.mul_table
    uinv = int(np.argmax(mul[u] == ring.one))
    images = mul[mul[u], uinv]
    return verify_endomorphism(ring, images, f"conj{u}")


@st.composite
def small_systems(draw):
    """An endomorphism-type system over a small ring, and a search budget."""
    # M2(Z2) twice: most zero-product failures live in its zero divisors
    kind = draw(
        st.sampled_from(["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "M2(Z2)", "M2(Z2)", "qp"])
    )
    if kind == "qp":
        ring = get_ring(f"Z{draw(st.integers(2, 6))}")
        units = [q for q in range(1, ring.size) if np.gcd(q, ring.size) == 1]
        q = draw(st.sampled_from(units))
        ident = identity_map(ring)
        sys = CommutationSystem(ring, SigmaFamily(ring, [ident, ident]), c={(0, 1): q})
        max_subset = 3
    else:
        ring = get_ring(kind)
        twist = identity_map(ring)
        if kind == "Z2xZ2" and draw(st.booleans()):
            twist = get_map(ring, "swap")
        elif kind == "M2(Z2)":
            units = [u for u in range(ring.size) if (ring.mul_table[u] == ring.one).any()]
            twist = _inner_automorphism(ring, draw(st.sampled_from(units)))
        sys = CommutationSystem(ring, SigmaFamily(ring, [twist]))
        max_subset = 6
    # degree 2 adds x^2 rows and mixed-degree pair blocks; it runs on
    # smaller subsets to keep the engine sweep short
    degree_bound = draw(st.sampled_from([1, 2] if sys.n == 1 else [1]))
    if degree_bound == 2:
        max_subset = 2
    subset = draw(
        st.lists(st.integers(1, ring.size - 1), min_size=1, max_size=max_subset, unique=True)
    )
    budget = SearchBudget(
        degree_bound=degree_bound, subset=np.asarray(subset), subset_name="drawn"
    )
    return sys, budget


@settings(max_examples=100, deadline=None)
@given(small_systems(), st.sampled_from([0, 1, 2]))
def test_zero_product_search_matches_engine_oracle(drawn, mode):
    sys, budget = drawn
    assert kernel_sweep(sys, budget, mode) == engine_sweep(sys, budget, mode)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_generic_search_matches_engine_oracle_s_ring(mode):
    sys = get_system("s-negate-b(Z2)")
    assert not sys.ring.is_table_backed
    budget = SearchBudget(
        degree_bound=1,
        subset=block_elementary_subset(sys.ring),
        subset_name="block-elementary",
    )
    assert kernel_sweep(sys, budget, mode) == engine_sweep(sys, budget, mode)


# --- the staged zero-pair filter ------------------------------------------------


def _staged_system(name):
    if name == "Z2xZ2/swap":
        ring = get_ring("Z2xZ2")
        return CommutationSystem(ring, SigmaFamily(ring, [get_map(ring, "swap")]))
    return get_system(name)


@st.composite
def product_blocks(draw):
    """A system, its coefficient pool, move tables, structure constants,
    random F/B coefficient row blocks over the pool, and the coefficients
    whose zero set is filtered."""
    sys = _staged_system(draw(st.sampled_from([
        "untwisted(Z4)", "untwisted(M2(Z2))", "Z2xZ2/swap",
        "quantum-plane(Z3,2)",  # x2 x1 = 2 x1 x2: structure constants s != one
        "swap-ore",  # derivation moves x b = sigma(b) x + delta(b) land on k != i
        "s-negate-b(Z2)",  # untabulated: ring.add/ring.mul
    ])))
    ring = sys.ring
    elements = (
        range(ring.size) if ring.is_table_backed else block_elementary_subset(ring).tolist()
    )
    # a few elements and zero, so that zero products are common
    pool = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3, unique=True))
    pool = np.asarray(sorted(set(pool) | {ring.zero}))
    degree_bound = draw(st.sampled_from([1, 2] if sys.n == 1 else [1]))
    exps = monomials_upto(sys.n, degree_bound)
    exps_out = monomials_upto(sys.n, 2 * degree_bound)
    moves = move_past_tables(sys, exps, pool)
    stc = monomial_product_table(sys, exps, exps_out)
    # dense: every column of F and B is live, so in one variable at degree
    # 2 the key run is the two one-term stages c4 (reads a2) and c0 (a0)
    dense = pool.size > 1 and draw(st.booleans())

    def block():
        rows = draw(st.integers(1, 6))
        picks = draw(st.lists(
            st.integers(0, pool.size - 1), min_size=rows * len(exps), max_size=rows * len(exps)
        ))
        out = pool[np.asarray(picks)].reshape(rows, len(exps)).astype(np.int32)
        if dense:
            out[0] = pool[draw(st.lists(
                st.integers(1, pool.size - 1), min_size=len(exps), max_size=len(exps)
            ))]
        return out

    F, B = block(), block()
    if draw(st.booleans()):  # every key repeats
        F = np.concatenate([F, F[::-1]])
    # two variables: without the one-term coefficients the first stage has
    # several terms, so the key run opens with a sum against a negated term
    coeffs = list(range(len(exps_out)))
    if sys.n == 2 and draw(st.booleans()):
        coeffs = [g for g in coeffs if np.count_nonzero(stc[:, :, g] != ring.zero) > 1]
    return sys, exps, exps_out, pool, moves, stc, F, B, coeffs, dense


@settings(max_examples=200, deadline=None)
@given(product_blocks(), st.data())
def test_staged_filter_matches_full_products(drawn, data):
    sys, exps, exps_out, pool, moves, stc, F, B, coeffs, dense = drawn
    ring = sys.ring
    add = (lambda a, b: ring.add_table[a, b]) if ring.is_table_backed else ring.add
    # the pool is K, the searched coefficients: the sweep reads local indices into it
    terms = term_tables(ring, pool, moves, stc)
    Fk, Bk = np.searchsorted(pool, F), np.searchsorted(pool, B)
    fg = kernels._products(add, Fk, Bk, terms, ring.zero)
    # the full rows are the engine's products ...
    for f in range(F.shape[0]):
        for b in range(B.shape[0]):
            prod = engine_product(_row_poly(sys, exps, F[f]), _row_poly(sys, exps, B[b]))
            assert fg[:, f * B.shape[0] + b].tolist() == [prod.coeff(e) for e in exps_out]
    # ... and the staged filter keeps exactly the all-zero ones (on the
    # drawn coefficients), also when F is swept in two chunks
    terms = [tg if g in coeffs else [] for g, tg in enumerate(terms)]
    plan = kernels._key_zeros(add, Fk, Bk, terms, ring.zero)
    cut = data.draw(st.integers(1, F.shape[0]))
    staged = np.concatenate([
        kernels._zero_pairs(add, Fk[:cut], Bk, plan, 0, ring.zero),
        kernels._zero_pairs(add, Fk[cut:], Bk, plan, cut, ring.zero) + cut * B.shape[0],
    ]) if cut < F.shape[0] else kernels._zero_pairs(add, Fk, Bk, plan, 0, ring.zero)
    assert staged.tolist() == np.flatnonzero((fg[coeffs] == ring.zero).all(axis=0)).tolist()
    if dense and sys.n == 1 and len(exps) == 3:
        assert len(plan[3]) == 3  # c3, c1 and c2 follow the key run


def _cell_array(add, mul, nil, K, moves, F, B, terms, mode, zero):
    """bad[k, i, j]: the (k, M, M) violation array the sweep built before it
    tested zero pairs one row at a time, kept here as the oracle; each cell
    is read off the mode's own condition on pair k's coefficients.  F and B
    hold local indices into K, and so do the move tables."""
    M = F.shape[1]
    bad = np.zeros((F.shape[0], M, M), dtype=bool)
    if mode == 3:
        for tg in terms:
            for i, j in dict.fromkeys(t[:2] for t in tg):
                ts = [t for t in tg if t[:2] == (i, j)]
                bad[:, i, j] |= kernels._coeff(add, lambda T, p, q: T[F[:, p], B[:, q]], ts) != zero
        return bad
    for i in range(1 if mode == 2 else M):
        for j in range(M):
            a, b = K[F[:, i]], B[:, j]
            prod = mul(a, K[b]) if mode == 4 else mul(a, moves[i][2][b])
            bad[:, i, j] = prod != zero if mode in (1, 2) else ~nil(prod)
    return bad


@settings(max_examples=200, deadline=None)
@given(product_blocks(), st.data())
def test_per_row_violation_test_matches_cell_array(drawn, data):
    sys, exps, exps_out, pool, moves, stc, F, B, coeffs, dense = drawn
    ring = sys.ring
    if ring.is_table_backed:
        add, mul = (lambda a, b: ring.add_table[a, b]), (lambda a, b: ring.mul_table[a, b])
        nil = ring.nil_mask().__getitem__
    else:
        add, mul, nil = ring.add, ring.mul, ring.nil_at
    # modes 0-2 read sigma^alpha_i off moves[i]: endomorphism type only
    mode = data.draw(st.sampled_from([0, 1, 2, 3, 4] if sys.endomorphism_type else [3, 4]))
    M, zero = len(exps), ring.zero
    terms = term_tables(ring, pool, moves, stc)
    V = _violation_tables(ring, pool, moves, terms, mode, M)
    Fk, Bk = np.searchsorted(pool, F), np.searchsorted(pool, B)
    ng = Bk.shape[0]
    # the keep path asks about every pair; the zero-pair path about some
    use_keep = data.draw(st.booleans())
    every = np.arange(Fk.shape[0] * ng)
    cand = every if use_keep else every[data.draw(st.lists(
        st.booleans(), min_size=every.size, max_size=every.size
    ))]

    def hits(cand):
        hit = np.zeros(cand.size, dtype=bool)
        for _, mask in kernels._violations(Fk, Bk, cand // ng, cand % ng, V):
            hit |= mask
        return hit

    bad = _cell_array(
        add, mul, nil, pool, moves, Fk[cand // ng], Bk[cand % ng], terms, mode, zero
    )
    hit = hits(cand)
    assert hit.tolist() == bad.any(axis=(1, 2)).tolist()
    for k in np.flatnonzero(hit).tolist():
        f, b = divmod(int(cand[k]), ng)
        cell = kernels._first_cell(Fk, Bk, f, b, V)
        assert cell == divmod(int(np.argmax(bad[k])), M)
    if use_keep:
        # the sweep's keep step on both tests: same selection, same first hit
        fg = kernels._products(add, Fk, Bk, terms, zero)
        parity = data.draw(st.integers(0, 1))
        keep = lambda row: int(row.sum()) % 2 == parity  # noqa: E731
        sel = kernels._kept(fg.T, hit, keep)
        assert sel.tolist() == kernels._kept(fg.T, bad.any(axis=(1, 2)), keep).tolist()
        assert hits(cand[sel]).tolist() == bad[sel].any(axis=(1, 2)).tolist()


def _block_elementary(sys):
    return SearchBudget(
        degree_bound=1, subset=block_elementary_subset(sys.ring), subset_name="block-elementary"
    )


@pytest.mark.parametrize("sysname,mode", [
    ("untwisted(M2(Z2))", 0),
    ("untwisted(M2(Z2))", 1),
    ("untwisted(M2(Z2))", 2),
    ("untwisted(M2(Z2))", 4),  # skew_pi_armendariz: the keep path
    ("swap-ore", 3),
    ("s-negate-b(Z2)", 0),  # the generic path
    ("s-negate-b(Z2)", 1),
    ("untwisted(R3(Z2))", 0),  # degree 2: the (2, 2) block's key run is c4, c0
])
def test_chunk_boundaries_change_nothing(sysname, mode, monkeypatch):
    # chunk budgets of one f row (1), a few rows (64) and the default: the
    # witnesses here sit past the first row of their degree block, and the
    # R3 search holds, so the counters must carry across chunks
    sys = get_system(sysname)
    prop = {**_PROPS, 4: "skew_pi_armendariz"}[mode]
    if sysname == "untwisted(R3(Z2))":
        budget = SearchBudget(degree_bound=2, subset=np.asarray([1, 2, 4, 8]))
        assert kernel_sweep(sys, budget, mode) == (None, 15625, 2849)
    elif sysname.startswith("s-"):
        budget = _block_elementary(sys)
    else:
        budget = SearchBudget(degree_bound=1)
    default = _zero_product_search(sys, budget, prop, "")
    for chunk in (1, 64):
        monkeypatch.setattr(kernels, "_CHUNK_ELEMS", chunk)
        assert _zero_product_search(sys, budget, prop, "") == default


def test_early_exit_tests_about_the_zero_pairs_up_to_its_witness(monkeypatch):
    # chunk budgets double from 2^12 key-run survivors, so a failing search
    # tests at most about twice the zero pairs up to its witness
    tested = []
    zero_pairs = kernels._zero_pairs

    def counted(*args):
        out = zero_pairs(*args)
        tested.append(out.size)
        return out

    monkeypatch.setattr(kernels, "_zero_pairs", counted)
    sys = get_system("s-negate-b(Z3)")
    v = _zero_product_search(sys, _block_elementary(sys), "weak_sigma_skew_armendariz", "")
    selected = v.witness["zero_products"]
    assert v.fails and selected == 29242
    assert sum(tested) <= 2 * selected + (1 << 12), (tested, selected)


# --- derivations: the engine deciders as brute-force oracles ---------------------


def _subset_name(budget):
    return budget.subset_name if budget.subset is not None else "full"


def engine_sigma_delta(sys, budget, instance=""):
    """sigma_delta_skew_armendariz with one engine product per pair and term."""
    ring = sys.ring
    exps = monomials_upto(sys.n, budget.degree_bound)
    name = instance or sys.name
    pairs = zeros = 0
    for f, g in _poly_pairs_engine(sys, exps, budget):
        pairs += 1
        if not engine_product(f, g).is_zero:
            continue
        zeros += 1
        for ea in f.support():
            for eb in g.support():
                term = engine_product(
                    sys.monomial(ea, f.terms[ea]), sys.monomial(eb, g.terms[eb])
                )
                if not term.is_zero:
                    wit = {
                        "f": str(f),
                        "g": str(g),
                        "f_terms": poly_terms_record(f),
                        "g_terms": poly_terms_record(g),
                        "monomial_i": monomial_str(ea),
                        "monomial_j": monomial_str(eb),
                        "exp_i": list(ea),
                        "exp_j": list(eb),
                        "a_i": ring.element_name(f.terms[ea]),
                        "b_j": ring.element_name(g.terms[eb]),
                        "term_product": str(term),
                        "pairs_checked": pairs,
                        "zero_products": zeros,
                        "degree_bound": budget.degree_bound,
                        "subset": _subset_name(budget),
                    }
                    return PropertyVerdict(
                        "sigma_delta_skew_armendariz", name, "fails", witness=wit
                    )
    bound = {
        "degree_bound": budget.degree_bound,
        "subset": _subset_name(budget),
        "pairs_checked": pairs,
        "zero_products": zeros,
    }
    return PropertyVerdict(
        "sigma_delta_skew_armendariz", name, "holds_up_to_bound", bound=bound
    )


def engine_skew_pi(sys, budget, instance=""):
    """skew_pi_armendariz with engine products and powers for every pair;
    the powers of each distinct product are formed once."""
    ring = sys.ring
    nil = nil_mask_cycle_detect(ring)
    exps = monomials_upto(sys.n, budget.degree_bound)
    name = instance or sys.name
    pairs = nilprods = 0
    certified = {}  # fg terms -> poly_is_nilpotent(fg, power_bound)
    for f, g in _poly_pairs_engine(sys, exps, budget):
        pairs += 1
        fg = engine_product(f, g)
        key = frozenset(fg.terms.items())
        if key not in certified:
            certified[key] = poly_is_nilpotent(fg, budget.power_bound)
        ok, k = certified[key]
        if not ok:
            continue
        nilprods += 1
        for ea in f.support():
            for eb in g.support():
                p = int(ring.mul(f.terms[ea], g.terms[eb]))
                if not nil[p]:
                    wit = {
                        "f": str(f),
                        "g": str(g),
                        "f_terms": poly_terms_record(f),
                        "g_terms": poly_terms_record(g),
                        "fg_power_zero_at": k,
                        "monomial_i": monomial_str(ea),
                        "monomial_j": monomial_str(eb),
                        "exp_i": list(ea),
                        "exp_j": list(eb),
                        "a_i": ring.element_name(f.terms[ea]),
                        "b_j": ring.element_name(g.terms[eb]),
                        "product": ring.element_name(p),
                        "pairs_checked": pairs,
                        "nilpotent_products": nilprods,
                        "degree_bound": budget.degree_bound,
                        "power_bound": budget.power_bound,
                    }
                    return PropertyVerdict("skew_pi_armendariz", name, "fails", witness=wit)
    bound = {
        "degree_bound": budget.degree_bound,
        "power_bound": budget.power_bound,
        "subset": _subset_name(budget),
        "pairs_checked": pairs,
        "nilpotent_products": nilprods,
    }
    return PropertyVerdict("skew_pi_armendariz", name, "holds_up_to_bound", bound=bound)


@st.composite
def derivation_systems(draw):
    """A one- or two-variable system, derivation zero or id - sigma, and a budget."""
    kind = draw(st.sampled_from(["Z2xZ2", "M2(Z2)", "Z4", "Z6", "qp"]))
    if kind == "qp":
        ring = get_ring(f"Z{draw(st.integers(2, 6))}")
        units = [q for q in range(1, ring.size) if np.gcd(q, ring.size) == 1]
        ident = identity_map(ring)
        sys = CommutationSystem(
            ring, SigmaFamily(ring, [ident, ident]), c={(0, 1): draw(st.sampled_from(units))}
        )
        degree_bound, max_subset = 1, 2
    else:
        ring = get_ring(kind)
        twist = identity_map(ring)
        if kind == "Z2xZ2":
            twist = get_map(ring, "swap")
        elif kind == "M2(Z2)":
            units = [u for u in range(ring.size) if (ring.mul_table[u] == ring.one).any()]
            twist = _inner_automorphism(ring, draw(st.sampled_from(units)))
        make_delta = draw(st.sampled_from([zero_derivation, id_minus_sigma_derivation]))
        sys = CommutationSystem(
            ring, SigmaFamily(ring, [twist]), delta=[make_delta(ring, twist)]
        )
        degree_bound = draw(st.sampled_from([1, 2]))
        max_subset = 2 if degree_bound == 2 else 4
    subset = draw(
        st.lists(st.integers(1, ring.size - 1), min_size=1, max_size=max_subset, unique=True)
    )
    budget = SearchBudget(
        degree_bound=degree_bound,
        power_bound=draw(st.integers(1, 4)),
        subset=np.asarray(subset),
        subset_name="drawn",
    )
    return sys, budget


@settings(max_examples=60, deadline=None)
@given(derivation_systems())
def test_derivation_deciders_match_engine_oracle(drawn):
    sys, budget = drawn
    assert is_sigma_delta_skew_armendariz(sys, budget) == engine_sigma_delta(sys, budget)
    assert is_skew_pi_armendariz(sys, budget) == engine_skew_pi(sys, budget)


@pytest.mark.parametrize("sysname", ["swap-ore", "quantum-plane(Z3,2)", "untwisted(M2(Z2))"])
def test_derivation_deciders_match_engine_oracle_catalog(sysname):
    sys = get_system(sysname)
    budget = SearchBudget(degree_bound=1)
    assert is_sigma_delta_skew_armendariz(sys, budget) == engine_sigma_delta(sys, budget)
    assert is_skew_pi_armendariz(sys, budget) == engine_skew_pi(sys, budget)


@pytest.mark.parametrize("sysname", ["swap-ore", "s-negate-b(Z2)", "s-negate-b(Z3)"])
def test_move_tables_span_the_searched_coefficients(sysname):
    # the move tables hold one entry per searched coefficient, not one per
    # carrier element, and agree with the engine's x^alpha_i * b
    sys = get_system(sysname)
    ring = sys.ring
    K = np.arange(ring.size - 1)  # all but the last element
    if not ring.is_table_backed:  # delta = id - negate-B: zero over Z2, where -B = B
        delta = id_minus_sigma_derivation(ring, sys.sigma.maps[0])
        sys = CommutationSystem(ring, sys.sigma, delta=[delta])
        K = block_elementary_subset(ring)
    assert sys.endomorphism_type == (sysname == "s-negate-b(Z2)")
    exps = monomials_upto(sys.n, 2)
    for i, k, tab in move_past_tables(sys, exps, K):
        assert tab.shape == (K.size,)
        want = [mono_times_coeff_engine(sys, exps[i], int(b)).coeff(exps[k]) for b in K]
        assert tab.tolist() == want
