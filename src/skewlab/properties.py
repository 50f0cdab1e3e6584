"""Bounded deciders for rigidity and zero-product coefficient properties.

Universal statements over a finite ring and the finite closure of its
twist maps are decided exactly (verdict Holds or Fails with witness).
Statements quantified over all polynomials are searched up to a degree
bound and coefficient subset, giving Fails with witness or
HoldsUpToBound with the bound descriptor.  All six zero-product
properties run on the one pair sweep of kernels.py, which this module
hands every input over the searched coefficients; what each property
asks of a coefficient pair is stated here once (`_violation_tables`,
`_witness`, `recheck`).  Polynomial products, all through the system's
`NormalProducts`, only build the sweep's constants, certify nilpotency
of products for skew_pi_armendariz, and re-check witnesses.  Every Fails
verdict is re-checked by `recheck` from its record fields, by polynomial
arithmetic and direct ring ops, before it is returned; `skewlab explain`
runs the same re-check on stored records.

Canonical orders make every verdict deterministic: elements ascending,
closure maps in word order, polynomial pairs by (deg f, deg g, f index,
g index) over the enumerated coefficient vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import kernels
from .maps import SigmaFamily, identity_map, orbit_closure, sigma_power
from .poly import (
    CommutationSystem,
    NormalProducts,
    SkewPoly,
    monomial_product_table,
    monomial_str,
    monomials_upto,
    move_past_tables,
    term_tables,
)
from .rings import (
    BudgetError,
    FiniteRing,
    SRing,
    SubsetIdeal,
    _first_violation,
    abelian_failure,
    least_nonzero_nilpotent,
    ni_failure,
)

# search defaults; the CLI and the theorem suite read these
DEFAULT_DEGREE_BOUND = 2
DEFAULT_POWER_BOUND = 4
DEFAULT_PAIR_CAP = 50_000_000
# skew_pi_armendariz forms powers of fg up to degree 2 * degree_bound *
# power_bound; NormalProducts recurses about one frame per degree
POWER_DEGREE_CAP = 256


class NotEndomorphismTypeError(Exception):
    """Raised when a decider needs all derivations zero but they are not."""


class ConsistencyError(Exception):
    """A found witness failed its independent re-check (internal bug)."""


@dataclass
class SearchBudget:
    """Bounds for polynomial searches; subset=None sweeps the full carrier."""

    degree_bound: int = DEFAULT_DEGREE_BOUND
    power_bound: int = DEFAULT_POWER_BOUND
    pair_cap: int = DEFAULT_PAIR_CAP
    subset: np.ndarray | None = None
    subset_name: str = "explicit"


@dataclass
class PropertyVerdict:
    property: str
    instance: str
    status: str  # "holds" | "fails" | "holds_up_to_bound"
    witness: dict | None = None
    bound: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"


def family_label(family: SigmaFamily) -> str:
    return "[" + ",".join(m.name for m in family.maps) + "]"


# ---------------------------------------------------------------------------
# ring flags and rigidity (exact deciders)


def reduced_verdict(ring: FiniteRing, instance: str = "") -> PropertyVerdict:
    """0 is the only nilpotent; the witness is the least nonzero nilpotent."""
    first = least_nonzero_nilpotent(ring)
    if first is None:
        return PropertyVerdict("reduced", instance or ring.name, "holds")
    witness = {"element": ring.element_name(first), "nilpotent": True}
    return _failed("reduced", ring, instance or ring.name, witness)


def ni_verdict(ring: FiniteRing, instance: str = "") -> PropertyVerdict:
    """The nilpotents form a two-sided ideal; the witness breaks closure."""
    bad = ni_failure(ring)
    if bad is None:
        return PropertyVerdict("ni", instance or ring.name, "holds")
    kind, x, y = bad
    witness = {"kind": kind, "a": ring.element_name(x), "b": ring.element_name(y)}
    return _failed("ni", ring, instance or ring.name, witness)


def abelian_verdict(ring: FiniteRing, instance: str = "") -> PropertyVerdict:
    """Every idempotent is central; the witness is (e, r) with er != re."""
    bad = abelian_failure(ring)
    if bad is None:
        return PropertyVerdict("abelian", instance or ring.name, "holds")
    e, r = bad
    witness = {"idempotent": ring.element_name(e), "r": ring.element_name(r)}
    return _failed("abelian", ring, instance or ring.name, witness)


def _rigidity(
    prop: str, ring: FiniteRing, family: SigmaFamily, instance: str,
    ideal: SubsetIdeal | None = None,
) -> PropertyVerdict:
    """The rigidity deciders: least bad a, then closure order.

    sigma_rigid asks a sigma^theta(a) = 0 to force a = 0; the weak
    properties ask a sigma^theta(a) nilpotent exactly when a is, over the
    carrier or over the elements of `ideal`.  One sweep of the mask "a
    sigma^theta(a) is bad" over (element, map) finds the witness as its
    row-major first failure.  When an S ring's closure is block-diagonal,
    (A|B|C) -> (phi A | psi B | chi C), a sigma(a) has diagonal blocks
    A phi(A) and C chi(C), so weak badness depends on (A, C) alone and
    the slice M x 0 x M holds the least bad element: it is swept in rows
    A of decoded (A, C, map) grids, and only the answer is encoded.
    sigma_rigid needs no slice: every (0|B|0) with B != 0 is bad, so its
    carrier sweep stops by index |M|.
    """
    maps = orbit_closure(family)
    if prop == "weak_sigma_rigid" and isinstance(ring, SRing) and all(m.blocks is not None for m in maps):
        M = np.arange(ring.bsize)[None, :]

        def bad(A):  # over (A, C, map): the element (A|0|C)
            x = (A[:, None], 0, M)
            prods = [ring.mul_blocks(x, m.on_blocks(x)) for m in maps]
            return np.stack([ring.nil_blocks(p) for p in prods], -1) != ring.nil_blocks(x)[..., None]

        hit = _first_violation([(prop, bad)], ring.bsize, ring.bsize * len(maps))
        best = None if hit is None else (ring.encode(hit[1][0], 0, hit[1][1]), hit[1][2])
    else:
        at = (lambda i: i) if ideal is None else np.asarray(ideal.elements).take

        def bad(i):  # over (element, map)
            x = at(i)
            prods = np.stack([ring.mul(x, m(x)) for m in maps], -1)
            if prop == "sigma_rigid":
                return (prods == ring.zero) & (x != ring.zero)[:, None]
            return ring.nil_at(prods) != ring.nil_at(x)[:, None]

        n = ring.size if ideal is None else len(ideal.elements)
        hit = _first_violation([(prop, bad)], n, len(maps))
        best = None if hit is None else (int(at(hit[1][0])), hit[1][1])
    label = (ideal.label or "ideal") if ideal is not None else None
    name = instance or f"{ring.name}/{family_label(family)}" + (f"/{label}" if label else "")
    if best is None:
        bound = None if ideal is None else {"ideal": label, "ideal_size": len(ideal.elements)}
        return PropertyVerdict(prop, name, "holds", bound=bound)
    a, mi = best
    m = maps[mi]
    prod = int(ring.mul(a, m(a)))
    el = ring.element_name
    if prop == "sigma_rigid":
        witness = {"element": el(a), "map": m.name, "twisted": el(int(m(a))), "product": el(prod)}
    else:
        witness = {
            "element": el(a),
            "element_nilpotent": ring.is_nilpotent(a),
            "map": m.name,
            "product": el(prod),
            "product_nilpotent": ring.is_nilpotent(prod),
        }
    if ideal is None:
        witness["maps_swept"] = len(maps)
    else:
        witness = {"ideal": label, **witness}
    return _failed(prop, family, name, witness)


def is_sigma_rigid(ring: FiniteRing, family: SigmaFamily, instance: str = "") -> PropertyVerdict:
    """r sigma^theta(r) = 0 forces r = 0, for every iterated twist."""
    return _rigidity("sigma_rigid", ring, family, instance)


def is_weak_sigma_rigid(ring: FiniteRing, family: SigmaFamily, instance: str = "") -> PropertyVerdict:
    """a sigma^theta(a) nilpotent exactly when a is, for every iterated twist."""
    return _rigidity("weak_sigma_rigid", ring, family, instance)


def is_weak_sigma_rigid_ideal(
    ring: FiniteRing,
    family: SigmaFamily,
    ideal: SubsetIdeal,
    instance: str = "",
) -> PropertyVerdict:
    """The weak rigidity biconditional restricted to elements of an ideal."""
    return _rigidity("weak_sigma_rigid_ideal", ring, family, instance, ideal)


# ---------------------------------------------------------------------------
# polynomial searches (bounded)


def _digit_rows(P: int, k: int, M: int) -> np.ndarray:
    """Row r = base-k digits of r, most significant first; shape (P, M),
    uint8 when k <= 256, else int32."""
    out = np.empty((P, M), dtype=np.uint8 if k <= 256 else np.int32)
    r = np.arange(P)
    for m in range(M - 1, -1, -1):
        out[:, m] = r % k
        r = r // k
    return out


def _coeff_subset(ring: FiniteRing, budget: SearchBudget, M: int) -> np.ndarray:
    """The searched coefficients, ascending: zero, index 0, always first.

    Raises the pair_cap BudgetError for polynomials with M coefficients
    before the full carrier is listed.
    """
    if budget.subset is None:
        _check_pair_cap(ring.size, M, budget.pair_cap)
        return np.arange(ring.size, dtype=np.int64)
    subset = kernels.dedupe(np.append(np.asarray(budget.subset, dtype=np.int64), ring.zero))[0]
    _check_pair_cap(subset.size, M, budget.pair_cap)
    return subset


def _check_pair_cap(k: int, M: int, cap: int) -> None:
    """Raise the pair_cap BudgetError before any of the k**M polynomials is built."""
    if k > 1 and 2 * M * (k.bit_length() - 1) > max(cap.bit_length(), 4096):
        pairs = f"{k}^{2 * M}"  # past every cap: never formed
    else:
        pairs = k ** (2 * M)
        if pairs <= cap:
            return
    raise BudgetError(
        f"{pairs} polynomial pairs exceed pair_cap={cap}; "
        "lower the degree bound or pass a coefficient subset"
    )


def _enumerate_polys(exps: list[tuple], k: int):
    """Every row of local indices into k searched coefficients (local index
    0 is zero), as `_digit_rows`, stably sorted into degree blocks."""
    M = len(exps)
    rows = _digit_rows(k**M, k, M)
    mdeg = np.array([sum(e) for e in exps], dtype=np.int64)
    rdeg = ((rows != 0) * mdeg[None, :]).max(axis=1)
    order = np.argsort(rdeg, kind="stable")
    polys = rows[order]
    sdeg = rdeg[order]
    dmax = int(mdeg.max()) if M else 0
    deg_starts = np.searchsorted(sdeg, np.arange(dmax + 2)).astype(np.int64)
    return polys, deg_starts


def _row_poly(sys: CommutationSystem, exps: list[tuple], row: np.ndarray) -> SkewPoly:
    return SkewPoly(sys, {e: int(c) for e, c in zip(exps, row)})


def poly_terms_record(f: SkewPoly) -> list[dict]:
    """JSON-friendly term list (ascending monomial order) for witnesses."""
    ring = f.system.ring
    return [
        {"exp": list(e), "coeff": ring.element_name(f.terms[e])} for e in f.support()
    ]


# what each coefficient pair (i, j) of a selected pair must meet, per
# property: 0 = a_i sigma^(alpha_i)(b_j) nilpotent, 1 = it is zero, 2 = it
# is zero for i = 0, 3 = (a_i x^alpha_i)(b_j x^alpha_j) = 0, 4 = a_i b_j
# nilpotent (with fg nilpotent, not zero, selecting the pair); modes 0-2
# need all derivations zero, 3 and 4 take any system
_MODE_BY_PROP = {
    "weak_sigma_skew_armendariz": 0,
    "sigma_skew_armendariz": 1,
    "skew_armendariz": 2,
    "weak_armendariz": 0,
    "sigma_delta_skew_armendariz": 3,
    "skew_pi_armendariz": 4,
}


def nilpotent_within(
    products: NormalProducts,
    terms: dict,
    power_bound: int,
    cap: int | None = None,
    start: int = 0,
) -> tuple[bool, int]:
    """(True, k) for the least k <= power_bound with f^k = 0, else (False, 0),
    for the term dict f; a False only means no zero power was seen.

    Rewriting lowers the degree of all but the product of the leading
    terms (graded lex), so while the powers of f's leading term keep a
    nonzero coefficient they are the leading terms of the powers of f;
    if they do up to the bound, no full power is formed.  With a cap,
    raises BudgetError once `products` has multiplied more than `cap`
    term pairs since its `term_products` read `start`.
    """
    if not terms:
        return True, 1
    lead = max(terms, key=lambda e: (sum(e), e))
    top = q = {lead: terms[lead]}
    for k in range(2, power_bound + 1):
        e = tuple(k * m for m in lead)
        q = {e: products.product(q, top).get(e, products.zero)}
        if q[e] == products.zero:
            break
    else:
        return False, 0
    p = terms
    for k in range(1, power_bound + 1):
        if not p:
            return True, k
        if k < power_bound:
            if cap is not None and products.term_products - start > cap:
                raise BudgetError(
                    f"nilpotency certificates multiplied more than pair_cap={cap} "
                    "term pairs; lower the power bound or the degree bound"
                )
            p = products.product(p, terms)
    return False, 0


def _nilpotent_filter(sys: CommutationSystem, exps_out: list[tuple], budget: SearchBudget):
    """keep(row) for the sweep: fg nilpotent within the bound, memoized on the row.

    The pair cap counts the term pairs of this search's certificates only,
    not what other work multiplied through the system's products before.
    """
    products = sys.products
    start = products.term_products
    certified: dict[bytes, bool] = {}

    def keep(row: np.ndarray) -> bool:
        key = row.tobytes()
        if key not in certified:
            terms = {e: int(c) for e, c in zip(exps_out, row) if c != sys.ring.zero}
            certified[key] = nilpotent_within(
                products, terms, budget.power_bound, budget.pair_cap, start
            )[0]
        return certified[key]

    return keep


def _zero_product_search(
    sys: CommutationSystem, budget: SearchBudget | None, prop: str, instance: str
) -> PropertyVerdict:
    """Shared harness: find a selected fg whose coefficient pairs break `prop`.

    Selected means fg = 0, or for skew_pi_armendariz fg nilpotent within
    the power bound.  A witness is re-checked by polynomial arithmetic and
    direct ring ops before it is returned.
    """
    ring = sys.ring
    budget = budget or SearchBudget()
    mode = _MODE_BY_PROP[prop]
    if mode < 3 and not sys.endomorphism_type:
        raise NotEndomorphismTypeError(
            f"{prop} needs an endomorphism-type extension (all derivations zero)"
        )
    D = budget.degree_bound
    coeffs = _coeff_subset(ring, budget, comb(sys.n + D, sys.n))
    if mode == 4 and 2 * D * budget.power_bound > POWER_DEGREE_CAP:
        raise BudgetError(
            f"power_bound={budget.power_bound} forms powers of degree "
            f"{2 * D * budget.power_bound}, past {POWER_DEGREE_CAP}; lower the power bound"
        )
    exps = monomials_upto(sys.n, D)
    exps_out = monomials_upto(sys.n, 2 * D)
    moves = move_past_tables(sys, exps, coeffs)
    terms = term_tables(ring, coeffs, moves, monomial_product_table(sys, exps, exps_out))
    V = _violation_tables(ring, coeffs, moves, terms, mode, len(exps))
    polys, deg_starts = _enumerate_polys(exps, coeffs.size)
    keep = _nilpotent_filter(sys, exps_out, budget) if mode == 4 else None
    if ring.is_table_backed:
        witness, pairs, selected = kernels.search_zero_products_table(
            polys, deg_starts, ring.add_table, terms, V, ring.zero, keep
        )
    else:
        witness, pairs, selected = kernels.search_zero_products_generic(
            ring, polys, deg_starts, terms, V, keep
        )
    name = instance or f"{sys.name}"
    subset = budget.subset_name if budget.subset is not None else "full"
    counters = {
        "pairs_checked": pairs,
        ("nilpotent_products" if mode == 4 else "zero_products"): selected,
    }
    if witness is not None:
        fi, gi, *cell = witness
        rows = coeffs[polys[[fi, gi]]]  # only the witness rows, as elements
        wit = _witness(sys, exps, rows, cell, prop, budget.power_bound)
        wit.update(counters, degree_bound=D)
        wit.update({"power_bound": budget.power_bound} if mode == 4 else {"subset": subset})
        return _failed(prop, sys, name, wit)
    bound = {"degree_bound": D}
    if mode == 4:
        bound["power_bound"] = budget.power_bound
    bound["subset"] = subset
    if mode < 3:
        bound.update(monomials=len(exps), polys=int(polys.shape[0]))
    bound.update(counters)
    return PropertyVerdict(prop, name, "holds_up_to_bound", bound=bound)


def _violation_tables(ring: FiniteRing, K: np.ndarray, moves, terms, mode: int, M: int) -> list:
    """The pair sweep's [((i, j), V)], row-major: V[a, b] says the coefficient
    pair (K[a], K[b]) at cell (i, j) breaks `mode`.

    Mode 3 ORs over the coefficients of fg whether the cell's terms
    (`term_tables`) sum to nonzero; modes 0-2 read sigma^alpha_i at K off
    moves[i] = (i, i, table), which is what endomorphism type leaves.
    """
    if mode == 3:
        cells = {}
        for tg in terms:
            sums = {}
            for i, j, T, _ in tg:
                sums[i, j] = ring.add(sums[i, j], T) if (i, j) in sums else T
            for cell, total in sums.items():
                cells[cell] = cells.get(cell, False) | (total != ring.zero)
        return sorted(cells.items())
    tabs = [K] if mode == 4 else [tab for *_, tab in moves[: 1 if mode == 2 else M]]
    prods = np.stack([ring.mul(K[:, None], t[None, :]) for t in tabs])
    bad = ~ring.nil_at(prods) if mode in (0, 4) else prods != ring.zero
    rows = [bad[0]] * M if mode == 4 else bad
    return [((i, j), v) for i, v in enumerate(rows) for j in range(M)]


def _witness(sys: CommutationSystem, exps, rows, cell, prop: str, power_bound: int) -> dict:
    """Witness record of a sweep hit, from the coefficient rows of f and g
    and the cell (i, j); `recheck` then verifies it from these fields."""
    ring = sys.ring
    mode = _MODE_BY_PROP[prop]
    i, j = cell
    f = _row_poly(sys, exps, rows[0])
    g = _row_poly(sys, exps, rows[1])
    ai, bj = int(rows[0][i]), int(rows[1][j])
    wit = {
        "f": str(f),
        "g": str(g),
        "f_terms": poly_terms_record(f),
        "g_terms": poly_terms_record(g),
    }
    if mode == 4:
        wit["fg_power_zero_at"] = nilpotent_within(sys.products, (f * g).terms, power_bound)[1]
    wit.update(
        monomial_i=monomial_str(exps[i]),
        monomial_j=monomial_str(exps[j]),
        exp_i=list(exps[i]),
        exp_j=list(exps[j]),
        a_i=ring.element_name(ai),
        b_j=ring.element_name(bj),
    )
    if mode == 3:
        wit["term_product"] = str(sys.monomial(exps[i], ai) * sys.monomial(exps[j], bj))
    elif mode == 4:
        wit["product"] = ring.element_name(int(ring.mul(ai, bj)))
    else:
        tw = sigma_power(sys.sigma, exps[i])
        p = int(ring.mul(ai, tw(bj)))
        wit.update(twist=tw.name, product=ring.element_name(p), product_nilpotent=ring.is_nilpotent(p))
    return wit


def is_weak_sigma_skew_armendariz(
    sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """fg = 0 must force every a_i sigma^(alpha_i)(b_j) nilpotent."""
    return _zero_product_search(sys, budget, "weak_sigma_skew_armendariz", instance)


def is_sigma_skew_armendariz(
    sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """fg = 0 must force every a_i sigma^(alpha_i)(b_j) = 0."""
    return _zero_product_search(sys, budget, "sigma_skew_armendariz", instance)


def is_skew_armendariz(
    sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """fg = 0 must force a_0 b_j = 0 for every j."""
    return _zero_product_search(sys, budget, "skew_armendariz", instance)


def is_weak_armendariz(
    ring: FiniteRing, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """Untwisted one-variable case: fg = 0 forces all a_i b_j nilpotent."""
    return _zero_product_search(untwisted(ring), budget, "weak_armendariz", instance or ring.name)


def is_sigma_delta_skew_armendariz(
    sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """fg = 0 must force every term product (a_i x^a_i)(b_j x^b_j) = 0.

    Derivations are allowed: the sweep moves coefficients past monomials
    with move-past constants built from the system's normal products.
    """
    return _zero_product_search(sys, budget, "sigma_delta_skew_armendariz", instance)


def is_skew_pi_armendariz(
    sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """fg nilpotent in the extension must force every a_i b_j nilpotent in R.

    Nilpotency of fg is certified by computing powers up to power_bound,
    once per distinct product and only up to the witness pair; pairs
    whose product never reaches zero within the bound impose no
    constraint and are skipped.  Derivations are allowed.
    """
    return _zero_product_search(sys, budget, "skew_pi_armendariz", instance)


# ---------------------------------------------------------------------------
# witness re-check (every decider's fails path, and `skewlab explain`)

FLAGS = ("reduced", "ni", "abelian")
RIGIDITY = ("sigma_rigid", "weak_sigma_rigid", "weak_sigma_rigid_ideal")


def untwisted(ring: FiniteRing) -> CommutationSystem:
    """R[x] with the identity twist: the extension weak_armendariz searches."""
    return CommutationSystem(
        ring, SigmaFamily(ring, [identity_map(ring)]), name=f"untwisted({ring.name})"
    )


def _failed(prop: str, inst, name: str, witness: dict) -> PropertyVerdict:
    ok, msg = recheck(prop, inst, witness)
    if not ok:
        raise ConsistencyError(f"{prop} witness failed its re-check: {msg}")
    return PropertyVerdict(prop, name, "fails", witness=witness)


def _poly(sys: CommutationSystem, terms: list[dict]) -> SkewPoly:
    return SkewPoly(sys, {tuple(t["exp"]): sys.ring.element_index(t["coeff"]) for t in terms})


def recheck(prop: str, inst, witness: dict) -> tuple[bool, str]:
    """(ok, explanation) for a `fails` witness of `prop`, from its record fields.

    `inst` is the instance the decider searched or an extension built
    over it: the flags read its ring, the rigidity properties its twist
    family (whose orbit closure names the map), weak_armendariz the
    untwisted extension of its ring, the other searches the extension.
    """
    ring = inst if isinstance(inst, FiniteRing) else inst.ring
    el, nil = ring.element_index, ring.is_nilpotent
    w = witness
    if prop == "reduced":
        a = el(w["element"])
        ok = a != ring.zero and nil(a)
        return ok, f"{w['element']} is a nonzero nilpotent: {ok}"
    if prop == "ni":
        a, b = el(w["a"]), el(w["b"])
        if w["kind"] == "add":
            ok = nil(a) and nil(b) and not nil(int(ring.add(a, b)))
            return ok, f"nil + nil escapes the nil set: {ok}"
        ok = (nil(a) or nil(b)) and not nil(int(ring.mul(a, b)))
        return ok, f"nilpotent absorbs under product fails: {ok}"
    if prop == "abelian":
        e, r = el(w["idempotent"]), el(w["r"])
        ok = int(ring.mul(e, e)) == e and int(ring.mul(e, r)) != int(ring.mul(r, e))
        return ok, f"idempotent {w['idempotent']} fails to commute with {w['r']}: {ok}"
    if prop in RIGIDITY:
        family = inst.sigma if isinstance(inst, CommutationSystem) else inst
        a = el(w["element"])
        prods = [int(ring.mul(a, m(a))) for m in orbit_closure(family) if m.name == w["map"]]
        if prop == "sigma_rigid":
            ok = a != ring.zero and ring.zero in prods
            return ok, f"a != 0 with a*{w['map']}(a) = 0: {ok}"
        ok = any(nil(p) != nil(a) for p in prods)
        return ok, f"nilpotency of a and a*{w['map']}(a) disagree: {ok}"
    mode = _MODE_BY_PROP[prop]
    sys = untwisted(ring) if prop == "weak_armendariz" else inst
    f, g = _poly(sys, w["f_terms"]), _poly(sys, w["g_terms"])
    ai, bj = el(w["a_i"]), el(w["b_j"])
    if mode == 4:
        nil_fg, k = nilpotent_within(sys.products, (f * g).terms, int(w["fg_power_zero_at"]))
        ok = nil_fg and not nil(int(ring.mul(ai, bj)))
        return ok, f"(fg)^{k} = 0 with a_i*b_j non-nilpotent: {ok}"
    if not (f * g).is_zero:
        return False, "stored f, g do not multiply to zero"
    if mode == 3:
        term = sys.monomial(tuple(w["exp_i"]), ai) * sys.monomial(tuple(w["exp_j"]), bj)
        ok = not term.is_zero
        return ok, f"fg = 0 but the term product is nonzero: {ok}"
    p = int(ring.mul(ai, sigma_power(sys.sigma, tuple(w["exp_i"]))(bj)))
    if mode == 0:
        ok = not nil(p)
        return ok, f"fg = 0 but a_i*sigma^(alpha_i)(b_j) is not nilpotent: {ok}"
    if mode == 1:
        ok = p != ring.zero
        return ok, f"fg = 0 but a_i*sigma^(alpha_i)(b_j) != 0: {ok}"
    ok = p != ring.zero and not any(w["exp_i"])
    return ok, f"fg = 0 but a_0*b_j != 0: {ok}"


# check name -> decider; `decide` is its one reader
DECIDERS = {
    "reduced": reduced_verdict,
    "ni": ni_verdict,
    "abelian": abelian_verdict,
    "sigma_rigid": is_sigma_rigid,
    "weak_sigma_rigid": is_weak_sigma_rigid,
    "weak_armendariz": is_weak_armendariz,
    "weak_sigma_skew_armendariz": is_weak_sigma_skew_armendariz,
    "sigma_skew_armendariz": is_sigma_skew_armendariz,
    "skew_armendariz": is_skew_armendariz,
    "sigma_delta_skew_armendariz": is_sigma_delta_skew_armendariz,
    "skew_pi_armendariz": is_skew_pi_armendariz,
}


def decide(
    name: str, sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """The verdict of check `name` on the extension `sys`.

    Each decider takes what its name asks for: the ring for FLAGS, the
    ring and twist family for RIGIDITY, the ring and the budget for
    weak_armendariz, the extension and the budget for the other searches.
    """
    decider = DECIDERS[name]
    if name in FLAGS:
        return decider(sys.ring, instance=instance)
    if name in RIGIDITY:
        return decider(sys.ring, sys.sigma, instance=instance)
    return decider(sys.ring if name == "weak_armendariz" else sys, budget, instance=instance)


def budget_fields(name: str) -> tuple[str, ...]:
    """The SearchBudget fields that check `name` reads; FLAGS and RIGIDITY read none."""
    if name in FLAGS or name in RIGIDITY:
        return ()
    power = ("power_bound",) if name == "skew_pi_armendariz" else ()
    return ("degree_bound", "pair_cap", "subset") + power


# ---------------------------------------------------------------------------
# coefficient subsets


def block_elementary_subset(ring: SRing) -> np.ndarray:
    """Zero plus every single-block scalar matrix unit of an S ring.

    One nonzero base scalar times one of the four matrix units, placed
    in one of the three blocks: with base Z3 this is 25 elements.  The
    subset is closed enough to exhibit the documented zero-product
    failures while keeping searches small.
    """
    if not isinstance(ring, SRing):
        raise TypeError("block_elementary_subset expects an S ring")
    base_size = round(ring.bsize ** 0.25)
    # s * E_ij sits at s * base^(3 - k), k = 2i + j, in the row-major packing
    units = np.outer(np.arange(1, base_size), base_size ** np.arange(4)).ravel()
    z = [0]  # the zero block
    slots = [ring.triples(units, z, z), ring.triples(z, units, z), ring.triples(z, z, units)]
    return kernels.dedupe(np.concatenate([[ring.zero], *slots]))[0]


def subset_fields(ring: FiniteRing, name: str | None = None) -> dict:
    """The subset and subset_name of a SearchBudget on `ring` for subset `name`.

    With no name, a search over an S ring takes the block-elementary
    subset: the full carrier is far beyond any pair budget.
    """
    if name is None:
        name = "block-elementary" if isinstance(ring, SRing) else "full"
    subset = None if name == "full" else block_elementary_subset(ring)
    return {"subset": subset, "subset_name": name}
