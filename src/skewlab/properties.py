"""Bounded deciders for rigidity and zero-product coefficient properties.

Universal statements over a finite ring and the finite closure of its
twist maps are decided exactly (verdict Holds or Fails with witness).
Statements quantified over all polynomials are searched up to a degree
bound and coefficient subset, giving Fails with witness or
HoldsUpToBound with the bound descriptor.  Every Fails verdict is
re-checked through an independent route (engine arithmetic or direct
ring ops) before it is returned.

Canonical orders make every verdict deterministic: elements ascending,
closure maps in word order, polynomial pairs by (deg f, deg g, f index,
g index) over the enumerated coefficient vectors.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .maps import RingMap, SigmaFamily, orbit_closure, sigma_power
from .poly import (
    CommutationSystem,
    SkewPoly,
    mono_times_coeff_engine,
    monomial_product_table,
    monomials_upto,
    sigma_power_tables,
)
from .rings import BudgetError, FiniteRing, SRing, SubsetIdeal, _CHUNK

DEFAULT_PAIR_CAP = 50_000_000


class NotEndomorphismTypeError(Exception):
    """Raised when a decider needs all derivations zero but they are not."""


class ConsistencyError(Exception):
    """A found witness failed its independent re-check (internal bug)."""


@dataclass
class SearchBudget:
    """Bounds for polynomial searches; subset=None sweeps the full carrier."""

    degree_bound: int = 2
    power_bound: int = 4
    pair_cap: int = DEFAULT_PAIR_CAP
    subset: np.ndarray | None = None
    subset_name: str = "full"


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

    def to_record(self) -> dict:
        return {
            "record": "verdict",
            "property": self.property,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
            "bound": self.bound,
        }


def family_label(family: SigmaFamily) -> str:
    return "[" + ",".join(m.name for m in family.maps) + "]"


# ---------------------------------------------------------------------------
# rigidity (exact deciders)


def _first_bad_element(ring: FiniteRing, maps: list[RingMap], bad_for_map) -> tuple | None:
    """Least bad element over all maps, tie-broken by closure order."""
    best = None
    for mi, m in enumerate(maps):
        for lo in range(0, ring.size, _CHUNK):
            x = np.arange(lo, min(lo + _CHUNK, ring.size))
            bad = bad_for_map(m, x)
            if bad.any():
                a = int(x[int(np.argmax(bad))])
                if best is None or a < best[0]:
                    best = (a, mi)
                break
    return best


def is_sigma_rigid(ring: FiniteRing, family: SigmaFamily, instance: str = "") -> PropertyVerdict:
    """r sigma^theta(r) = 0 forces r = 0, for every iterated twist."""
    maps = orbit_closure(family)
    zero = ring.zero

    def bad_for_map(m, x):
        return (np.asarray(ring.mul(x, m.table[x])) == zero) & (x != zero)

    best = _first_bad_element(ring, maps, bad_for_map)
    name = instance or f"{ring.name}/{family_label(family)}"
    if best is None:
        return PropertyVerdict("sigma_rigid", name, "holds")
    a, mi = best
    m = maps[mi]
    prod = int(ring.mul(a, m(a)))
    if not (prod == zero and a != zero):
        raise ConsistencyError("sigma_rigid witness failed re-check")
    witness = {
        "element": ring.element_name(a),
        "map": m.name,
        "twisted": ring.element_name(int(m(a))),
        "product": ring.element_name(prod),
        "maps_swept": len(maps),
    }
    return PropertyVerdict("sigma_rigid", name, "fails", witness=witness)


def is_weak_sigma_rigid(ring: FiniteRing, family: SigmaFamily, instance: str = "") -> PropertyVerdict:
    """a sigma^theta(a) nilpotent exactly when a is, for every iterated twist."""
    maps = orbit_closure(family)
    nil = ring.nil_mask()

    def bad_for_map(m, x):
        prod = np.asarray(ring.mul(x, m.table[x]))
        return nil[prod] != nil[x]

    best = _first_bad_element(ring, maps, bad_for_map)
    name = instance or f"{ring.name}/{family_label(family)}"
    if best is None:
        return PropertyVerdict("weak_sigma_rigid", name, "holds")
    a, mi = best
    m = maps[mi]
    prod = int(ring.mul(a, m(a)))
    if bool(nil[prod]) == bool(nil[a]):
        raise ConsistencyError("weak_sigma_rigid witness failed re-check")
    witness = {
        "element": ring.element_name(a),
        "element_nilpotent": bool(nil[a]),
        "map": m.name,
        "product": ring.element_name(prod),
        "product_nilpotent": bool(nil[prod]),
        "maps_swept": len(maps),
    }
    return PropertyVerdict("weak_sigma_rigid", name, "fails", witness=witness)


def is_weak_sigma_rigid_ideal(
    ring: FiniteRing,
    family: SigmaFamily,
    ideal: SubsetIdeal,
    instance: str = "",
) -> PropertyVerdict:
    """The weak rigidity biconditional restricted to elements of an ideal."""
    maps = orbit_closure(family)
    nil = ring.nil_mask()
    elems = np.asarray(ideal.elements, dtype=np.int64)
    best = None
    for mi, m in enumerate(maps):
        prod = np.asarray(ring.mul(elems, m.table[elems]))
        bad = nil[prod] != nil[elems]
        if bad.any():
            a = int(elems[int(np.argmax(bad))])
            if best is None or a < best[0]:
                best = (a, mi)
    label = ideal.label or "ideal"
    name = instance or f"{ring.name}/{family_label(family)}/{label}"
    if best is None:
        return PropertyVerdict(
            "weak_sigma_rigid_ideal",
            name,
            "holds",
            bound={"ideal": label, "ideal_size": len(ideal.elements)},
        )
    a, mi = best
    m = maps[mi]
    prod = int(ring.mul(a, m(a)))
    if bool(nil[prod]) == bool(nil[a]):
        raise ConsistencyError("weak_sigma_rigid_ideal witness failed re-check")
    witness = {
        "ideal": label,
        "element": ring.element_name(a),
        "element_nilpotent": bool(nil[a]),
        "map": m.name,
        "product": ring.element_name(prod),
        "product_nilpotent": bool(nil[prod]),
    }
    return PropertyVerdict("weak_sigma_rigid_ideal", name, "fails", witness=witness)


# ---------------------------------------------------------------------------
# polynomial searches (bounded)


def _digit_rows(P: int, k: int, M: int) -> np.ndarray:
    """Row r = base-k digits of r, most significant first; shape (P, M)."""
    out = np.empty((P, M), dtype=np.int64)
    r = np.arange(P)
    for m in range(M - 1, -1, -1):
        out[:, m] = r % k
        r = r // k
    return out


def _enumerate_polys(ring: FiniteRing, exps: list[tuple], budget: SearchBudget):
    """Coefficient rows over the subset, stably sorted into degree blocks."""
    if budget.subset is None:
        subset = np.arange(ring.size, dtype=np.int64)
    else:
        subset = np.unique(np.asarray(budget.subset, dtype=np.int64))
        if ring.zero not in subset:
            subset = np.unique(np.concatenate([[ring.zero], subset]))
    k = int(subset.size)
    M = len(exps)
    P = k**M
    if P * P > budget.pair_cap:
        raise BudgetError(
            f"{P * P} polynomial pairs exceed pair_cap={budget.pair_cap}; "
            "lower the degree bound or pass a coefficient subset"
        )
    rows = subset[_digit_rows(P, k, M)]
    mdeg = np.array([sum(e) for e in exps], dtype=np.int64)
    rdeg = ((rows != ring.zero) * mdeg[None, :]).max(axis=1)
    order = np.argsort(rdeg, kind="stable")
    polys = np.ascontiguousarray(rows[order], dtype=np.int32)
    sdeg = rdeg[order]
    dmax = int(mdeg.max()) if M else 0
    deg_starts = np.searchsorted(sdeg, np.arange(dmax + 2)).astype(np.int64)
    return polys, deg_starts


def _row_poly(sys: CommutationSystem, exps: list[tuple], row: np.ndarray) -> SkewPoly:
    return SkewPoly(sys, {e: int(c) for e, c in zip(exps, row)})


def _mono_str(exp: tuple) -> str:
    parts = [
        f"x{i + 1}" + (f"^{m}" if m > 1 else "") for i, m in enumerate(exp) if m > 0
    ]
    return "*".join(parts) if parts else "1"


def poly_terms_record(f: SkewPoly) -> list[dict]:
    """JSON-friendly term list (ascending monomial order) for witnesses."""
    ring = f.system.ring
    key = f.system.order.key
    return [
        {"exp": list(e), "coeff": ring.element_name(c)}
        for e, c in sorted(f.terms.items(), key=lambda kv: key(kv[0]))
    ]


_MODE_BY_PROP = {
    "weak_sigma_skew_armendariz": 0,
    "sigma_skew_armendariz": 1,
    "skew_armendariz": 2,
    "weak_armendariz": 0,
}


def _zero_product_search(
    sys: CommutationSystem,
    budget: SearchBudget,
    prop: str,
    instance: str,
) -> PropertyVerdict:
    """Shared harness: find fg = 0 whose coefficient products break `prop`."""
    ring = sys.ring
    if not sys.endomorphism_type:
        raise NotEndomorphismTypeError(
            f"{prop} needs an endomorphism-type extension (all derivations zero)"
        )
    mode = _MODE_BY_PROP[prop]
    D = budget.degree_bound
    exps = monomials_upto(sys.n, D, sys.order)
    exps_out = monomials_upto(sys.n, 2 * D, sys.order)
    stc = monomial_product_table(sys, exps, exps_out)
    sig = sigma_power_tables(sys.sigma, exps)
    polys, deg_starts = _enumerate_polys(ring, exps, budget)
    if ring.is_table_backed:
        witness, pairs, zeros = kernels.search_zero_products_table(
            polys,
            deg_starts,
            ring.add_table,
            ring.mul_table,
            sig,
            stc,
            ring.nil_mask(),
            ring.zero,
            mode,
        )
    else:
        witness, pairs, zeros = kernels.search_zero_products_generic(
            ring, polys, deg_starts, sig, stc, mode
        )
    name = instance or f"{sys.name}"
    bound = {
        "degree_bound": D,
        "subset": budget.subset_name if budget.subset is not None else "full",
        "monomials": len(exps),
        "polys": int(polys.shape[0]),
        "pairs_checked": pairs,
        "zero_products": zeros,
    }
    if witness is None:
        return PropertyVerdict(prop, name, "holds_up_to_bound", bound=bound)
    fi, gi, i, j = witness
    f = _row_poly(sys, exps, polys[fi])
    g = _row_poly(sys, exps, polys[gi])
    ai = int(polys[fi][i])
    bj = int(polys[gi][j])
    tw = sigma_power(sys.sigma, exps[i])
    p = int(ring.mul(ai, tw(bj)))
    # independent re-check through the engine and direct ring ops
    if not (f * g).is_zero:
        raise ConsistencyError(f"{prop} witness product fg is not zero")
    nilp = bool(ring.nil_mask()[p])
    if mode == 0 and nilp:
        raise ConsistencyError(f"{prop} witness product is nilpotent after all")
    if mode in (1, 2) and p == ring.zero:
        raise ConsistencyError(f"{prop} witness product is zero after all")
    wit = {
        "f": str(f),
        "g": str(g),
        "f_terms": poly_terms_record(f),
        "g_terms": poly_terms_record(g),
        "monomial_i": _mono_str(exps[i]),
        "monomial_j": _mono_str(exps[j]),
        "exp_i": list(exps[i]),
        "exp_j": list(exps[j]),
        "a_i": ring.element_name(ai),
        "b_j": ring.element_name(bj),
        "twist": tw.name,
        "product": ring.element_name(p),
        "product_nilpotent": nilp,
        "pairs_checked": pairs,
        "zero_products": zeros,
        "degree_bound": D,
        "subset": budget.subset_name if budget.subset is not None else "full",
    }
    return PropertyVerdict(prop, name, "fails", witness=wit)


def is_weak_sigma_skew_armendariz(
    sys: CommutationSystem,
    budget: SearchBudget | None = None,
    instance: str = "",
) -> PropertyVerdict:
    """fg = 0 must force every a_i sigma^(alpha_i)(b_j) nilpotent."""
    return _zero_product_search(
        sys, budget or SearchBudget(), "weak_sigma_skew_armendariz", instance
    )


def is_sigma_skew_armendariz(
    sys: CommutationSystem,
    budget: SearchBudget | None = None,
    instance: str = "",
) -> PropertyVerdict:
    """fg = 0 must force every a_i sigma^(alpha_i)(b_j) = 0."""
    return _zero_product_search(
        sys, budget or SearchBudget(), "sigma_skew_armendariz", instance
    )


def is_skew_armendariz(
    sys: CommutationSystem,
    budget: SearchBudget | None = None,
    instance: str = "",
) -> PropertyVerdict:
    """fg = 0 must force a_0 b_j = 0 for every j."""
    return _zero_product_search(
        sys, budget or SearchBudget(), "skew_armendariz", instance
    )


def is_weak_armendariz(
    ring: FiniteRing,
    budget: SearchBudget | None = None,
    instance: str = "",
) -> PropertyVerdict:
    """Untwisted one-variable case: fg = 0 forces all a_i b_j nilpotent."""
    from .maps import identity_map

    sys = CommutationSystem(
        ring, SigmaFamily(ring, [identity_map(ring)]), name=f"untwisted({ring.name})"
    )
    return _zero_product_search(
        sys, budget or SearchBudget(), "weak_armendariz", instance or ring.name
    )


# ---------------------------------------------------------------------------
# engine-based searches (derivations allowed)


def _poly_pairs_engine(sys: CommutationSystem, exps, budget: SearchBudget):
    """Yield (f, g, row_f, row_g) in the same canonical pair order."""
    ring = sys.ring
    polys, deg_starts = _enumerate_polys(ring, exps, budget)
    nblocks = deg_starts.shape[0] - 1

    @functools.cache
    def poly_at(r: int) -> SkewPoly:
        return _row_poly(sys, exps, polys[r])

    for df in range(nblocks):
        for dg in range(nblocks):
            for fi in range(int(deg_starts[df]), int(deg_starts[df + 1])):
                for gi in range(int(deg_starts[dg]), int(deg_starts[dg + 1])):
                    yield poly_at(fi), poly_at(gi), polys[fi], polys[gi]


def is_sigma_delta_skew_armendariz(
    sys: CommutationSystem,
    budget: SearchBudget | None = None,
    instance: str = "",
) -> PropertyVerdict:
    """fg = 0 must force every term product (a_i x^a_i)(b_j x^b_j) = 0.

    Engine-based, so derivations are allowed; costs one engine product
    per pair and is meant for small carriers or subsets.
    """
    budget = budget or SearchBudget()
    ring = sys.ring
    exps = monomials_upto(sys.n, budget.degree_bound, sys.order)
    name = instance or sys.name
    pairs = 0
    zeros = 0
    for f, g, _, _ in _poly_pairs_engine(sys, exps, budget):
        pairs += 1
        if not (f * g).is_zero:
            continue
        zeros += 1
        for ea in f.support():
            for eb in g.support():
                term = sys.monomial(ea, f.terms[ea]) * sys.monomial(eb, g.terms[eb])
                if not term.is_zero:
                    wit = {
                        "f": str(f),
                        "g": str(g),
                        "f_terms": poly_terms_record(f),
                        "g_terms": poly_terms_record(g),
                        "monomial_i": _mono_str(ea),
                        "monomial_j": _mono_str(eb),
                        "exp_i": list(ea),
                        "exp_j": list(eb),
                        "a_i": ring.element_name(f.terms[ea]),
                        "b_j": ring.element_name(g.terms[eb]),
                        "term_product": str(term),
                        "pairs_checked": pairs,
                        "zero_products": zeros,
                        "degree_bound": budget.degree_bound,
                        "subset": budget.subset_name if budget.subset is not None else "full",
                    }
                    return PropertyVerdict(
                        "sigma_delta_skew_armendariz", name, "fails", witness=wit
                    )
    bound = {
        "degree_bound": budget.degree_bound,
        "subset": budget.subset_name if budget.subset is not None else "full",
        "pairs_checked": pairs,
        "zero_products": zeros,
    }
    return PropertyVerdict(
        "sigma_delta_skew_armendariz", name, "holds_up_to_bound", bound=bound
    )


def poly_is_nilpotent(f: SkewPoly, power_bound: int) -> tuple[bool, int]:
    """(True, k) when f^k = 0 for some k <= power_bound, else (False, 0).

    Declared only on exact evidence: a False only means no zero power
    was seen within the bound.
    """
    if f.is_zero:
        return True, 1
    p = f
    for k in range(1, power_bound + 1):
        if p.is_zero:
            return True, k
        if k < power_bound:
            p = p * f
    return (True, power_bound) if p.is_zero else (False, 0)


def is_skew_pi_armendariz(
    sys: CommutationSystem,
    budget: SearchBudget | None = None,
    instance: str = "",
) -> PropertyVerdict:
    """fg nilpotent in the extension must force every a_i b_j nilpotent in R.

    Nilpotency of fg is certified by computing powers up to power_bound;
    pairs whose product never reaches zero within the bound impose no
    constraint and are skipped.
    """
    budget = budget or SearchBudget()
    ring = sys.ring
    nil = ring.nil_mask()
    exps = monomials_upto(sys.n, budget.degree_bound, sys.order)
    name = instance or sys.name
    pairs = 0
    nilprods = 0
    for f, g, _, _ in _poly_pairs_engine(sys, exps, budget):
        pairs += 1
        h = f * g
        ok, k = poly_is_nilpotent(h, budget.power_bound)
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
                        "monomial_i": _mono_str(ea),
                        "monomial_j": _mono_str(eb),
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
                    return PropertyVerdict(
                        "skew_pi_armendariz", name, "fails", witness=wit
                    )
    bound = {
        "degree_bound": budget.degree_bound,
        "power_bound": budget.power_bound,
        "subset": budget.subset_name if budget.subset is not None else "full",
        "pairs_checked": pairs,
        "nilpotent_products": nilprods,
    }
    return PropertyVerdict("skew_pi_armendariz", name, "holds_up_to_bound", bound=bound)


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
    out = [ring.zero]
    for block_pos in range(3):
        for unit in range(4):
            for s in range(1, base_size):
                blk = s * base_size ** (3 - unit)
                triple = [0, 0, 0]
                triple[block_pos] = blk
                out.append(ring.encode(*triple))
    return np.unique(np.asarray(out, dtype=np.int64))
