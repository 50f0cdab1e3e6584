"""Bounded deciders for rigidity and zero-product coefficient properties.

Universal statements over a finite ring and the finite closure of its
twist maps are decided exactly (verdict Holds or Fails with witness).
Statements quantified over all polynomials are searched up to a degree
bound and coefficient subset, giving Fails with witness or
HoldsUpToBound with the bound descriptor.  All six zero-product
properties run on the one pair sweep of kernels.py; the rewriting
engine only builds its constants, certifies nilpotency of products for
skew_pi_armendariz, and re-checks witnesses.  Every Fails verdict is
re-checked through an independent route (engine arithmetic or direct
ring ops) before it is returned.

Canonical orders make every verdict deterministic: elements ascending,
closure maps in word order, polynomial pairs by (deg f, deg g, f index,
g index) over the enumerated coefficient vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .maps import RingMap, SigmaFamily, identity_map, orbit_closure, sigma_power
from .poly import (
    CommutationSystem,
    SkewPoly,
    monomial_product_table,
    monomials_upto,
    move_past_tables,
)
from .rings import BudgetError, FiniteRing, SRing, SubsetIdeal, _CHUNK

# search defaults; the CLI and the theorem suite read these
DEFAULT_DEGREE_BOUND = 2
DEFAULT_POWER_BOUND = 4
DEFAULT_PAIR_CAP = 50_000_000


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


def _coeff_subset(ring: FiniteRing, budget: SearchBudget) -> np.ndarray:
    """The searched coefficients, ascending, zero always included."""
    if budget.subset is None:
        return np.arange(ring.size, dtype=np.int64)
    subset = np.unique(np.asarray(budget.subset, dtype=np.int64))
    if ring.zero not in subset:
        subset = np.unique(np.concatenate([[ring.zero], subset]))
    return subset


def _enumerate_polys(ring: FiniteRing, exps: list[tuple], budget: SearchBudget):
    """Coefficient rows over the subset, stably sorted into degree blocks."""
    subset = _coeff_subset(ring, budget)
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


# kernel mode per property (see kernels.py); modes 0-2 need all
# derivations zero, 3 and 4 take any system
_MODE_BY_PROP = {
    "weak_sigma_skew_armendariz": 0,
    "sigma_skew_armendariz": 1,
    "skew_armendariz": 2,
    "weak_armendariz": 0,
    "sigma_delta_skew_armendariz": 3,
    "skew_pi_armendariz": 4,
}


def _nilpotent_filter(sys: CommutationSystem, exps_out: list[tuple], power_bound: int):
    """keep(row) for the sweep: fg nilpotent within the bound, memoized on the row."""
    certified: dict[bytes, bool] = {}

    def keep(row: np.ndarray) -> bool:
        key = row.tobytes()
        if key not in certified:
            certified[key] = poly_is_nilpotent(_row_poly(sys, exps_out, row), power_bound)[0]
        return certified[key]

    return keep


def _zero_product_search(
    sys: CommutationSystem, budget: SearchBudget | None, prop: str, instance: str
) -> PropertyVerdict:
    """Shared harness: find a selected fg whose coefficient pairs break `prop`.

    Selected means fg = 0, or for skew_pi_armendariz fg nilpotent within
    the power bound.  A witness is re-checked through the engine and
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
    exps = monomials_upto(sys.n, D, sys.order)
    exps_out = monomials_upto(sys.n, 2 * D, sys.order)
    stc = monomial_product_table(sys, exps, exps_out)
    moves = move_past_tables(sys, exps, _coeff_subset(ring, budget))
    polys, deg_starts = _enumerate_polys(ring, exps, budget)
    keep = _nilpotent_filter(sys, exps_out, budget.power_bound) if mode == 4 else None
    if ring.is_table_backed:
        witness, pairs, selected = kernels.search_zero_products_table(
            polys, deg_starts, ring.add_table, ring.mul_table,
            moves, stc, ring.nil_mask(), ring.zero, mode, keep,
        )
    else:
        witness, pairs, selected = kernels.search_zero_products_generic(
            ring, polys, deg_starts, moves, stc, mode, keep
        )
    name = instance or f"{sys.name}"
    subset = budget.subset_name if budget.subset is not None else "full"
    counters = {
        "pairs_checked": pairs,
        ("nilpotent_products" if mode == 4 else "zero_products"): selected,
    }
    if witness is not None:
        wit = _witness(sys, exps, polys, witness, prop, budget.power_bound)
        wit.update(counters, degree_bound=D)
        wit.update({"power_bound": budget.power_bound} if mode == 4 else {"subset": subset})
        return PropertyVerdict(prop, name, "fails", witness=wit)
    bound = {"degree_bound": D}
    if mode == 4:
        bound["power_bound"] = budget.power_bound
    bound["subset"] = subset
    if mode < 3:
        bound.update(monomials=len(exps), polys=int(polys.shape[0]))
    bound.update(counters)
    return PropertyVerdict(prop, name, "holds_up_to_bound", bound=bound)


def _witness(sys: CommutationSystem, exps, polys, witness, prop: str, power_bound: int) -> dict:
    """Witness record of a sweep hit, re-checked through the engine and ring ops."""
    ring = sys.ring
    nil = ring.nil_mask()
    mode = _MODE_BY_PROP[prop]
    fi, gi, i, j = witness
    f = _row_poly(sys, exps, polys[fi])
    g = _row_poly(sys, exps, polys[gi])
    ai, bj = int(polys[fi][i]), int(polys[gi][j])
    wit = {
        "f": str(f),
        "g": str(g),
        "f_terms": poly_terms_record(f),
        "g_terms": poly_terms_record(g),
    }
    if mode == 4:
        ok, k = poly_is_nilpotent(f * g, power_bound)
        if not ok:
            raise ConsistencyError(f"{prop} witness product fg is not nilpotent")
        wit["fg_power_zero_at"] = k
    elif not (f * g).is_zero:
        raise ConsistencyError(f"{prop} witness product fg is not zero")
    wit.update(
        monomial_i=_mono_str(exps[i]),
        monomial_j=_mono_str(exps[j]),
        exp_i=list(exps[i]),
        exp_j=list(exps[j]),
        a_i=ring.element_name(ai),
        b_j=ring.element_name(bj),
    )
    if mode == 3:
        term = sys.monomial(exps[i], ai) * sys.monomial(exps[j], bj)
        if term.is_zero:
            raise ConsistencyError(f"{prop} witness term product is zero")
        wit["term_product"] = str(term)
    elif mode == 4:
        p = int(ring.mul(ai, bj))
        if nil[p]:
            raise ConsistencyError(f"{prop} witness product is nilpotent")
        wit["product"] = ring.element_name(p)
    else:
        tw = sigma_power(sys.sigma, exps[i])
        p = int(ring.mul(ai, tw(bj)))
        if nil[p] if mode == 0 else p == ring.zero:
            raise ConsistencyError(f"{prop} witness product breaks no condition after all")
        wit.update(twist=tw.name, product=ring.element_name(p), product_nilpotent=bool(nil[p]))
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
    sys = CommutationSystem(
        ring, SigmaFamily(ring, [identity_map(ring)]), name=f"untwisted({ring.name})"
    )
    return _zero_product_search(sys, budget, "weak_armendariz", instance or ring.name)


def is_sigma_delta_skew_armendariz(
    sys: CommutationSystem, budget: SearchBudget | None = None, instance: str = ""
) -> PropertyVerdict:
    """fg = 0 must force every term product (a_i x^a_i)(b_j x^b_j) = 0.

    Derivations are allowed: the sweep moves coefficients past monomials
    with move-past constants built by the engine.
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
