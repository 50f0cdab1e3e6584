"""Re-verification of the structural statements over the builtin catalog.

Each check runs one statement on one (ring, twist family) instance.
Hypotheses are evaluated first; instances that miss them are reported
"vacuous" with the failing hypothesis named, never silently skipped.
A "fail" status means the statement itself was contradicted by an
exhaustive or bounded sweep, which no catalog instance should produce.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .catalog import get_system
from .maps import orbit_closure
from .poly import CommutationSystem
from .properties import (
    DEFAULT_DEGREE_BOUND,
    DEFAULT_PAIR_CAP,
    FLAGS,
    PropertyVerdict,
    SearchBudget,
    decide,
    is_weak_sigma_rigid_ideal,
    is_weak_sigma_skew_armendariz,
    subset_fields,
)
from .rings import (
    FiniteRing,
    SRing,
    _first_violation,
    central_idempotents,
    idempotents,
    make_ideal,
    power_trajectory,
    principal_right_set,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system_name: str
    expected: dict


DEFAULT_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(
        "Z2/id", "untwisted(Z2)",
        {"reduced": True, "ni": True, "abelian": True, "sigma_rigid": True, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "Z3/id", "untwisted(Z3)",
        {"reduced": True, "ni": True, "abelian": True, "sigma_rigid": True, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "Z4/id", "untwisted(Z4)",
        {"reduced": False, "ni": True, "abelian": True, "sigma_rigid": False, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "Z6/id", "untwisted(Z6)",
        {"reduced": True, "ni": True, "abelian": True, "sigma_rigid": True, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "Z2xZ2/id", "untwisted(Z2xZ2)",
        {"reduced": True, "ni": True, "abelian": True, "sigma_rigid": True, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "Z2xZ2/swap", "swap-ore",
        {"reduced": True, "ni": True, "abelian": True, "sigma_rigid": False, "weak_sigma_rigid": False},
    ),
    CatalogEntry(
        "M2(Z2)/id", "untwisted(M2(Z2))",
        {"reduced": False, "ni": False, "abelian": False, "sigma_rigid": False, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "R3(Z2)/id", "untwisted(R3(Z2))",
        {"reduced": False, "ni": True, "abelian": True, "sigma_rigid": False, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "S(Z3)/negate-B", "s-negate-b(Z3)",
        {"reduced": False, "ni": False, "abelian": False, "sigma_rigid": False, "weak_sigma_rigid": True},
    ),
    CatalogEntry(
        "S(Z4)/negate-B", "s-negate-b(Z4)",
        {"reduced": False, "ni": False, "abelian": False, "sigma_rigid": False, "weak_sigma_rigid": True},
    ),
]


@dataclass
class EntryContext:
    """One resolved catalog entry; its verdicts are computed at first use."""

    entry: CatalogEntry
    system: CommutationSystem
    _verdicts: dict = field(default_factory=dict, repr=False)
    _counterexamples: dict = field(default_factory=dict, repr=False)

    def verdict(self, name: str) -> PropertyVerdict:
        """`skewlab check`'s verdict of flag or rigidity check `name`, once per entry."""
        if name not in self._verdicts:
            self._verdicts[name] = decide(name, self.system, instance=self.entry.name)
        return self._verdicts[name]

    @cached_property
    def flags(self) -> dict:
        """The ring property flags the catalog entry declares."""
        rigidity = ("sigma_rigid", "weak_sigma_rigid")
        # both rigidity verdicts first: the sweep order sets peak memory
        for name in rigidity:
            self.verdict(name)
        return {name: self.verdict(name).holds for name in FLAGS + rigidity}

    def counterexample_search(self, degree_bound: int, pair_cap: int) -> PropertyVerdict:
        """The weak Armendariz search of `_counterexample_budget`, once per bounds searched."""
        budget = _counterexample_budget(self.system.ring, degree_bound, pair_cap)
        memo, key = self._counterexamples, (budget.degree_bound, pair_cap)
        if key not in memo:
            memo[key] = is_weak_sigma_skew_armendariz(self.system, budget, instance=self.entry.name)
        return memo[key]


_ctx_cache: dict[str, EntryContext] = {}


def entry_by_name(name: str) -> CatalogEntry:
    for e in DEFAULT_ENTRIES:
        if e.name == name:
            return e
    known = ", ".join(e.name for e in DEFAULT_ENTRIES)
    raise KeyError(f"unknown instance {name!r}; known: {known}")


def resolve(entry: CatalogEntry) -> EntryContext:
    if entry.name not in _ctx_cache:
        _ctx_cache[entry.name] = EntryContext(entry, get_system(entry.system_name))
    return _ctx_cache[entry.name]


@dataclass
class TheoremReport:
    theorem: str
    instance: str
    status: str  # "pass" | "fail" | "vacuous"
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "record": "theorem",
            "theorem": self.theorem,
            "instance": self.instance,
            "status": self.status,
            "details": self.details,
        }


def check_catalog_flags(ctx: EntryContext) -> tuple[str, dict]:
    """Computed ring property flags must match the catalog expectations."""
    computed = dict(ctx.flags)
    mismatches = {
        k: {"expected": ctx.entry.expected[k], "computed": computed[k]}
        for k in ctx.entry.expected
        if ctx.entry.expected[k] != computed[k]
    }
    details = {"computed": computed, "expected": dict(ctx.entry.expected)}
    if mismatches:
        details["mismatches"] = mismatches
    return "fail" if mismatches else "pass", details


def check_rigid_iff_weak_reduced(ctx: EntryContext) -> tuple[str, dict]:
    """Rigid exactly when weak rigid and reduced, on every instance."""
    flags = ctx.flags
    lhs = flags["sigma_rigid"]
    rhs = flags["weak_sigma_rigid"] and flags["reduced"]
    details = {
        "sigma_rigid": flags["sigma_rigid"],
        "weak_sigma_rigid": flags["weak_sigma_rigid"],
        "reduced": flags["reduced"],
    }
    for key, name in (("rigid_witness", "sigma_rigid"), ("weak_witness", "weak_sigma_rigid")):
        if ctx.verdict(name).witness:
            details[key] = ctx.verdict(name).witness
    return "pass" if lhs == rhs else "fail", details


def _failed(ctx: EntryContext, **more) -> list[str]:
    """The hypotheses that do not hold, in order: NI, weak rigidity, then `more`."""
    gate = {"ni": ctx.flags["ni"], "weak_sigma_rigid": ctx.flags["weak_sigma_rigid"], **more}
    return [k for k, v in gate.items() if not v]


def check_nil_transfer(ctx: EntryContext) -> tuple[str, dict]:
    """NI + weak rigid force the three nilpotence transfer implications.

    (1) ab nil => a*m(b) and m(a)*b nil; (2) m(a)*b nil => ab, ba nil;
    (3) a*m(b) nil => ab, ba nil; swept over all pairs and all closure
    maps m, map by map, then part by part, each part a mask over rows a
    and every b.
    """
    missing = _failed(ctx)
    if missing:
        return "vacuous", {"failed_hypotheses": missing}
    ring, nil = ctx.system.ring, ctx.system.ring.nil_at
    maps, idx = orbit_closure(ctx.system.sigma), ring.elements()

    def laws(m):  # masks over rows a and every b
        mb = m(idx)
        ab = lambda a: nil(ring.mul(a[:, None], idx))
        ba = lambda a: nil(ring.mul(idx, a[:, None]))
        amb = lambda a: nil(ring.mul(a[:, None], mb))
        mab = lambda a: nil(ring.mul(m(a)[:, None], idx))
        yield ("ab_nil_transfers", m), lambda a: ab(a) & ~(amb(a) & mab(a))
        yield ("ma_b_nil_pulls_back", m), lambda a: mab(a) & ~(ab(a) & ba(a))
        yield ("a_mb_nil_pulls_back", m), lambda a: amb(a) & ~(ab(a) & ba(a))

    hit = _first_violation((law for m in maps for law in laws(m)), ring.size, ring.size)
    if hit is not None:
        (part, m), (a, b) = hit
        return "fail", {
            "part": part, "map": m.name, "a": ring.element_name(a), "b": ring.element_name(b),
        }
    return "pass", {"maps_swept": len(maps), "pairs": ring.size**2}


def _first_moved(ctx: EntryContext, elems: list[int]) -> dict | None:
    """The first e in `elems` (then family map m) with m(e) != e, named; else None."""
    x, maps = np.asarray(elems, dtype=np.int64), ctx.system.sigma.maps
    hit = _first_violation(
        [("moved", lambda i: np.stack([m(x[i]) != x[i] for m in maps], -1))], x.size, len(maps)
    )
    if hit is None:
        return None
    e, m, name = int(x[hit[1][0]]), maps[hit[1][1]], ctx.system.ring.element_name
    return {"e": name(e), "map": m.name, "image": name(int(m(e)))}


def check_idempotent_fixed(ctx: EntryContext) -> tuple[str, dict]:
    """NI + weak rigid force every twist to fix central idempotents."""
    missing = _failed(ctx)
    central = [int(e) for e in central_idempotents(ctx.system.ring)]
    moved = _first_moved(ctx, central)
    if missing:
        details: dict = {"failed_hypotheses": missing}
        # when the gate fails a twist may genuinely move a central
        # idempotent; record the first one as evidence
        if moved is not None:
            details["moved_central_idempotent"] = moved
        return "vacuous", details
    if moved is not None:
        return "fail", moved
    return "pass", {"central_idempotents": len(central), "maps": ctx.system.n}


def check_ideal_decomposition(ctx: EntryContext, mode: str = "fixed") -> tuple[str, dict]:
    """Weak rigidity of R versus its eR / (1-e)R ideal pair, per idempotent.

    The statement's hypothesis asks the twists to send every idempotent
    e to 0, which no unital endomorphism satisfies at e = 1; `mode`
    picks the reading: "fixed" requires sigma_i(e) = e instead,
    "literal" keeps sigma_i(e) = 0 and reports the instance vacuous,
    naming the first unsatisfiable idempotent.
    """
    if mode not in ("fixed", "literal"):
        raise ValueError("mode must be 'fixed' or 'literal'")
    flags = ctx.flags
    ring, family = ctx.system.ring, ctx.system.sigma
    if mode == "literal":
        # sigma_i(1) = 1 for every unital endomorphism, so the literal
        # reading is unsatisfiable at e = 1 on any instance
        e, m = ring.one, family.maps[0]
        return "vacuous", {
            "mode": mode,
            "failed_hypotheses": ["idempotent_condition[literal]"],
            "unsatisfiable_at": ring.element_name(e),
            "reason": (
                f"sigma({ring.element_name(e)}) = "
                f"{ring.element_name(int(m(e)))} != {ring.element_name(ring.zero)}"
            ),
        }
    if not flags["abelian"]:
        w = ctx.verdict("abelian").witness
        return "vacuous", {
            "failed_hypotheses": ["abelian"], "mode": mode,
            "abelian_witness": [ring.element_index(w["idempotent"]), ring.element_index(w["r"])],
        }
    idems = [int(e) for e in idempotents(ring)]
    moved = _first_moved(ctx, idems)
    if moved is not None:
        return "vacuous", {
            "mode": mode,
            "failed_hypotheses": ["idempotent_condition[fixed]"],
            "unsatisfiable_at": moved["e"],
            "reason": f"sigma({moved['e']}) = {moved['image']} != {moved['e']}",
        }
    # hypothesis satisfied; assert (1) <=> (2) over every idempotent
    lhs = flags["weak_sigma_rigid"]
    per_e = {}
    rhs_all = True
    for e in idems:
        one_minus_e = int(ring.sub(ring.one, e))
        sides = {}
        for label, gen in (("eR", e), (f"(1-e)R", one_minus_e)):
            ideal = make_ideal(
                ring, principal_right_set(ring, gen),
                f"{ring.element_name(gen)}*R",
            )
            v = is_weak_sigma_rigid_ideal(ring, family, ideal)
            sides[label] = v.holds
            rhs_all = rhs_all and v.holds
        per_e[ring.element_name(e)] = sides
    return "pass" if lhs == rhs_all else "fail", {
        "mode": mode,
        "weak_sigma_rigid": lhs,
        "all_ideal_pairs_weak_rigid": rhs_all,
        "per_idempotent": per_e,
    }


def _counterexample_budget(ring: FiniteRing, degree_bound: int, pair_cap: int) -> SearchBudget:
    # at most degree 1 on an S ring: at degree 2 its block-elementary pairs exceed the pair cap
    degree_bound = min(degree_bound, 1) if isinstance(ring, SRing) else degree_bound
    return SearchBudget(degree_bound=degree_bound, pair_cap=pair_cap, **subset_fields(ring))


def check_weak_armendariz_implication(
    ctx: EntryContext,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> tuple[str, dict]:
    """NI + weak rigid (c central invertible) force weak twisted Armendariz.

    Gated instances run the zero-product search to the degree bound; a
    witness there would contradict the statement.  When NI is the only
    failing hypothesis and the conclusion also fails, the witness is
    recorded: the instance shows the NI hypothesis is essential.
    """
    flags = ctx.flags
    sys = ctx.system
    missing = _failed(
        ctx,
        endomorphism_type=sys.endomorphism_type,
        c_central_invertible=sys.endomorphism_type and sys.c_central_invertible(),
    )
    if not missing:
        budget = SearchBudget(degree_bound=degree_bound, pair_cap=pair_cap)
        verdict = is_weak_sigma_skew_armendariz(sys, budget, instance=ctx.entry.name)
        if verdict.fails:
            return "fail", {"witness": verdict.witness}
        return "pass", {"bound": verdict.bound}
    details: dict = {"failed_hypotheses": missing}
    if (
        missing == ["ni"]
        and sys.endomorphism_type
        and flags["weak_sigma_rigid"]
    ):
        verdict = ctx.counterexample_search(degree_bound, pair_cap)
        if verdict.fails:
            details["conclusion_fails_too"] = verdict.witness
            details["note"] = (
                "weak rigid but not NI, and the weak Armendariz conclusion "
                "fails as well: the NI hypothesis is essential"
            )
        else:
            details["conclusion_bound"] = verdict.bound
    return "vacuous", details


def reproduce_counterexamples(pair_cap: int = DEFAULT_PAIR_CAP) -> list[TheoremReport]:
    """The two documented separating examples, re-derived from scratch.

    R3 over a rigid base is weak rigid but not rigid; S with the
    negate-B twist is weak rigid but not weak twisted Armendariz, with
    the non-nilpotent coefficient product certified by a power cycle.
    """
    out = []
    # upper-triangular R3: weak rigid, not rigid
    r3 = resolve(entry_by_name("R3(Z2)/id"))
    weak, rigid = r3.verdict("weak_sigma_rigid"), r3.verdict("sigma_rigid")
    ok = weak.holds and rigid.fails
    out.append(
        TheoremReport(
            "counterexample_weak_not_rigid",
            r3.entry.name,
            "pass" if ok else "fail",
            {
                "weak_sigma_rigid": weak.status,
                "sigma_rigid": rigid.status,
                "rigid_witness": rigid.witness,
            },
        )
    )
    # block ring S: weak rigid, not weak twisted Armendariz
    s = resolve(entry_by_name("S(Z3)/negate-B"))
    weak_s = s.verdict("weak_sigma_rigid")
    arm = s.counterexample_search(1, pair_cap)
    details: dict = {
        "weak_sigma_rigid": weak_s.status,
        "weak_sigma_skew_armendariz": arm.status,
        "witness": arm.witness,
    }
    ok = weak_s.holds and arm.fails
    if ok:
        # certify the witness product really has no zero power: its
        # power sequence closes a cycle that never reaches 0
        p = s.system.ring.element_index(arm.witness["product"])
        powers, reaches_zero = power_trajectory(s.system.ring, p)
        ok = ok and not reaches_zero
        details["power_certificate"] = {
            "element": arm.witness["product"],
            "powers_before_cycle": len(powers),
            "reaches_zero": reaches_zero,
        }
    out.append(
        TheoremReport(
            "counterexample_weak_rigid_not_armendariz",
            s.entry.name,
            "pass" if ok else "fail",
            details,
        )
    )
    return out


# theorem name -> check of it on one entry, in report order; each check
# returns (status, details), and run_all and replay name the report by key
CHECKS = {
    "catalog_flags": check_catalog_flags,
    "rigid_iff_weak_reduced": check_rigid_iff_weak_reduced,
    "nil_transfer": check_nil_transfer,
    "idempotent_fixed": check_idempotent_fixed,
    "ideal_decomposition": check_ideal_decomposition,
    "ni_weak_rigid_implies_weak_armendariz": check_weak_armendariz_implication,
}


def run_all(
    instance: str | None = None,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    pair_cap: int = DEFAULT_PAIR_CAP,
    ideal_mode: str = "fixed",
) -> list[TheoremReport]:
    """Every theorem over every catalog entry, theorem-major, in CHECKS order."""
    entries = [entry_by_name(instance)] if instance is not None else DEFAULT_ENTRIES
    params = {
        "ideal_decomposition": {"mode": ideal_mode},
        "ni_weak_rigid_implies_weak_armendariz": {
            "degree_bound": degree_bound, "pair_cap": pair_cap,
        },
    }
    out = [
        TheoremReport(name, entry.name, *check(resolve(entry), **params.get(name, {})))
        for name, check in CHECKS.items()
        for entry in entries
    ]
    if instance is None or instance in ("R3(Z2)/id", "S(Z3)/negate-B"):
        cx = reproduce_counterexamples(pair_cap=pair_cap)
        if instance is not None:
            cx = [r for r in cx if r.instance == instance]
        out.extend(cx)
    return out


def replay(record: dict) -> TheoremReport:
    """Re-run the check behind a theorem record, with the parameters it carries.

    ideal_decomposition reads its mode from `details.mode`; the Armendariz
    implication reads its search's degree bound from whichever `details`
    entry records that search.
    """
    name, details = record["theorem"], record.get("details") or {}
    if name.startswith("counterexample_"):
        return {r.theorem: r for r in reproduce_counterexamples()}[name]
    params = {}
    if name == "ideal_decomposition":
        params["mode"] = details["mode"]
    elif name == "ni_weak_rigid_implies_weak_armendariz":
        for key in ("bound", "witness", "conclusion_fails_too", "conclusion_bound"):
            if key in details:
                params["degree_bound"] = details[key]["degree_bound"]
    check, entry = CHECKS[name], entry_by_name(record["instance"])
    return TheoremReport(name, entry.name, *check(resolve(entry), **params))
