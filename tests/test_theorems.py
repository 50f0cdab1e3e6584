"""Structural statements re-verified over the builtin catalog."""
from collections import Counter

import pytest

from skewlab.properties import PropertyVerdict
from skewlab.theorems import (
    DEFAULT_ENTRIES,
    CHECKS,
    check_catalog_flags,
    check_ideal_decomposition,
    check_idempotent_fixed,
    check_nil_transfer,
    check_rigid_iff_weak_reduced,
    check_weak_armendariz_implication,
    entry_by_name,
    reproduce_counterexamples,
    resolve,
    run_all,
)

REPORTS = run_all()  # shared by the whole module; under 1 s, warms all caches


def by(theorem, instance):
    hits = [r for r in REPORTS if r.theorem == theorem and r.instance == instance]
    assert len(hits) == 1
    return hits[0]


def test_full_run_counts():
    assert len(REPORTS) == 62
    assert Counter(r.status for r in REPORTS) == {"pass": 46, "vacuous": 16}
    assert all(r.status != "fail" for r in REPORTS)


@pytest.mark.parametrize("instance,record,pairs,zeros,polys", [
    ("R3(Z2)/id", "bound", 16_777_216, 68_608, 4096),
    ("S(Z3)/negate-B", "conclusion_fails_too", 46_347, 29_242, None),
    ("S(Z4)/negate-B", "conclusion_fails_too", 152_140, 100_720, None),
])
def test_weak_armendariz_sweep_counters(instance, record, pairs, zeros, polys):
    # the pair sweep's counters, read off the module's one run
    got = by("ni_weak_rigid_implies_weak_armendariz", instance).details[record]
    assert (got["pairs_checked"], got["zero_products"]) == (pairs, zeros)
    assert got.get("polys") == polys


def test_theorem_major_order():
    names = [r.theorem for r in REPORTS]
    n = len(DEFAULT_ENTRIES)
    for k, theorem in enumerate(CHECKS):
        assert names[k * n : (k + 1) * n] == [theorem] * n
    assert names[-2:] == [
        "counterexample_weak_not_rigid",
        "counterexample_weak_rigid_not_armendariz",
    ]


def test_vacuous_set_frozen():
    vac = {(r.theorem, r.instance) for r in REPORTS if r.status == "vacuous"}
    gated = {
        "nil_transfer",
        "idempotent_fixed",
        "ideal_decomposition",
        "ni_weak_rigid_implies_weak_armendariz",
    }
    noisy = {"Z2xZ2/swap", "M2(Z2)/id", "S(Z3)/negate-B", "S(Z4)/negate-B"}
    assert vac == {(t, i) for t in gated for i in noisy}


def test_vacuous_reports_name_failed_hypotheses():
    assert by("nil_transfer", "Z2xZ2/swap").details["failed_hypotheses"] == [
        "weak_sigma_rigid"
    ]
    assert by("nil_transfer", "M2(Z2)/id").details["failed_hypotheses"] == ["ni"]
    r = by("ni_weak_rigid_implies_weak_armendariz", "Z2xZ2/swap")
    assert r.details["failed_hypotheses"] == [
        "weak_sigma_rigid", "endomorphism_type", "c_central_invertible"
    ]
    assert by("ideal_decomposition", "M2(Z2)/id").details["failed_hypotheses"] == [
        "abelian"
    ]
    r = by("ideal_decomposition", "Z2xZ2/swap")
    assert r.details["failed_hypotheses"] == ["idempotent_condition[fixed]"]
    assert r.details["unsatisfiable_at"] == "(0|1)"
    assert r.details["reason"] == "sigma((0|1)) = (1|0) != (0|1)"


def test_catalog_flags_match_everywhere():
    for e in DEFAULT_ENTRIES:
        r = by("catalog_flags", e.name)
        assert r.status == "pass"
        assert r.details["computed"] == e.expected
        assert "mismatches" not in r.details


def test_catalog_flags_detect_wrong_expectation():
    from dataclasses import replace

    e = entry_by_name("Z4/id")
    wrong = replace(e, expected={**e.expected, "reduced": True})
    ctx = resolve(e)
    ctx_wrong = type(ctx)(wrong, ctx.system)
    status, details = check_catalog_flags(ctx_wrong)
    assert status == "fail"
    assert details["mismatches"] == {
        "reduced": {"expected": True, "computed": False}
    }


def test_entry_verdicts_computed_once(monkeypatch):
    import skewlab.properties as P

    flags = ["reduced", "ni", "abelian", "sigma_rigid", "weak_sigma_rigid"]
    calls = Counter()
    for name in flags:
        def counted(*args, _fn=P.DECIDERS[name], _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setitem(P.DECIDERS, name, counted)
    cached = resolve(entry_by_name("Z4/id"))
    ctx = type(cached)(cached.entry, cached.system)
    for check in (check_catalog_flags, check_rigid_iff_weak_reduced, check_nil_transfer,
                  check_idempotent_fixed, check_ideal_decomposition):
        assert check(ctx)[0] == by(check.__name__.removeprefix("check_"), "Z4/id").status
    assert calls == dict.fromkeys(flags, 1)
    assert ctx.flags is ctx.flags
    assert all(ctx.verdict(name) is ctx.verdict(name) for name in flags)
    assert list(ctx.flags) == flags


def test_run_all_sweeps_each_search_once(monkeypatch):
    # the implication check and reproduce_counterexamples share the
    # S(Z3)/negate-B weak Armendariz search through its EntryContext
    import skewlab.kernels as K
    import skewlab.theorems as T

    sweeps = []

    def counted(*args, _fn=K._sweep, **kw):
        sweeps.append(1)
        return _fn(*args, **kw)

    monkeypatch.setattr(K, "_sweep", counted)
    monkeypatch.setattr(T, "_ctx_cache", {})
    assert [r.to_record() for r in run_all()] == [r.to_record() for r in REPORTS]
    assert len(sweeps) == 9


FORCED_CASES = [
    # swap is not weak rigid; read as if it were, it breaks the nil
    # transfer at a*swap(b) and moves a central idempotent
    ("Z2xZ2/swap", "weak_sigma_rigid", check_nil_transfer, {"part", "map", "a", "b"}),
    ("Z2xZ2/swap", "weak_sigma_rigid", check_idempotent_fixed, {"e", "map", "image"}),
    # M2(Z2) is not NI; read as if it were, the gated search returns its witness
    ("M2(Z2)/id", "ni", check_weak_armendariz_implication, {"witness"}),
]


@pytest.mark.parametrize(
    "instance,forced,check,keys", FORCED_CASES,
    ids=["nil_transfer", "idempotent_fixed", "weak_armendariz_implication"],
)
def test_statement_fails_when_a_hypothesis_is_read_as_met(instance, forced, check, keys):
    cached = resolve(entry_by_name(instance))
    ctx = type(cached)(cached.entry, cached.system)
    ctx._verdicts[forced] = PropertyVerdict(forced, instance, "holds")
    status, details = check(ctx)
    assert status == "fail" and set(details) == keys
    if check is check_idempotent_fixed:
        assert (details["e"], details["image"]) == ("(0|1)", "(1|0)")
    if check is check_weak_armendariz_implication:
        assert details["witness"]["product_nilpotent"] is False


def test_rigid_iff_weak_reduced_all_pass():
    for e in DEFAULT_ENTRIES:
        r = by("rigid_iff_weak_reduced", e.name)
        assert r.status == "pass"
    # the interesting direction: R3 is weak rigid and unreduced, so not rigid
    r3 = by("rigid_iff_weak_reduced", "R3(Z2)/id")
    assert r3.details["weak_sigma_rigid"] and not r3.details["reduced"]
    assert not r3.details["sigma_rigid"]
    assert r3.details["rigid_witness"]["product"] == "ut3[0,0,0,0]"


def test_nil_transfer_frozen_details():
    r = by("nil_transfer", "Z4/id")
    assert r.status == "pass" and r.details == {"maps_swept": 1, "pairs": 16}
    r = by("nil_transfer", "Z2xZ2/id")
    assert r.details == {"maps_swept": 1, "pairs": 16}


def test_idempotent_fixed_details():
    r = by("idempotent_fixed", "Z6/id")
    assert r.status == "pass"
    assert r.details == {"central_idempotents": 4, "maps": 1}


def test_ideal_decomposition_fixed_mode():
    r = by("ideal_decomposition", "Z6/id")
    assert r.status == "pass"
    assert r.details["weak_sigma_rigid"] and r.details["all_ideal_pairs_weak_rigid"]
    assert set(r.details["per_idempotent"]) == {"0", "1", "3", "4"}
    assert all(
        sides == {"eR": True, "(1-e)R": True}
        for sides in r.details["per_idempotent"].values()
    )


def test_ideal_decomposition_literal_mode_always_vacuous():
    for e in DEFAULT_ENTRIES:
        status, details = check_ideal_decomposition(resolve(e), mode="literal")
        assert status == "vacuous"
        assert details["failed_hypotheses"] == ["idempotent_condition[literal]"]
        assert details["unsatisfiable_at"] == resolve(e).system.ring.element_name(
            resolve(e).system.ring.one
        )
    with pytest.raises(ValueError):
        check_ideal_decomposition(resolve(DEFAULT_ENTRIES[0]), mode="strict")


def test_armendariz_implication_gated_instances_pass():
    for name in ("Z2/id", "Z3/id", "Z4/id", "Z6/id", "Z2xZ2/id", "R3(Z2)/id"):
        r = by("ni_weak_rigid_implies_weak_armendariz", name)
        assert r.status == "pass"
        assert r.details["bound"]["degree_bound"] == 2


def test_armendariz_implication_ni_essential():
    # weak rigid but not NI: the conclusion fails too, showing the NI
    # hypothesis cannot be dropped
    for name in ("M2(Z2)/id", "S(Z3)/negate-B", "S(Z4)/negate-B"):
        r = by("ni_weak_rigid_implies_weak_armendariz", name)
        assert r.status == "vacuous"
        assert r.details["failed_hypotheses"] == ["ni"]
        assert "conclusion_fails_too" in r.details
        assert r.details["conclusion_fails_too"]["product_nilpotent"] is False
        assert "note" in r.details


def test_counterexamples_pass_with_certificates():
    cx = {r.theorem: r for r in REPORTS[-2:]}
    r3 = cx["counterexample_weak_not_rigid"]
    assert r3.status == "pass" and r3.instance == "R3(Z2)/id"
    assert r3.details["weak_sigma_rigid"] == "holds"
    assert r3.details["sigma_rigid"] == "fails"
    s = cx["counterexample_weak_rigid_not_armendariz"]
    assert s.status == "pass" and s.instance == "S(Z3)/negate-B"
    cert = s.details["power_certificate"]
    assert cert["reaches_zero"] is False
    assert cert["element"] == s.details["witness"]["product"]


def test_single_instance_runs():
    assert len(run_all(instance="Z4/id")) == 6
    r3_reports = run_all(instance="R3(Z2)/id")
    assert len(r3_reports) == 7
    assert r3_reports[-1].theorem == "counterexample_weak_not_rigid"
    with pytest.raises(KeyError):
        entry_by_name("Z5/id")


def test_counterexamples_deterministic():
    a = [r.to_record() for r in reproduce_counterexamples()]
    b = [r.to_record() for r in reproduce_counterexamples()]
    assert a == b


def test_report_record_shape():
    rec = REPORTS[0].to_record()
    assert list(rec.keys()) == ["record", "theorem", "instance", "status", "details"]
    assert rec["record"] == "theorem"
