"""CLI contract: spec parsing, NDJSON records, exit codes, explain."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewlab.cli import RECORD_FIELDS, SpecError, main, parse_spec

GOOD_SPEC = """\
ring Z4
checks reduced, sigma_rigid, weak_sigma_rigid
expect reduced=fails, sigma_rigid=fails, weak_sigma_rigid=holds
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def fresh_process(code):
    """stdout words of `code` run in a new interpreter, which no test has warmed."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# --- parsing ------------------------------------------------------------------


def test_parse_and_serialize_fixpoint():
    spec = parse_spec(GOOD_SPEC)
    text1 = spec.serialize()
    text2 = parse_spec(text1).serialize()
    assert text1 == text2
    assert spec.instance == "Z4/id"
    assert [c.name for c in spec.checks] == [
        "reduced",
        "sigma_rigid",
        "weak_sigma_rigid",
    ]


def test_instance_label_precedence():
    assert parse_spec("ring Z4\ninstance mylabel\n").instance == "mylabel"
    assert parse_spec("system swap-ore\n").instance == "swap-ore"
    assert parse_spec("ring Z2xZ2\nmaps swap\n").instance == "Z2xZ2/swap"


def test_comments_and_semicolons():
    spec = parse_spec("ring Z4; checks reduced  # trailing comment\n")
    assert spec.ring_name == "Z4" and len(spec.checks) == 1


def test_expect_pulls_in_undeclared_checks():
    spec = parse_spec("ring Z4\nexpect weak_sigma_rigid=holds\n")
    assert [c.name for c in spec.checks] == ["weak_sigma_rigid"]


def test_parse_errors_carry_position():
    with pytest.raises(SpecError) as e:
        parse_spec("ring Z4\nfrobnicate yes\n")
    assert str(e.value).startswith("line 2, col 1: unknown statement")
    with pytest.raises(SpecError):
        parse_spec("ring Z4\nring Z6\n")
    with pytest.raises(SpecError) as e:
        parse_spec("ring Z4\nexpect reduced=maybe\n")
    assert "CHECK=STATUS" in str(e.value)
    # check options are all validated before any check runs
    with pytest.raises(SpecError, match="^line 2, col 1: subset=block-elementary needs an S"):
        parse_spec("ring Z4\ncheck weak_armendariz subset=block-elementary\n")
    with pytest.raises(SpecError) as e:
        parse_spec("ring Z4\ncheck nosuchprop\n")
    assert "unknown check" in str(e.value)


# --- check subcommand -----------------------------------------------------------


def test_check_json_records(tmp_path, capsys):
    path = write(tmp_path, "good.spec", GOOD_SPEC)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0 and err == ""
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 3
    for rec in recs:
        assert tuple(rec)[: len(RECORD_FIELDS)] == RECORD_FIELDS
        assert rec["expected"] == rec["status"]
        assert rec["context"]["source"] == "spec"
    assert recs[0]["witness"] == {"element": "2", "nilpotent": True}
    assert recs[1]["witness"]["element"] == "2"
    assert recs[2]["status"] == "holds"


def test_check_text_output(tmp_path, capsys):
    path = write(tmp_path, "good.spec", GOOD_SPEC + "output text\n")
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[FAILS  ] reduced on Z4/id")
    assert "expected fails: ok" in lines[0]


def test_expect_mismatch_exits_1(tmp_path, capsys):
    path = write(tmp_path, "bad.spec", "ring Z4\nexpect reduced=holds\n")
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 1
    rec = json.loads(out.splitlines()[0])
    assert rec["status"] == "fails" and rec["expected"] == "holds"
    assert rec["mismatch"] is True


def test_unknown_ring_diagnostic(tmp_path, capsys):
    path = write(tmp_path, "bad.spec", "ring Q8\ncheck reduced\n")
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2 and out == ""
    assert "line 1, col 1: unknown ring 'Q8'" in err


def test_unknown_map_reported_at_reference_site(tmp_path, capsys):
    path = write(tmp_path, "bad.spec", "ring Z4\nmaps id, nosuch\ncheck reduced\n")
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2
    assert "line 2, col 10: unknown map 'nosuch' on Z4" in err


@pytest.mark.parametrize("text,line,col", [
    ("ring Z4\nmaps s\ncheck reduced\n", 2, 6),
    ("ring Z4\nmaps id, a\ncheck reduced\n", 2, 10),
    ("ring Z4\nchecks ni, n\n", 2, 12),
    ("ring Z4\nexpect ni=holds, i=holds\n", 2, 18),
    ("ring Z4; maps s\ncheck reduced\n", 1, 15),
], ids=["maps-s", "maps-second", "checks-second", "expect-second", "maps-after-semicolon"])
def test_list_item_reported_at_its_own_column(text, line, col):
    # each item's name also occurs earlier in its statement
    with pytest.raises(SpecError) as e:
        parse_spec(text)
    assert (e.value.line, e.value.col) == (line, col)


@pytest.mark.parametrize("ring,name,msg", [
    ("Z2xZ3", "swap", "map 'swap' needs an equal-factor product, not Z2xZ3"),
    ("S(Z3)", "swap", "map 'swap' needs an equal-factor product, not S(Z3)"),
    ("Z2xZ2", "negate-B", "map 'negate-B' needs an S ring, not Z2xZ2"),
    ("S(Z3)", "frob", "unknown map 'frob' on S(Z3); available: id, negate-B"),
])
def test_map_outside_its_rings_reported(tmp_path, capsys, ring, name, msg):
    path = write(tmp_path, "bad.spec", f"ring {ring}\nmap s = {name}\nmaps s\ncheck reduced\n")
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert err.endswith(f"line 2, col 1: {msg}\n")


def test_zero_commutation_coefficient_rejected(tmp_path, capsys):
    path = write(
        tmp_path, "bad.spec", "ring Z3\nmaps id, id\nc[1,2] = 0\ncheck reduced\n"
    )
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2
    assert (
        "line 3, col 1: axiom violation c_nonzero[1,2]: x2*x1 rewrite needs "
        "a nonzero leading coefficient on x1*x2, got 0" in err
    )


F2 = "ring F2 add=[[0,1],[1,0]] mul=[[0,0],[0,1]] one=1 names="


@pytest.mark.parametrize("body,line,fragment", [
    ("maps id, id\nc[1,2] = 5\n", 3, "5 is not an element index of Z3 (size 3)"),
    ("maps id, id\nd[1,2] = [7]\n", 3, "7 is not an element index of Z3 (size 3)"),
    ("maps id, id\nd[1,2] = 7\n", 3, "d[1,2] must be a JSON list"),
    ("map m = [null, 1, 2]\nmaps m\ncheck reduced\n", 2,
     "map m must be a JSON list of 32-bit integers"),
    # 2^32 + 1 would wrap to the image 1 in an int32 table
    ("map m = [0, 4294967297, 2]\nmaps m\ncheck reduced\n", 2,
     "map m must be a JSON list of 32-bit integers"),
    ("ring F2 add=[[0,1],[1,0]] mul=[[0,0],[0,1]] one=1 names=5\ncheck reduced\n", 1,
     "names must be a JSON list"),
    ("check weak_armendariz degree_bound=-1\n", 2, "degree_bound must be >= 0, got -1"),
    ("check weak_armendariz degree_bound=abc\n", 2, "degree_bound must be an integer, got 'abc'"),
    ("check skew_pi_armendariz power_bound=0\n", 2, "power_bound must be >= 1, got 0"),
    ("check weak_armendariz pair_cap=lots\n", 2, "pair_cap must be an integer, got 'lots'"),
    ("check weak_armendariz degree_bound=1 subset=bogus\n", 2,
     "subset must be one of full, block-elementary, got 'bogus'"),
    ("check reduced\ncheck weak_armendariz subset=block-elementary\n", 3,
     "subset=block-elementary needs an S ring"),
    # an option that the check never reads is refused, not dropped
    ("check reduced degree_bound=5 power_bound=9 subset=full\n", 2,
     "reduced reads no option 'degree_bound'; its options: none"),
    ("check sigma_rigid pair_cap=1\n", 2, "sigma_rigid reads no option 'pair_cap'; its options: none"),
    ("check weak_armendariz power_bound=3\n", 2,
     "weak_armendariz reads no option 'power_bound'; its options: degree_bound, pair_cap, subset"),
    ("check skew_pi_armendariz depth=2\n", 2,
     "skew_pi_armendariz reads no option 'depth'; "
     "its options: degree_bound, pair_cap, subset, power_bound"),
    ("c[2,1] = 1\n", 2, "c[2,1] needs 1 <= i < j"),
    ("output yaml\n", 2, "output must be `json` or `text`"),
    ("deltas zero, zero\n", 2, "2 deltas for 1 variables"),
    ("derivation dd = images=[0,0,0]\ndeltas dd\n", 2,
     "explicit derivations need images=[...] sigma=MAP"),
    ("maps id, id\nd[1,2] = [0, 1]\n", 3, "d[1,2] needs 1 constant + 2 linear entries"),
    ("maps id, id\nc[1,3] = 1\n", 3, "c/d entry references x3 but n = 2"),
    ("map m = [0, 1]\nmaps m\ncheck reduced\n", 2, "image table must have shape (3,)"),
    (F2 + '["z","u"]\nmap s = swap\nmaps s\n', 2, "unknown map 'swap' on F2; available: id"),
    (F2 + '["z"]\n', 1, "F2: 1 names for 2 elements"),
    (F2 + '["z","z"]\n', 1, "F2: element names are not unique"),
    (F2 + '["zero","one"]\nmaps id, id\nc[1,2] = two\n', 3, "F2: no element named 'two'"),
], ids=["c-range", "d-range", "d-not-list", "map-not-ints", "map-wide-int", "names-not-list",
        "degree-negative", "degree-not-int", "power-zero", "pair-cap-not-int",
        "subset-unknown", "subset-not-s-ring", "flag-options", "rigidity-option",
        "power-bound-unread", "unknown-option", "c-order", "output-unknown", "deltas-count",
        "derivation-no-sigma", "d-length", "cd-past-n", "map-length", "map-not-on-tables",
        "names-short", "names-duplicate", "c-unknown-name"])
def test_bad_spec_numbers_exit_2(tmp_path, capsys, body, line, fragment):
    # a body that declares its own ring replaces Z3
    path = write(tmp_path, "bad.spec", body if body.startswith("ring ") else "ring Z3\n" + body)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2 and out == ""
    assert err == f"{path}:line {line}, col 1: {fragment}\n"


def test_short_d_row_is_padded(tmp_path, capsys):
    # d[1,2] = [0] is the constant alone; the linear entries default to zero
    path = write(tmp_path, "pad.spec", "ring Z3\nmaps id, id\nd[1,2] = [0]\nexpect reduced=holds\n")
    assert run_cli(capsys, "check", path)[0] == 0


def test_explicit_ring_one_checked(tmp_path, capsys):
    tables = 'add=[[0,1],[1,0]] mul=[[0,0],[0,1]]'
    for one, fragment in (("x", "one must be an integer, got 'x'"),
                          ("5", "F2: one=5 is not an element index below 2")):
        path = write(tmp_path, "f2.spec", f'ring F2 {tables} one={one} names=["z","u"]\n')
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and err == f"{path}:line 1, col 1: {fragment}\n"


@pytest.mark.parametrize("argv", [
    ["check", "x.spec", "--degree-bound", "-3"],
    ["verify-theorems", "--degree-bound", "-1"],
    ["check", "x.spec", "--power-bound", "0"],
    ["check", "x.spec", "--budget", "0"],
    ["verify-theorems", "--budget", "abc"],
], ids=["degree-negative", "verify-degree-negative", "power-zero", "budget-zero",
        "verify-budget-not-int"])
def test_bad_budget_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_check_search_options_flow(tmp_path, capsys):
    # the flags reach the bound of each search that reads them, a spec
    # option overrides them, and the flag and rigidity checks read none
    path = write(tmp_path, "opts.spec", (
        "ring Z2\ncheck skew_pi_armendariz\n"
        "check skew_pi_armendariz degree_bound=0 power_bound=1\n"
        "check weak_armendariz\ncheck reduced\ncheck weak_sigma_rigid\n"
    ))

    def records(*flags):
        code, out, _ = run_cli(capsys, "check", path, "--json", *flags)
        assert code == 0
        return [{k: v for k, v in json.loads(ln).items() if k != "wall_ms"} for ln in out.splitlines()]

    def bounds(recs):
        return [(b.get("degree_bound"), b.get("power_bound")) for b in (r["bound"] or {} for r in recs)]

    default = records()
    flagged = records("--degree-bound", "1", "--power-bound", "2", "--budget", "16")
    assert bounds(default) == [(2, 4), (0, 1), (2, None), (None, None), (None, None)]
    assert bounds(flagged) == [(1, 2), (0, 1), (1, None), (None, None), (None, None)]
    assert flagged[3:] == default[3:]
    assert all(r["status"] == "holds" for r in flagged[3:])


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "/nonexistent/path.spec")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command", ["check", "explain"])
def test_non_utf8_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 0\n"


def test_explicit_ring_tables(tmp_path, capsys):
    spec = (
        'ring F2 add=[[0,1],[1,0]] mul=[[0,0],[0,1]] one=1 names=["z","u"]\n'
        "check reduced\nexpect reduced=holds\n"
    )
    path = write(tmp_path, "f2.spec", spec)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["status"] == "holds" and rec["instance"] == "F2/id"
    # serialize of an explicit-table spec reparses to the same text
    parsed = parse_spec(spec)
    assert parse_spec(parsed.serialize()).serialize() == parsed.serialize()


def test_explicit_map_images(tmp_path, capsys):
    spec = (
        "ring Z2xZ2\nmap s = [0, 2, 1, 3]\nmaps s\n"
        "check weak_sigma_rigid\nexpect weak_sigma_rigid=fails\n"
    )
    path = write(tmp_path, "swap.spec", spec)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["witness"]["element"] == "(0|1)" and rec["witness"]["map"] == "s"


def test_broken_map_images_rejected(tmp_path, capsys):
    path = write(
        tmp_path, "bad.spec", "ring Z4\nmap m = [0, 1, 1, 1]\nmaps m\ncheck reduced\n"
    )
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2 and "line 2, col 1" in err


def test_derivation_spec_matches_builtin_ore(tmp_path, capsys):
    spec = (
        "ring Z2xZ2\nmap s = swap\nderivation dd = id-minus s\n"
        "maps s\ndeltas dd\n"
        "check sigma_delta_skew_armendariz degree_bound=1\n"
        "expect sigma_delta_skew_armendariz=fails\n"
    )
    path = write(tmp_path, "ore.spec", spec)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    w = rec["witness"]
    assert w["f"] == "(0|1)*x1 + (0|1)" and w["g"] == "(0|1)"
    assert (w["pairs_checked"], w["zero_products"]) == (78, 30)


def test_explicit_derivation_images_match_id_minus(tmp_path, capsys):
    # id - swap on Z2xZ2 written out as images gives the same verdicts
    def run(decl):
        spec = f"ring Z2xZ2\nmap s = swap\n{decl}\nmaps s\ndeltas dd\n" + (
            "checks sigma_delta_skew_armendariz, skew_pi_armendariz, weak_sigma_rigid\n"
        )
        code, out, err = run_cli(capsys, "check", write(tmp_path, "ore.spec", spec), "--json")
        assert code == 0, err
        return [
            (r["check"], r["status"], r.get("witness"), r.get("bound"))
            for r in map(json.loads, out.splitlines())
            if r.get("record") != "summary"
        ]

    explicit = run("derivation dd = images=[0, 3, 3, 0] sigma=s")
    assert [r[1] for r in explicit] == ["fails"] * 3 and all(r[2] for r in explicit)
    assert explicit == run("derivation dd = id-minus s")


def test_explicit_derivation_breaking_leibniz_rejected(tmp_path, capsys):
    spec = (
        "ring Z2xZ2\nmap s = swap\nderivation dd = images=[0, 1, 2, 3] sigma=s\n"
        "maps s\ndeltas dd\ncheck sigma_rigid\n"
    )
    path = write(tmp_path, "bad.spec", spec)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2 and out == ""
    assert err.startswith(f"{path}:line 3, col 1: ") and "twisted_leibniz" in err


def test_builtin_system_spec(tmp_path, capsys):
    spec = (
        "system quantum-plane(Z3,2)\n"
        "check sigma_skew_armendariz degree_bound=1\n"
        "expect sigma_skew_armendariz=holds_up_to_bound\n"
    )
    path = write(tmp_path, "qp.spec", spec)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["bound"]["polys"] == 27


def test_system_cannot_mix_with_maps(tmp_path, capsys):
    path = write(tmp_path, "bad.spec", "system swap-ore\nmaps id\ncheck reduced\n")
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2 and "cannot be combined" in err


def test_s_ring_defaults_to_block_subset(tmp_path, capsys):
    spec = (
        "system s-negate-b(Z3)\n"
        "check weak_sigma_skew_armendariz degree_bound=1\n"
        "expect weak_sigma_skew_armendariz=fails\n"
    )
    path = write(tmp_path, "s3.spec", spec)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["witness"]["subset"] == "block-elementary"
    assert rec["witness"]["pairs_checked"] == 46347


# --- verify-theorems -------------------------------------------------------------


def test_verify_theorems_single_instance(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "verify-theorems", "--instance", "Z4/id", "--json"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    summary = json.loads(lines[-1])
    assert summary["record"] == "summary"
    assert (summary["theorems"], summary["passed"], summary["failed"]) == (6, 6, 0)
    recs = [json.loads(l) for l in lines[:-1]]
    assert [r["theorem"] for r in recs] == [
        "catalog_flags",
        "rigid_iff_weak_reduced",
        "nil_transfer",
        "idempotent_fixed",
        "ideal_decomposition",
        "ni_weak_rigid_implies_weak_armendariz",
    ]
    assert all(r["status"] == "pass" for r in recs)


def test_verify_theorems_unknown_instance(capsys):
    code, out, err = run_cli(capsys, "verify-theorems", "--instance", "Z5/id")
    assert code == 2 and "unknown instance" in err


def test_verify_theorems_budget_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-theorems", "--budget", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: 64 polynomial pairs exceed pair_cap=1; "
        "lower the degree bound or pass a coefficient subset\n"
    )


def strip_wall(text):
    return [
        {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
        for line in text.splitlines()
    ]


def test_verify_theorems_backend_identical(capsys):
    # two runs in one process must agree record for record
    runs = [
        run_cli(capsys, "verify-theorems", "--instance", "M2(Z2)/id", "--json")[1]
        for _ in range(2)
    ]
    assert len(runs[0].splitlines()) == 7
    assert strip_wall(runs[0]) == strip_wall(runs[1])


def test_verify_theorems_text_summary(capsys):
    code, out, err = run_cli(capsys, "verify-theorems", "--instance", "Z6/id")
    assert code == 0
    assert out.splitlines()[0].startswith("[PASS   ] catalog_flags on Z6/id")
    assert "6 checks: 6 passed, 0 vacuous, 0 failed" in out


# --- catalog ----------------------------------------------------------------------


def test_catalog_json(capsys):
    code, out, err = run_cli(capsys, "catalog", "list", "--json")
    assert code == 0
    listing = json.loads(out)
    assert len(listing["rings"]) == 9
    assert len(listing["systems"]) == 11
    assert len(listing["instances"]) == 10
    sizes = {r["name"]: r["size"] for r in listing["rings"]}
    assert sizes["S(Z4)"] == 4**12 and sizes["M2(Z2)"] == 16
    twisted = {r["name"]: r["maps"] for r in listing["rings"] if r["maps"] != ["id"]}
    assert twisted == {
        "Z2xZ2": ["id", "swap"], "S(Z3)": ["id", "negate-B"], "S(Z4)": ["id", "negate-B"],
    }


def test_catalog_text(capsys):
    code, out, err = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert "S(Z4)" in out and "swap-ore" in out and "R3(Z2)/id" in out


# --- explain ----------------------------------------------------------------------


def test_explain_roundtrip_property_witness(tmp_path, capsys):
    spec = (
        "ring M2(Z2)\ncheck sigma_skew_armendariz degree_bound=1\n"
        "expect sigma_skew_armendariz=fails\n"
    )
    path = write(tmp_path, "m2.spec", spec)
    code, out, err = run_cli(capsys, "check", path, "--json")
    assert code == 0
    ndjson = write(tmp_path, "m2.ndjson", out)
    code, out, err = run_cli(capsys, "explain", ndjson)
    assert code == 0
    assert out.splitlines()[0].startswith("[ok ]")


def test_explain_detects_tampering(tmp_path, capsys):
    spec = (
        "ring M2(Z2)\ncheck sigma_skew_armendariz degree_bound=1\n"
        "expect sigma_skew_armendariz=fails\n"
    )
    path = write(tmp_path, "m2.spec", spec)
    _, out, _ = run_cli(capsys, "check", path, "--json")
    rec = json.loads(out.splitlines()[0])
    rec["witness"]["f_terms"][0]["coeff"] = "[1,0;0,1]"
    ndjson = write(tmp_path, "tampered.ndjson", json.dumps(rec) + "\n")
    code, out, err = run_cli(capsys, "explain", ndjson, "--json")
    assert code == 1
    row = json.loads(out.splitlines()[0])
    assert row["verified"] is False
    assert "do not multiply to zero" in row["explanation"]


def test_explain_theorem_records(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "verify-theorems", "--instance", "Z4/id", "--json")
    ndjson = write(tmp_path, "z4.ndjson", out)
    code, out, err = run_cli(capsys, "explain", ndjson, "--json")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == 6  # summary line is skipped
    assert all(r["verified"] for r in rows)


@pytest.mark.parametrize("instance", ["M2(Z2)/id", "S(Z3)/negate-B"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_explain_theorem_records_at_each_degree_bound(tmp_path, capsys, instance, degree):
    # the NI-only Armendariz search records the degree it searched, with or
    # without a witness, and `explain` replays it there; an S ring searches
    # at most degree 1
    _, out, _ = run_cli(
        capsys, "verify-theorems", "--instance", instance, "--degree-bound", str(degree), "--json"
    )
    details = next(
        json.loads(l)["details"] for l in out.splitlines()
        if '"ni_weak_rigid_implies_weak_armendariz"' in l
    )
    searched = details.get("conclusion_fails_too") or details["conclusion_bound"]
    assert searched["degree_bound"] == (min(degree, 1) if instance.startswith("S") else degree)
    code, out, err = run_cli(capsys, "explain", write(tmp_path, "d.ndjson", out), "--json")
    assert code == 0 and all(json.loads(l)["verified"] for l in out.splitlines())


def test_explain_record_without_context(tmp_path, capsys):
    path = write(tmp_path, "z4.spec", "ring Z4\ncheck reduced\n")
    _, out, _ = run_cli(capsys, "check", path, "--json")
    rec = json.loads(out.splitlines()[0])
    assert rec["status"] == "fails"
    del rec["context"]
    ndjson = write(tmp_path, "bare.ndjson", json.dumps(rec) + "\n")
    code, out, err = run_cli(capsys, "explain", ndjson)
    assert code == 1
    assert out == (
        "[BAD] record at line 1: cannot re-verify: the record has no `context` "
        "field to rebuild its instance from\n"
    )


def test_explain_literal_mode_theorem_records(tmp_path, capsys):
    # the ideal decomposition replays in the mode its record names
    _, out, _ = run_cli(
        capsys, "verify-theorems", "--instance", "Z4/id", "--ideal-mode", "literal", "--json"
    )
    assert json.loads(out.splitlines()[4])["status"] == "vacuous"
    code, out, err = run_cli(capsys, "explain", write(tmp_path, "lit.ndjson", out), "--json")
    assert code == 0
    assert all(json.loads(l)["verified"] for l in out.splitlines())


def _m2_inner_spec():
    """M2(Z2) twisted by conjugation with [1,1;0,1], which is its own inverse."""
    from skewlab.catalog import get_ring

    r = get_ring("M2(Z2)")
    p = r.element_index("[1,1;0,1]")
    images = [int(r.mul(r.mul(p, x), p)) for x in range(r.size)]
    return f"ring M2(Z2)\nmap u = {images}\nmaps u\n"


FAILS_SPECS = {
    "m2": "ring M2(Z2)\n",
    "m2-inner": _m2_inner_spec(),
    "swap-ore": "system swap-ore\n",
}
FAILS_CASES = [
    ("reduced", "m2"), ("ni", "m2"), ("abelian", "m2"), ("sigma_rigid", "m2"),
    ("weak_sigma_rigid", "m2-inner"), ("weak_armendariz", "m2"),
    ("weak_armendariz", "m2-inner"), ("weak_sigma_skew_armendariz", "m2-inner"),
    ("sigma_skew_armendariz", "m2"), ("skew_armendariz", "m2-inner"),
    ("sigma_delta_skew_armendariz", "swap-ore"), ("skew_pi_armendariz", "swap-ore"),
]


def check_fails(tmp_path, capsys, check, spec):
    opts = " degree_bound=1" if "armendariz" in check else ""
    text = FAILS_SPECS[spec] + f"check {check}{opts}\nexpect {check}=fails\n"
    code, out, err = run_cli(capsys, "check", write(tmp_path, "f.spec", text), "--json")
    assert code == 0, err
    return json.loads(out)


def explain_one(tmp_path, capsys, rec):
    code, out, err = run_cli(
        capsys, "explain", write(tmp_path, "f.ndjson", json.dumps(rec) + "\n"), "--json"
    )
    return code, json.loads(out)


@pytest.mark.parametrize("check,spec", FAILS_CASES, ids=[f"{c}-{s}" for c, s in FAILS_CASES])
def test_explain_roundtrip_every_check(tmp_path, capsys, check, spec):
    rec = check_fails(tmp_path, capsys, check, spec)
    code, row = explain_one(tmp_path, capsys, rec)
    assert code == 0 and row["verified"] is True, row["explanation"]


def theorem_record(capsys, theorem, instance):
    from skewlab.theorems import reproduce_counterexamples

    if theorem.startswith("counterexample_"):
        recs = [r.to_record() for r in reproduce_counterexamples()]
    else:
        recs = [json.loads(l) for l in run_cli(
            capsys, "verify-theorems", "--instance", instance, "--json"
        )[1].splitlines()]
    return json.loads(json.dumps(next(r for r in recs if r.get("theorem") == theorem)))


TAMPER_CASES = [
    ("reduced", "m2", ("witness", "element"), "[1,0;0,1]"),
    ("weak_sigma_rigid", "m2-inner", ("witness", "element"), "[0,0;0,0]"),
    ("weak_armendariz", "m2-inner", ("witness", "b_j"), "[0,0;0,0]"),
    # theorem records: one details field each, re-run and compared whole
    ("catalog_flags", "Z4/id", ("details", "computed", "reduced"), True),
    ("rigid_iff_weak_reduced", "Z4/id", ("details", "rigid_witness", "element"), "3"),
    ("nil_transfer", "Z4/id", ("details", "pairs"), 15),
    ("idempotent_fixed", "Z4/id", ("details", "central_idempotents"), 1),
    ("ideal_decomposition", "Z4/id", ("details", "all_ideal_pairs_weak_rigid"), False),
    ("ni_weak_rigid_implies_weak_armendariz", "Z4/id", ("details", "bound", "zero_products"), 175),
    ("counterexample_weak_not_rigid", "R3(Z2)/id", ("details", "rigid_witness", "element"), "ut3[0,0,1,0]"),
    ("counterexample_weak_rigid_not_armendariz", "S(Z3)/negate-B", ("details", "witness", "f"), "0"),
]


@pytest.mark.parametrize(
    "check,spec,path,value", TAMPER_CASES,
    ids=["flag", "rigidity", "search"] + [f"theorem-{c[0]}" for c in TAMPER_CASES[3:]],
)
def test_explain_rejects_tampered_witness(tmp_path, capsys, check, spec, path, value):
    if "/" in spec:
        rec = theorem_record(capsys, check, spec)
        code, row = explain_one(tmp_path, capsys, rec)
        assert code == 0 and row["verified"] is True, row["explanation"]
    else:
        rec = check_fails(tmp_path, capsys, check, spec)
    *outer, field = path
    target = rec
    for key in outer:
        target = target[key]
    assert target[field] != value
    target[field] = value
    code, row = explain_one(tmp_path, capsys, rec)
    assert code == 1 and row["verified"] is False


def test_explain_malformed_fields_are_bad_records(tmp_path, capsys):
    rec = check_fails(tmp_path, capsys, "weak_armendariz", "m2")
    deep = [{**t, "exp": [3000]} for t in rec["witness"]["f_terms"]]  # past any search's degree
    broken = [
        {**rec, "witness": "abc"},
        {**rec, "witness": {**rec["witness"], "f_terms": 5}},
        {**rec, "context": "abc"},
        {**rec, "status": None},
        {**rec, "context": {"source": "verify-theorems"}},
        {**rec, "check": "nosuch"},
        {**rec, "witness": {**rec["witness"], "f_terms": deep}},
    ]
    ndjson = write(tmp_path, "bad.ndjson", "".join(json.dumps(r) + "\n" for r in broken))
    code, out, err = run_cli(capsys, "explain", ndjson)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.partition(": ")[0] for line in lines] == [
        f"[BAD] record at line {ln}" for ln in range(1, 8)
    ]
    assert lines[5] == "[BAD] record at line 6: unknown check 'nosuch'"
    assert all(": cannot re-verify: " in line for line in lines[:5] + lines[6:])
    assert lines[3].endswith("status None is not one of holds, fails, holds_up_to_bound")
    assert lines[4].endswith("is not reconstructible")


def test_explain_non_json_line_exits_2(tmp_path, capsys):
    rec = check_fails(tmp_path, capsys, "reduced", "m2")
    # a JSON line that is not an object is no record either; both name the file line
    for tail, line in [("not json", 2), ("\n[1, 2]\n\"fails\"", 3)]:
        ndjson = write(tmp_path, "mixed.ndjson", json.dumps(rec) + "\n" + tail + "\n")
        code, out, err = run_cli(capsys, "explain", ndjson)
        assert (code, out) == (2, "")
        assert err.startswith(f"{ndjson}: bad record: line {line}: ")


@pytest.mark.parametrize("a,b,verified", [
    # a nilpotent, ab = [1,0;0,0] idempotent: nil(R) does not absorb b
    ("[0,1;0,0]", "[0,0;1,0]", True),
    # neither factor is nilpotent, so the pair shows nothing
    ("[1,0;0,1]", "[0,1;1,0]", False),
], ids=["absorption-fails", "two-units"])
def test_explain_ni_product_witness(tmp_path, capsys, a, b, verified):
    # no decider emits an ni witness of kind `mul`, but a stored record may hold one
    rec = check_fails(tmp_path, capsys, "ni", "m2")
    rec["witness"] = {"kind": "mul", "a": a, "b": b}
    code, row = explain_one(tmp_path, capsys, rec)
    assert (code, row["verified"]) == (0 if verified else 1, verified)
    assert row["explanation"].startswith("nilpotent absorbs under product fails")


def test_check_budget_error_names_the_check(tmp_path, capsys):
    path = write(
        tmp_path, "s3.spec",
        "system s-negate-b(Z3)\ncheck skew_armendariz subset=full degree_bound=0\n",
    )
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert err == (
        f"{path}:line 2, col 1: 282429536481 polynomial pairs exceed pair_cap=50000000; "
        "lower the degree bound or pass a coefficient subset\n"
    )


def test_check_needing_zero_derivations_exits_2(tmp_path, capsys):
    path = write(tmp_path, "ore.spec", "system swap-ore\ncheck skew_armendariz degree_bound=1\n")
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2 and out == ""
    assert err == (
        f"{path}:line 2, col 1: skew_armendariz needs an endomorphism-type "
        "extension (all derivations zero)\n"
    )


def test_explain_empty_file(tmp_path, capsys):
    ndjson = write(tmp_path, "empty.ndjson", "\n")
    code, out, err = run_cli(capsys, "explain", ndjson)
    assert code == 2 and "no records" in err


# --- argparse plumbing --------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("skewlab ")


def test_invalid_backend_rejected(capsys):
    # options the parser does not know are usage errors; --power-bound
    # bounds the searches of `check` only
    for argv in (["check", "x.spec", "--backend", "cuda"], ["check", "x.spec", "--seed", "1"],
                 ["verify-theorems", "--power-bound", "1"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# --- process cost -------------------------------------------------------------------


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # the first np.unique of a 1-D array in a process imports numpy.ma
    # (8-20 ms, about 1.3 MB); the program dedupes by sorting instead
    spec = write(tmp_path, "m2.spec", "system untwisted(M2(Z2))\ncheck skew_pi_armendariz\n")
    code = (
        "import contextlib, io, sys\n"
        "from skewlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = main(['verify-theorems', '--json']), main(['check', {spec!r}, '--json'])\n"
        "print(*codes, 'numpy.ma' in sys.modules)\n"
    )
    assert fresh_process(code) == ["0", "0", "False"]


def test_r3_weak_armendariz_memory_guard(tmp_path):
    # the degree-2 R3(Z2) sweep covers 16,777,216 pairs; its key tables
    # are chunked at a quarter of the pair chunk, its zero pairs at most
    # 16,384 key-run survivors at a time, and the check peaks at 1.13 MiB
    # of traced memory
    spec = write(
        tmp_path, "r3.spec",
        "system untwisted(R3(Z2))\ncheck weak_armendariz degree_bound=2\n"
        "expect weak_armendariz=holds_up_to_bound\n",
    )
    code = (
        "import contextlib, io, tracemalloc\n"
        "from skewlab.cli import main\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['check', {spec!r}, '--json'])\n"
        "print(code, tracemalloc.get_traced_memory()[1])\n"
    )
    code, peak = fresh_process(code)
    assert code == "0" and int(peak) <= 2 << 20, peak
