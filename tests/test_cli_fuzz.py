"""CLI contract under fuzzing: exit 0, 1 or 2, never a traceback.

Mutated valid specs and random token streams over rings of at most 16
elements and the S rings over Z2 and Z3 go through `main()`; every output is
then fed to `explain`.
Exit 1 from `check` must come with a `mismatch` record, and exit 2
with a diagnostic that names a line >= 1 of the spec.
"""
import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewlab.cli import main

# every search stays small: at most this many (f, g) pairs unless the
# spec itself sets pair_cap, whose fuzzed values are small too
BUDGET = "200000"

BASE_SPECS = [
    "ring Z4\nchecks reduced, ni, abelian, sigma_rigid, weak_sigma_rigid\n"
    "expect reduced=fails, weak_sigma_rigid=holds\n",
    "ring Z2xZ2\nmap s = swap\nmaps s\ncheck weak_sigma_skew_armendariz degree_bound=1\n"
    "expect weak_sigma_rigid=fails\n",
    "ring Z3\nmaps id, id\nc[1,2] = 2\ncheck sigma_skew_armendariz degree_bound=1\n",
    "ring Z2xZ2\nmap s = swap\nderivation dd = id-minus s\nmaps s\ndeltas dd\n"
    "check sigma_delta_skew_armendariz degree_bound=1\n",
    "system quantum-plane(Z3,2)\ncheck skew_pi_armendariz degree_bound=1 power_bound=2\n",
    "ring M2(Z2)\ncheck weak_armendariz degree_bound=1\nexpect weak_armendariz=holds\n",
    'ring F2 add=[[0,1],[1,0]] mul=[[0,0],[0,1]] one=1 names=["z","u"]\n'
    "checks reduced, abelian\ncheck skew_armendariz degree_bound=2\n",
    "ring R3(Z2)\ninstance r3\nchecks abelian, sigma_rigid\ncheck skew_armendariz degree_bound=1\n",
    "ring Z6\nmap m = [0, 1, 2, 3, 4, 5]\nmaps m\ncheck weak_armendariz degree_bound=1\n"
    "output text\n",
    "ring Z2\nmaps id, id\nd[1,2] = [1, 0, 1]\ncheck skew_pi_armendariz degree_bound=1\n",
    # S rings, with each search option at its least accepted value
    "ring S(Z2)\nmaps negate-B\nchecks reduced, ni, abelian, sigma_rigid, weak_sigma_rigid\n"
    "check weak_sigma_skew_armendariz degree_bound=0 subset=block-elementary\n"
    "expect weak_sigma_rigid=holds\n",
    "system s-negate-b(Z2)\ncheck skew_armendariz degree_bound=0 pair_cap=1\n"
    "check skew_pi_armendariz degree_bound=0 power_bound=1 subset=block-elementary\n",
    "ring S(Z2)\nmaps negate-B\nderivation dd = id-minus negate-B\ndeltas dd\n"
    "check sigma_delta_skew_armendariz degree_bound=1 subset=block-elementary\n",
    # over Z3 negate-B moves B, so id - negate-B is a nonzero derivation
    "ring S(Z3)\nmaps negate-B\nderivation dd = id-minus negate-B\ndeltas dd\n"
    "checks ni, weak_sigma_rigid\n"
    "check sigma_delta_skew_armendariz degree_bound=0 subset=block-elementary\n"
    "expect weak_sigma_rigid=holds, sigma_delta_skew_armendariz=holds_up_to_bound\n",
    "system s-negate-b(Z3)\ncheck weak_sigma_skew_armendariz degree_bound=0\n"
    "check skew_pi_armendariz degree_bound=0 power_bound=2\n",
]

CHECK_NAMES = [
    "reduced", "ni", "abelian", "sigma_rigid", "weak_sigma_rigid", "weak_armendariz",
    "skew_armendariz", "skew_pi_armendariz", "sigma_delta_skew_armendariz",
]
VOCAB = CHECK_NAMES + [
    "ring", "system", "map", "maps", "derivation", "deltas", "check", "checks",
    "expect", "instance", "output", "c[1,2]", "d[1,2]", "c[2,1]", "=", ",", ";", "#",
    "[", "]", "[0,1]", "[0, 1, 1, 0]", "0", "1", "2", "-1", "3", "17", "x",
    "Z2", "Z3", "Z4", "Z6", "Z2xZ2", "M2(Z2)", "R3(Z2)", "Z1", "Q8", "catalog:Z3",
    "S(Z2)", "swap-ore", "quantum-plane(Z3,2)", "untwisted(Z4)", "s-negate-b(Z2)",
    "S(Z3)", "s-negate-b(Z3)",
    "swap", "negate-B", "id", "s", "zero",
    "id-minus", "id-minus s", "images=[0,0,0,0]", "sigma=s", "degree_bound=1",
    "degree_bound=", "power_bound=2", "pair_cap=50", "subset=full", "subset=block-elementary", "holds", "fails", "reduced=fails", "json", "text",
    "add=[[0,1],[1,0]]", "mul=[[0,0],[0,1]]", "one=1", 'names=["z","u"]',
]
VALUES = ["-1", "0", "1", "2", "3", "5", "17", "x", "", "1.5", "[1]", "Z4", "s"]


@st.composite
def mutated_spec(draw):
    lines = draw(st.sampled_from(BASE_SPECS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "number", "token", "char", "option"]))
        k = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "drop" and lines:
            del lines[k]
        elif op == "dup" and lines:
            lines.insert(k, lines[k])
        elif op == "swap" and len(lines) > 1:
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "number" and lines:
            nums = list(re.finditer(r"-?\d+", lines[k]))
            if nums:
                m = draw(st.sampled_from(nums))
                lines[k] = lines[k][: m.start()] + draw(st.sampled_from(VALUES)) + lines[k][m.end():]
        elif op == "token":
            toks = lines[k].split(" ") if lines else []
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(VOCAB)))
            lines[k:k + 1] = [" ".join(toks)]
        elif op == "char" and lines and lines[k]:
            i = draw(st.integers(0, len(lines[k]) - 1))
            lines[k] = lines[k][:i] + lines[k][i + 1:]
        elif op == "option":
            key = draw(st.sampled_from(["degree_bound", "power_bound", "pair_cap", "subset"]))
            name = draw(st.sampled_from(CHECK_NAMES))
            lines.append(f"check {name} {key}={draw(st.sampled_from(VALUES))}")
    return "\n".join(lines) + "\n"


token_stream = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6).map(" ".join), max_size=6
).map(lambda ls: "\n".join(ls) + "\n")


def assert_contract(tmp_path, capsys, text):
    path = tmp_path / "fuzz.spec"
    path.write_text(text)
    code = main(["check", str(path), "--json", "--budget", BUDGET])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        # the spec is readable, so every diagnostic names a statement
        assert out == ""
        m = re.match(rf"{re.escape(str(path))}:line (\d+), col (\d+): ", err)
        assert m and int(m.group(1)) >= 1, err
        return
    records = [json.loads(line) for line in out.splitlines()]
    assert (code == 1) == any(r.get("mismatch") for r in records)
    if records:
        witness = tmp_path / "fuzz.ndjson"
        witness.write_text(out)
        code = main(["explain", str(witness), "--json"])
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0, rows
        assert len(rows) == len(records)


FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(text=mutated_spec())
def test_mutated_specs_keep_contract(tmp_path, capsys, text):
    assert_contract(tmp_path, capsys, text)


@FUZZ
@given(text=token_stream)
def test_token_streams_keep_contract(tmp_path, capsys, text):
    assert_contract(tmp_path, capsys, text)
