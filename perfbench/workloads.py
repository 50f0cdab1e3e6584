"""The benchmark workloads and the inputs each one feeds the CLI.

Every workload is a closed loop with one client: its commands run one at
a time, each in a fresh process, and the next starts only when the
previous one has exited.  Each spec carries `expect` lines, so a wrong
verdict makes the program itself exit 1.

theorem-suite
    `skewlab verify-theorems --json` over all ten catalog instances.  The
    headline user command.  Most of its time is S(Z4): ring invariants
    over the 16.7M-element carrier, orbit closures and the generic
    block-ring pair search; the R3(Z2) table sweep is most of the rest.
    It never runs PBW checks and barely uses the rewriting engine.
small-checks
    Four specs over small table rings: a full R3(Z2) degree-2 sweep
    (16,777,216 pairs, holds), early-exit witness searches on M2(Z2)
    (fail), and engine searches on the quantum plane over Z3 and the
    swap Ore extension of Z2xZ2 (derivation nonzero).  The table pair
    sweep and the rewriting engine share its time, and it mixes full
    sweeps with early exits, so a chunking change that helps one and
    costs the other shows here.

The seed relabels the small-checks rings: a random permutation of the
element indices, passed to the program as explicit add=/mul= tables with
the maps and coefficients carried along.  Index 0 stays the zero element,
because the program takes index 0 as zero in every ring.  Seed 0 is the
builtin labelling.  theorem-suite is a fixed catalog input and ignores
the seed.

rings.json holds the catalog's tables for Z3, Z2xZ2, M2(Z2) and R3(Z2)
and the swap map of Z2xZ2, with the `;` in M2(Z2) element names written
as `/`, because the spec parser splits statements at `;`.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a name for reports, the argv after `skewlab`."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # whether the seed changes the inputs
    setup_probe: bool  # set-up timed by a separate probe process


WORKLOADS = {
    "theorem-suite": Workload("theorem-suite", seeded=False, setup_probe=True),
    "small-checks": Workload("small-checks", seeded=True, setup_probe=False),
}

def _relabel(ring: dict, perm: list[int]) -> dict:
    """The same ring with element i renamed to index perm[i]."""
    n = len(perm)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    names = [""] * n
    for a in range(n):
        names[perm[a]] = ring["names"][a]
        for b in range(n):
            add[perm[a]][perm[b]] = perm[ring["add"][a][b]]
            mul[perm[a]][perm[b]] = perm[ring["mul"][a][b]]
    return {"add": add, "mul": mul, "one": perm[ring["one"]], "names": names}


def _permutation(n: int, rng: random.Random, seed: int) -> list[int]:
    rest = list(range(1, n))
    if seed:
        rng.shuffle(rest)
    return [0] + rest


def _ring_line(name: str, t: dict) -> str:
    dump = lambda v: json.dumps(v, separators=(",", ":"))  # noqa: E731
    return (
        f"ring {name} add={dump(t['add'])} mul={dump(t['mul'])} "
        f"one={t['one']} names={dump(t['names'])}"
    )


def small_check_specs(seed: int) -> dict[str, str]:
    """Spec text per command name for one seed."""
    base = json.loads((HERE / "rings.json").read_text())
    rng = random.Random(seed)
    perms = {k: _permutation(len(v["names"]), rng, seed) for k, v in sorted(base.items())}
    t = {k: _relabel(base[k], perms[k]) for k in base}
    p = perms
    swap = [0] * 4
    for a, img in enumerate(base["Z2xZ2"]["maps"]["swap"]):
        swap[p["Z2xZ2"][a]] = p["Z2xZ2"][img]
    return {
        "r3-weak-armendariz": "\n".join([
            _ring_line("R3(Z2)", t["R3(Z2)"]),
            "instance R3(Z2)/id",
            "check weak_armendariz degree_bound=2",
            "expect weak_armendariz=holds_up_to_bound",
        ]) + "\n",
        "m2-zero-products": "\n".join([
            _ring_line("M2(Z2)", t["M2(Z2)"]),
            "instance M2(Z2)/id",
            "check sigma_skew_armendariz degree_bound=2",
            "check skew_armendariz degree_bound=2",
            "check skew_pi_armendariz degree_bound=1",
            "expect sigma_skew_armendariz=fails, skew_armendariz=fails, "
            "skew_pi_armendariz=fails",
        ]) + "\n",
        "quantum-plane": "\n".join([
            _ring_line("Z3", t["Z3"]),
            "maps id, id",
            f"c[1,2] = {p['Z3'][2]}",
            "instance quantum-plane(Z3,2)",
            "check sigma_skew_armendariz degree_bound=2",
            "check skew_pi_armendariz degree_bound=1",
            "check sigma_delta_skew_armendariz degree_bound=1",
            "expect sigma_skew_armendariz=holds_up_to_bound, "
            "skew_pi_armendariz=holds_up_to_bound, "
            "sigma_delta_skew_armendariz=holds_up_to_bound",
        ]) + "\n",
        "swap-ore": "\n".join([
            _ring_line("Z2xZ2", t["Z2xZ2"]),
            f"map s = {json.dumps(swap)}",
            "derivation dd = id-minus s",
            "maps s",
            "deltas dd",
            "instance swap-ore",
            "check sigma_delta_skew_armendariz degree_bound=3",
            "check skew_pi_armendariz degree_bound=2",
            "expect sigma_delta_skew_armendariz=fails, skew_pi_armendariz=fails",
        ]) + "\n",
    }


def commands(name: str, seed: int, work: Path) -> list[Command]:
    """The workload's commands; spec files are written into `work`."""
    if name == "theorem-suite":
        return [Command("verify-theorems", ("verify-theorems", "--json"))]
    out = []
    for cname, text in small_check_specs(seed).items():
        path = work / f"{cname}.spec"
        path.write_text(text)
        out.append(Command(cname, ("check", str(path), "--json")))
    return out
