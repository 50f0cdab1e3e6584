"""Steadiness check: sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py

Each of SETS sets runs every BENCHMARK.json workload untraced once per
seed 1..SEEDS, interleaving the workloads, and traced for the first
TRACED seeds.  For every end-to-end metric it prints each set's median
and the spread (distance between the quartiles of
statistics.quantiles(n=4), as a share of the median) against the
metric's bound, and the change of each set's median from the first
set's.  It checks that every traced count and ratio repeats exactly for
the same seed, reports tracing overhead (traced minus untraced wall_s,
medians) and each run's duration, and refuses results whose environment
stamps differ.  Exit 1 when a spread exceeds a third of its bound, a
median gets worse by more than its bound, a count does not repeat, or a
run is incorrect.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS, SEEDS, TRACED = 2, 10, 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.monotonic()
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {got.returncode}\n{got.stderr}")
    stamp = next(json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("environment "))
    return json.loads(lines[-1]), stamp, time.monotonic() - t0


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    # sets[s][workload] = {"untraced": [metrics per seed], "traced": {seed: metrics}}
    sets, stamps, bad, durations = [], set(), [], []
    for s in range(SETS):
        cur = {w: {"untraced": [], "traced": {}} for w in names}
        for seed in range(1, SEEDS + 1):
            for w in names:
                for trace in (0, 1) if seed <= TRACED else (0,):
                    res, stamp, took = one_run(w, seed, seconds, trace)
                    stamps.add(json.dumps(stamp, sort_keys=True))
                    durations.append(took)
                    print(json.dumps({"set": s, "workload": w, "seed": seed, "trace": trace,
                                      "run_s": took, "result": res}), flush=True)
                    if not res["correct"]:  # its timings are not compared
                        bad.append(f"set {s} {w} seed {seed} trace {trace}: incorrect")
                        continue
                    vals = {k: m["value"] for k, m in res["metrics"].items()}
                    if trace:
                        cur[w]["traced"][seed] = vals
                    else:
                        cur[w]["untraced"].append(vals)
        sets.append(cur)
    if len(stamps) > 1:
        bad.append("environment stamps differ between runs:\n  " + "\n  ".join(sorted(stamps)))

    print()
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = None
            for s, cur in enumerate(sets):
                vals = [v[name] for v in cur[w]["untraced"]]
                med, spr = statistics.median(vals), spread(vals)
                base = med if base is None else base
                change = (med - base) / base if base else 0.0
                if m["better"] == "higher":
                    change = -change
                flags = []
                if spr > bound / 3:
                    flags.append("SPREAD")
                if change > bound:
                    flags.append("MOVED")
                bad += [f"{w} {name} set {s}: {f}" for f in flags]
                print(f"{w:14s} {name:12s} set {s}: median {med:10.4f} {m['unit']:3s} "
                      f"spread {spr:6.2%} (bound {bound:.0%}, third {bound / 3:.1%}) "
                      f"vs set 0 {change:+6.2%} {' '.join(flags)}")
        exact = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "ratio")]
        for seed in sets[0][w]["traced"]:
            for name in exact:
                seen = {cur[w]["traced"][seed][name] for cur in sets}
                if len(seen) > 1:
                    bad.append(f"{w} seed {seed}: {name} does not repeat: {sorted(seen)}")
        for s, cur in enumerate(sets):
            traced = [v["trace.wall_s"] for v in cur[w]["traced"].values()]
            if traced:
                plain = statistics.median(v["wall_s"] for v in cur[w]["untraced"])
                print(f"{w:14s} tracing overhead set {s}: "
                      f"{statistics.median(traced) - plain:+.3f} s on {plain:.3f} s")
    print(f"runs: {len(durations)}, median {statistics.median(durations):.1f} s, "
          f"longest {max(durations):.1f} s, total {sum(durations):.0f} s")
    for b in bad:
        print("NOT STEADY: " + b)
    print("steady" if not bad else f"{len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
