"""Write reference.json from the program as it is now.

    python3 perfbench/record_reference.py

For every workload command it stores the exit code, the digest of the
seed-invariant part of its NDJSON, and the full NDJSON digest (minus
wall_ms) for seeds 0..SEEDS-1 (one entry, "*", for workloads without a
seed).  Run it only when an output change is intended, and say so.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

SEEDS = 20


def main() -> int:
    work = run.ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out: dict = {}
    try:
        for wl in workloads.WORKLOADS.values():
            refs = out.setdefault(wl.name, {})
            for seed in range(SEEDS) if wl.seeded else [0]:
                key = str(seed) if wl.seeded else "*"
                runner = run.Runner(work, time.monotonic() + 600.0)
                for c in workloads.commands(wl.name, seed, work):
                    res = runner.run(c.argv)
                    if res["exit"] != 0 or res["stderr"]:
                        print(f"{wl.name} {c.name} seed {seed}: exit {res['exit']}\n"
                              f"{res['stderr']}", file=sys.stderr)
                        return 1
                    inv = run.digest(res["stdout"], invariant=True)
                    ref = refs.setdefault(c.name, {"exit": 0, "invariant": inv, "seeds": {}})
                    if ref["invariant"] != inv:
                        print(f"{wl.name} {c.name}: verdicts change with seed {seed}",
                              file=sys.stderr)
                        return 1
                    ref["seeds"][key] = run.digest(res["stdout"])
                print(f"{wl.name} seed {key} recorded", flush=True)
    finally:
        shutil.rmtree(run.ROOT / ".perfbench", ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
