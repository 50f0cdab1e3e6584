"""skewlab end-to-end benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/skewlab).  The
workloads are defined and explained in workloads.py; each command runs
in a fresh process through launch.py, one at a time.  A run repeats
whole passes over the workload's commands while the next pass is
expected to end within S seconds, and always makes at least one.

Untraced (--trace 0) metrics:
  wall_s       median over passes of the summed wall-clock of one pass
  setup_s      process start until every ring, map and system is built
               and verified, before the first decider runs; summed over
               a pass's commands, median over passes (theorem-suite:
               median of PROBES probe processes, see launch.py)
  peak_rss_mb  the largest child max-RSS (os.wait4) in the run
Traced (--trace 1) metrics are the per_layer names of BENCHMARK.json:
self time and counts of each layer from tracing.py, per pass.

Every command's exit code and NDJSON (minus wall_ms) is checked against
reference.json; `attempted` and `failed` count commands, and a run with
any failure reports correct=false, so its timings must not be compared.
The line before the result stamps the environment the numbers came
from; results from different stamps are not comparable.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBES = 5
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment_stamp() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": numba_ok,
        "git_rev": rev,
        "source_sha256": src.hexdigest(),
    }


def digest(stdout: str, invariant: bool = False) -> str:
    """sha256 of the NDJSON records minus wall_ms.

    invariant=True also drops what the seed's relabelling changes: the
    spec text in `context` and the witness values (their keys stay).
    """
    lines = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        rec.pop("wall_ms", None)
        if invariant:
            rec.pop("context", None)
            if rec.get("witness"):
                rec["witness"] = sorted(rec["witness"])
        lines.append(json.dumps(rec, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Runner:
    """Runs commands in fresh processes and keeps their files in `work`."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline  # time.monotonic() by which a child is killed
        self.env = child_env()
        self.count = 0

    def run(self, argv, trace: bool = False, probe: bool = False) -> dict:
        self.count += 1
        tag = f"c{self.count}"
        out_p, err_p = self.work / f"{tag}.out", self.work / f"{tag}.err"
        marks_p, spans_p = self.work / f"{tag}.marks", self.work / f"{tag}.spans"
        cmd = [sys.executable, str(HERE / "launch.py"), str(marks_p)]
        if trace:
            cmd += ["--trace", str(spans_p), "--run-id", tag]
        if probe:
            cmd += ["--probe"]
        cmd += ["--", *argv]
        budget = max(1.0, self.deadline - time.monotonic())
        with open(out_p, "wb") as fo, open(err_p, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT, env=self.env)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child along
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        marks = json.loads(marks_p.read_text()) if marks_p.exists() else {}
        res = {
            "argv": list(argv),
            "exit": proc.returncode,
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "setup": marks["setup"] - t0 if "setup" in marks else None,
            "import": marks["import"] - t0 if "import" in marks else None,
            "stdout": out_p.read_text(),
            "stderr": err_p.read_text(),
        }
        if trace and spans_p.exists():
            spans = json.loads(spans_p.read_text())
            res["layers"] = tracing.aggregate(spans["spans"])
            res["missing"] = spans["missing"]
        return res


def check(res: dict, ref: dict, seed_key: str) -> str | None:
    """None when the command's output matches the reference, else why not."""
    if res["exit"] != ref["exit"]:
        return f"exit {res['exit']} (reference {ref['exit']})"
    if "Traceback" in res["stderr"]:
        return "traceback on stderr"
    try:
        if digest(res["stdout"], invariant=True) != ref["invariant"]:
            return "verdicts differ from the reference"
        full = ref["seeds"].get(seed_key)
        if full is not None and digest(res["stdout"]) != full:
            return "NDJSON differs from the reference"
    except (json.JSONDecodeError, AttributeError) as e:
        return f"unreadable NDJSON: {e}"
    return None


def reverify(runner: Runner, commands, first_pass) -> dict[str, str]:
    """Re-check every `fails` witness of one pass with `skewlab explain`."""
    out = {}
    for c, res in zip(commands, first_pass):
        if '"status": "fails"' not in res["stdout"]:
            continue
        path = runner.work / f"{c.name}.ndjson"
        path.write_text(res["stdout"])
        got = runner.run(["explain", str(path), "--json"])
        if got["exit"] != 0 or "Traceback" in got["stderr"]:
            out[f"pass 0 {c.name}"] = f"explain exit {got['exit']}\n{got['stdout']}"
    return out


def layer_metrics(pass_results: list[dict], names: list[str]) -> dict:
    """Per-layer metric values of one pass (summed over its commands)."""
    layers: dict = {}
    for res in pass_results:
        for layer, row in res.get("layers", {}).items():
            acc = layers.setdefault(layer, {})
            for k, v in row.items():
                acc[k] = acc.get(k, 0.0) + v

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "trace.wall_s": lambda: sum(r["wall"] for r in pass_results),
        "process.import.ms": lambda: 1000.0 * sum(r["import"] or 0.0 for r in pass_results),
        "catalog.calls": lambda: get("catalog.build", "calls"),
        "poly.engine.products": lambda: get("poly.engine", "calls"),
        "catalog.hit_ratio": lambda: ratio(
            get("catalog.build", "hits"), get("catalog.build", "calls")
        ),
        "kernels.zero_ratio": lambda: ratio(
            get("kernels.table_search", "zeros") + get("kernels.generic_search", "zeros"),
            get("kernels.table_search", "pairs") + get("kernels.generic_search", "pairs"),
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]()
            continue
        layer, field = name.rsplit(".", 1)
        if field == "pairs_per_s":
            out[name] = ratio(get(layer, "pairs"), get(layer, "ms") / 1000.0)
        else:
            out[name] = get(layer, field)
    return out


def median_line(samples: list[float]) -> str:
    return f"median {statistics.median(samples):.3f}s over {len(samples)} samples"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "skewlab" / "cli.py").is_file():
        print(f"error: no skewlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm = subprocess.run(
        [sys.executable, "-c", "import skewlab.cli"], cwd=ROOT, env=child_env(),
        capture_output=True, text=True,
    )
    if warm.returncode != 0:
        print(f"error: skewlab does not import:\n{warm.stderr}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    seed_key = str(args.seed) if wl.seeded else "*"
    stamp = environment_stamp()

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands = workloads.commands(wl.name, args.seed, work)
        runner = Runner(work, started + DEADLINE_S)
        probes = []
        if wl.setup_probe and not args.trace:
            probes = [runner.run([], probe=True) for _ in range(PROBES)]
        passes, longest = [], 0.0
        window = time.monotonic()
        while True:  # another pass only if one as long as the longest yet still fits
            t0 = time.monotonic()
            passes.append([runner.run(c.argv, trace=bool(args.trace)) for c in commands])
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() - window + longest > args.seconds:
                break

        # failing command -> why; a run with any entry is not correct
        failures: dict[str, str] = {}
        first: dict[str, str] = {}  # command -> digest of its first correct output
        for i, p in enumerate(passes):
            for c, res in zip(commands, p):
                why = check(res, reference[c.name], seed_key)
                if why is None and first.setdefault(c.name, digest(res["stdout"])) != digest(
                    res["stdout"]
                ):
                    why = "NDJSON differs between passes"
                if why:
                    failures[f"pass {i} {c.name}"] = why
        for i, res in enumerate(probes):
            if res["exit"] != 0 or res["setup"] is None:
                failures[f"set-up probe {i}"] = f"exit {res['exit']}\n{res['stderr'][-2000:]}"
        if wl.seeded and any(seed_key not in reference[c.name]["seeds"] for c in commands):
            failures.update(reverify(runner, commands, passes[0]))
        attempted = sum(len(p) for p in passes) + len(probes)

        pass_walls = [sum(r["wall"] for r in p) for p in passes]
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            per_pass = [layer_metrics(p, names) for p in passes]
            values, unsteady = {}, []
            for name in names:
                vals = [m[name] for m in per_pass]
                if units[name] in ("count", "ratio") and len(set(vals)) > 1:
                    unsteady.append(f"{name} differs between passes: {vals}")
                values[name] = statistics.median(vals)
            # a metric of an absent target would read 0, a false gain
            missing = sorted({m for p in passes for r in p for m in r.get("missing", [])})
        else:
            unsteady, missing = [], []
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            if probes:
                setups = [r["setup"] for r in probes if r["setup"] is not None]
            else:
                setups = [sum(r["setup"] or 0.0 for r in p) for p in passes]
            values = {
                "wall_s": statistics.median(pass_walls),
                "setup_s": statistics.median(setups) if setups else 0.0,
                "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
            }
        failed = len(failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass

    cmd_walls = [r["wall"] for p in passes for r in p]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(commands)} commands")
    print(f"pass wall: {median_line(pass_walls)}")
    print(f"command wall: {median_line(cmd_walls)}")
    print(f"fail_rate {failed}/{attempted}")
    for key, why in failures.items():
        print(f"FAILED {key}: {why}")
    for why in unsteady:
        print(f"NOT REPEATED {why}")
    if missing:
        print("NOT TRACED (absent from the program): " + ", ".join(missing))
    print("environment " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": failed == 0 and not unsteady and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
