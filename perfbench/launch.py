"""Run one skewlab CLI command in this process, as the console script would.

    python3 launch.py MARKS [--trace SPANS --run-id ID] -- ARGV...
    python3 launch.py MARKS --probe

MARKS receives monotonic-clock timestamps: `import` when skewlab.cli has
been imported and `setup` when the first decider is about to run (entry
into cli.run_spec, after the spec's rings, maps and system are built and
verified).  The parent compares them with its own spawn time; Linux
shares CLOCK_MONOTONIC between processes.

--probe builds and verifies every ring, map and system of the
verify-theorems catalog and exits; it times that command's set-up,
which the command itself interleaves with its deciders.

--trace installs the spans of tracing.py and writes them to SPANS at
exit.  Without it the only change to the program is the one-call
wrapper on cli.run_spec.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("marks")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--probe", action="store_true")
    own = sys.argv[1:]
    cut = own.index("--") if "--" in own else len(own)
    args = ap.parse_args(own[:cut])
    argv = own[cut + 1 :]

    marks: dict[str, float] = {}
    import skewlab.cli as cli

    marks["import"] = time.monotonic()
    rec = None
    try:
        if args.probe:
            from skewlab import theorems

            for entry in theorems.DEFAULT_ENTRIES:
                theorems.resolve(entry)
            marks["setup"] = time.monotonic()
            return 0
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracing

            rec = tracing.Recorder(args.run_id)
            tracing.install(rec)
        run_spec = cli.run_spec

        def first_decider(*a, **kw):
            marks.setdefault("setup", time.monotonic())
            return run_spec(*a, **kw)

        cli.run_spec = first_decider
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(args.marks).write_text(json.dumps(marks))
        if rec is not None:
            Path(args.trace).write_text(
                json.dumps({"run": rec.run_id, "missing": rec.missing, "spans": rec.spans})
            )


if __name__ == "__main__":
    sys.exit(main())
