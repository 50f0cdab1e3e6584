"""Batch front-end: spec files in, newline-delimited JSON records out.

Spec files declare one instance and a list of checks, one statement per
line (or `;`-separated); `#` starts a comment.  Statements:

    ring Z4                        # builtin ring (catalog: prefix ok)
    ring W add=[[...]] mul=[[...]] one=1 names=["0","1",...]
    system quantum-plane(Z3,2)     # builtin extension, replaces ring/maps
    map s = swap                   # builtin map, or explicit images [0,3,2,1]
    derivation dd = id-minus s     # or: zero, or images=[...] sigma=s
    maps id, s                     # the twist family, one map per variable
    deltas zero, dd                # per-variable derivations (default zero)
    c[1,2] = 2                     # leading coefficient of the x2*x1 rewrite
    d[1,2] = [1, 0, 1]             # lower-order terms: constant, then linear
    instance my-label              # optional report label
    output json                    # or: text
    checks weak_sigma_rigid, reduced
    check weak_sigma_skew_armendariz degree_bound=2 subset=block-elementary
    expect weak_sigma_rigid=holds, sigma_rigid=fails

Exit codes: 0 all checks ran and expectations matched, 1 an `expect`
mismatch or failed theorem/witness, 2 spec or usage errors.  Records
carry a `wall_ms` field; strip it before comparing runs byte-for-byte.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .catalog import (
    UnknownNameError,
    catalog_listing,
    get_map,
    get_ring,
    get_system,
)
from .maps import (
    MapVerificationError,
    SigmaFamily,
    id_minus_sigma_derivation,
    identity_map,
    verify_endomorphism,
    verify_sigma_derivation,
    zero_derivation,
)
from .poly import CommutationSystem, PbwAxiomError, require_pbw
from .properties import (
    DECIDERS,
    DEFAULT_DEGREE_BOUND,
    DEFAULT_PAIR_CAP,
    DEFAULT_POWER_BOUND,
    NotEndomorphismTypeError,
    PropertyVerdict,
    SearchBudget,
    budget_fields,
    decide,
    recheck,
    subset_fields,
)
from .rings import (
    FiniteRing,
    RingError,
    SRing,
    TableRing,
)
from . import theorems as theorem_suite

RECORD_FIELDS = (
    "check",
    "instance",
    "status",
    "witness",
    "bound",
    "expected",
    "context",
    "wall_ms",
)
EXPECT_STATUSES = ("holds", "fails", "holds_up_to_bound")


class SpecError(Exception):
    """Spec-file diagnostic carrying a 1-based line/column position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self):
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message


# what the library raises on bad input; each command turns these into a
# diagnostic, while internal faults (ConsistencyError, IndexError) propagate
_INPUT_ERRORS = (
    KeyError, ValueError, RingError, MapVerificationError, NotEndomorphismTypeError
)


def _message(e: Exception) -> str:
    # a KeyError's str() is the repr of its argument, quotes and all
    return e.args[0] if isinstance(e, KeyError) and e.args else str(e)


# ---------------------------------------------------------------------------
# spec files


@dataclass
class CheckRequest:
    name: str
    kwargs: dict = field(default_factory=dict)
    line: int = 0
    col: int = 0


@dataclass
class SpecFile:
    """Parsed and validated declaration of one instance plus its checks."""

    ring_name: str | None = None
    ring_tables: dict | None = None
    system_name: str | None = None
    map_decls: dict = field(default_factory=dict)  # name -> source text
    deriv_decls: dict = field(default_factory=dict)  # name -> source text
    family: list = field(default_factory=list)  # map names, one per variable
    deltas: list = field(default_factory=list)  # derivation names / "zero"
    c_entries: dict = field(default_factory=dict)  # (i, j) 0-based -> token
    d_entries: dict = field(default_factory=dict)  # (i, j) 0-based -> list
    label: str = ""
    output_json: bool = True
    checks: list = field(default_factory=list)
    expects: dict = field(default_factory=dict)
    # resolved objects, filled by parse_spec
    ring: FiniteRing | None = field(default=None, repr=False, compare=False)
    system: CommutationSystem | None = field(default=None, repr=False, compare=False)

    @property
    def instance(self) -> str:
        if self.label:
            return self.label
        if self.system_name:
            return self.system_name
        maps = "+".join(self.family) if self.family else "id"
        return f"{self.ring_name}/{maps}"

    def serialize(self) -> str:
        """Canonical statement-per-line text; reparses to an equal spec."""
        out = []
        if self.system_name:
            out.append(f"system {self.system_name}")
        elif self.ring_tables is not None:
            t = self.ring_tables
            out.append(
                f"ring {self.ring_name} add={json.dumps(t['add'])} "
                f"mul={json.dumps(t['mul'])} one={t['one']} "
                f"names={json.dumps(t['names'])}"
            )
        elif self.ring_name:
            out.append(f"ring {self.ring_name}")
        for name, src in self.map_decls.items():
            out.append(f"map {name} = {src}")
        for name, src in self.deriv_decls.items():
            out.append(f"derivation {name} = {src}")
        if self.family:
            out.append("maps " + ", ".join(self.family))
        if self.deltas and any(d != "zero" for d in self.deltas):
            out.append("deltas " + ", ".join(self.deltas))
        for (i, j), tok in sorted(self.c_entries.items()):
            out.append(f"c[{i + 1},{j + 1}] = {tok}")
        for (i, j), row in sorted(self.d_entries.items()):
            out.append(f"d[{i + 1},{j + 1}] = {json.dumps(row)}")
        if self.label:
            out.append(f"instance {self.label}")
        out.append(f"output {'json' if self.output_json else 'text'}")
        for ck in self.checks:
            kw = "".join(f" {k}={v}" for k, v in ck.kwargs.items())
            out.append(f"check {ck.name}{kw}")
        if self.expects:
            out.append(
                "expect " + ", ".join(f"{k}={v}" for k, v in self.expects.items())
            )
        return "\n".join(out) + "\n"


def _statements(text: str):
    """Yield (line, col, statement) with comments stripped, both 1-based."""
    for ln, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        col = 1
        for piece in body.split(";"):
            stmt = piece.strip()
            if stmt:
                yield ln, col + len(piece) - len(piece.lstrip()), stmt
            col += len(piece) + 1


def _token_col(stmt: str, col0: int, token: str) -> int:
    pos = stmt.find(token)
    return col0 + (pos if pos >= 0 else 0)


_KV_RE = re.compile(r"\b(\w+)\s*=")


def _parse_kv(rest: str, line: int, col: int) -> dict:
    """key=value pairs where values run to the next key (JSON allowed)."""
    hits = list(_KV_RE.finditer(rest))
    if not hits:
        return {}
    lead = rest[: hits[0].start()].strip()
    if lead:
        raise SpecError(f"unexpected token {lead!r}", line, col)
    out = {}
    for h, nxt in zip(hits, hits[1:] + [None]):
        end = nxt.start() if nxt is not None else len(rest)
        val = rest[h.end() : end].strip().rstrip(",")
        if not val:
            raise SpecError(f"missing value for {h.group(1)!r}", line, col)
        out[h.group(1)] = val
    return out


# least accepted value of each integer search-budget option
BUDGET_MIN = {"degree_bound": 0, "power_bound": 1, "pair_cap": 1}
SUBSETS = ("full", "block-elementary")


def _int_value(token: str, what: str, line: int = 0, col: int = 0, minimum=None) -> int:
    try:
        value = int(token)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {token!r}", line, col) from None
    if minimum is not None and value < minimum:
        raise SpecError(f"{what} must be >= {minimum}, got {value}", line, col)
    return value


def _ints(v, depth: int) -> bool:
    """v is a list of int32 values nested `depth` deep (bools are not integers).

    Tables and images are stored as int32, and a wider value would wrap
    into range silently.
    """
    if depth == 0:
        return type(v) is int and -(1 << 31) <= v < 1 << 31
    return isinstance(v, list) and all(_ints(x, depth - 1) for x in v)


# the JSON shapes a spec value may take: description, test
_SHAPES = {
    "list": ("list", lambda v: isinstance(v, list)),
    "ints": ("list of 32-bit integers", lambda v: _ints(v, 1)),
    "table": ("list of lists of 32-bit integers", lambda v: _ints(v, 2)),
}


def _json_value(token: str, what: str, line: int, col: int, shape: str = "list"):
    try:
        value = json.loads(token)
    except json.JSONDecodeError as e:
        raise SpecError(f"bad JSON in {what}: {e}", line, col) from None
    desc, ok = _SHAPES[shape]
    if not ok(value):
        raise SpecError(f"{what} must be a JSON {desc}", line, col)
    return value


_CD_RE = re.compile(r"([cd])\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)")


def parse_spec(text: str) -> SpecFile:
    """Parse and validate; raises SpecError with line/col on any problem."""
    spec = SpecFile()
    pos: dict[str, tuple[int, int]] = {}
    for line, col, stmt in _statements(text):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        cd = _CD_RE.fullmatch(stmt)
        if stmt.startswith("expect"):
            head, rest = "expect", stmt[len("expect"):].lstrip(":").strip()
        if head in ("ring", "system"):
            if spec.ring_name or spec.system_name:
                raise SpecError("ring/system declared twice", line, col)
            pos["ring"] = (line, col)
            if head == "system":
                spec.system_name = rest
            else:
                name, _, tail = rest.partition(" ")
                name = name.removeprefix("catalog:")
                if tail.strip():
                    kv = _parse_kv(tail.strip(), line, col)
                    missing = {"add", "mul", "one", "names"} - set(kv)
                    if missing:
                        raise SpecError(
                            f"explicit ring tables need {sorted(missing)}", line, col
                        )
                    spec.ring_tables = {
                        "add": _json_value(kv["add"], "add table", line, col, "table"),
                        "mul": _json_value(kv["mul"], "mul table", line, col, "table"),
                        "one": _int_value(kv["one"], "one", line, col),
                        "names": _json_value(kv["names"], "names", line, col),
                    }
                spec.ring_name = name
        elif head == "map":
            name, _, src = rest.partition("=")
            name, src = name.strip(), src.strip()
            if not name or not src:
                raise SpecError("map statement needs `map NAME = SPEC`", line, col)
            spec.map_decls[name] = src
            pos[f"map:{name}"] = (line, col)
        elif head == "derivation":
            name, _, src = rest.partition("=")
            name, src = name.strip(), src.strip()
            if not name or not src:
                raise SpecError(
                    "derivation statement needs `derivation NAME = SPEC`", line, col
                )
            spec.deriv_decls[name] = src
            pos[f"deriv:{name}"] = (line, col)
        elif head == "maps":
            spec.family = [t.strip() for t in rest.split(",") if t.strip()]
            pos["maps"] = (line, col)
            for nm in spec.family:
                pos[f"fam:{nm}"] = (line, _token_col(stmt, col, nm))
        elif head == "deltas":
            spec.deltas = [t.strip() for t in rest.split(",") if t.strip()]
            pos["deltas"] = (line, col)
        elif cd:
            kind, i, j, payload = cd.group(1), int(cd.group(2)), int(cd.group(3)), cd.group(4).strip()
            if not 1 <= i < j:
                raise SpecError(f"{kind}[{i},{j}] needs 1 <= i < j", line, col)
            if kind == "c":
                spec.c_entries[(i - 1, j - 1)] = payload
            else:
                spec.d_entries[(i - 1, j - 1)] = _json_value(
                    payload, f"d[{i},{j}]", line, col
                )
            pos.setdefault("cd", (line, col))
            pos[f"{kind}{(i - 1, j - 1)}"] = (line, col)
        elif head == "instance":
            spec.label = rest
        elif head == "output":
            if rest not in ("json", "text"):
                raise SpecError("output must be `json` or `text`", line, col)
            spec.output_json = rest == "json"
        elif head in ("check", "checks"):
            if head == "checks":
                names = [t.strip() for t in rest.split(",") if t.strip()]
                for nm in names:
                    spec.checks.append(
                        CheckRequest(nm, {}, line, _token_col(stmt, col, nm))
                    )
            else:
                name, _, tail = rest.partition(" ")
                kw = _parse_kv(tail.strip(), line, col) if tail.strip() else {}
                spec.checks.append(CheckRequest(name, kw, line, col))
        elif head == "expect":
            for part in rest.split(","):
                part = part.strip()
                if not part:
                    continue
                k, eq, v = part.partition("=")
                k, v = k.strip(), v.strip()
                if not eq or v not in EXPECT_STATUSES:
                    raise SpecError(
                        f"expect entries look like CHECK=STATUS with STATUS in "
                        f"{EXPECT_STATUSES}, got {part!r}",
                        line,
                        _token_col(stmt, col, part),
                    )
                spec.expects[k] = v
                pos[f"expect:{k}"] = (line, _token_col(stmt, col, part))
        else:
            raise SpecError(f"unknown statement {head!r}", line, col)
    _resolve_spec(spec, pos)
    return spec


def _resolve_spec(spec: SpecFile, pos: dict) -> None:
    """Build ring/maps/system objects; any failure is a SpecError.

    Each step names the statement it resolves in `key`; one handler turns
    the library's input errors into a SpecError at that statement.
    """
    key = "ring"

    def err(msg: str) -> SpecError:
        return SpecError(msg, *pos.get(key, pos.get("ring", (0, 0))))

    if not (spec.ring_name or spec.system_name):
        raise SpecError("no ring or system declared", 1, 1)
    try:
        if spec.system_name:
            if spec.family or spec.deltas or spec.c_entries or spec.d_entries:
                raise err("a builtin system cannot be combined with maps/deltas/c/d")
            spec.system = get_system(spec.system_name)
            spec.ring = spec.system.ring
            spec.ring_name = spec.ring.name
        else:
            t = spec.ring_tables
            ring = spec.ring = get_ring(spec.ring_name) if t is None else TableRing(
                spec.ring_name,
                np.asarray(t["add"]),
                np.asarray(t["mul"]),
                int(t["one"]),
                [str(s) for s in t["names"]],
            )

            def builtin_map(name: str):
                # the catalog cache keys maps by ring name, which an
                # explicit-table ring must not share
                if t is None:
                    return get_map(ring, name)
                if name.strip() in ("id", "identity"):
                    return identity_map(ring)
                raise UnknownNameError(
                    f"unknown map {name.strip()!r} on {ring.name}; available: id"
                )

            resolved_maps = {}

            def map_named(name: str):
                return resolved_maps[name] if name in resolved_maps else builtin_map(name)

            for name, src in spec.map_decls.items():
                key = f"map:{name}"
                if src.lstrip().startswith("["):
                    images = _json_value(src, f"map {name}", *pos[key], "ints")
                    resolved_maps[name] = verify_endomorphism(
                        ring, np.asarray(images, dtype=np.int64), name
                    )
                else:
                    resolved_maps[name] = builtin_map(src)

            spec.family = spec.family or ["id"]
            fam_maps = []
            for name in spec.family:
                key = f"fam:{name}"
                fam_maps.append(map_named(name))
            family = SigmaFamily(ring, fam_maps)

            key = "deltas"
            spec.deltas = spec.deltas or ["zero"] * family.n
            if len(spec.deltas) != family.n:
                raise err(f"{len(spec.deltas)} deltas for {family.n} variables")
            deltas = []
            for name, sigma in zip(spec.deltas, fam_maps):
                key = "deltas"
                src = "zero" if name == "zero" else spec.deriv_decls.get(name)
                if src is None:
                    raise err(f"unknown derivation {name!r}")
                key = f"deriv:{name}"
                if src == "zero":
                    deltas.append(zero_derivation(ring, sigma))
                elif src.startswith("id-minus"):
                    base = map_named(src.removeprefix("id-minus").strip())
                    deltas.append(id_minus_sigma_derivation(ring, base))
                else:
                    kv = _parse_kv(src, *pos[key])
                    if "images" not in kv or "sigma" not in kv:
                        raise err("explicit derivations need images=[...] sigma=MAP")
                    base = map_named(kv["sigma"])
                    images = _json_value(kv["images"], f"derivation {name}", *pos[key], "ints")
                    deltas.append(
                        verify_sigma_derivation(
                            ring, base, np.asarray(images, dtype=np.int64), name
                        )
                    )

            def elem(token):
                if isinstance(token, str):
                    token = token.strip().strip('"')
                    try:
                        token = int(token)
                    except ValueError:
                        return ring.element_index(token)
                if type(token) is not int or not 0 <= token < ring.size:
                    raise err(
                        f"{token!r} is not an element index of {ring.name} (size {ring.size})"
                    )
                return token

            c, d = {}, {}
            for pair, tok in spec.c_entries.items():
                key = f"c{pair}"
                c[pair] = elem(tok)
            for pair, row in spec.d_entries.items():
                key = f"d{pair}"
                vals = [elem(v) for v in row]
                if len(vals) == 1:
                    vals += [ring.zero] * family.n
                if len(vals) != family.n + 1:
                    raise err(
                        f"d[{pair[0] + 1},{pair[1] + 1}] needs 1 constant + "
                        f"{family.n} linear entries"
                    )
                d[pair] = (vals[0], tuple(vals[1:]))
            key = "cd"
            for (i, j) in list(c) + list(d):
                if j >= family.n:
                    raise err(f"c/d entry references x{j + 1} but n = {family.n}")
            key = "ring"
            spec.system = CommutationSystem(
                ring, family, delta=deltas, c=c, d=d, name=spec.instance
            )
        require_pbw(spec.system)
    except PbwAxiomError as e:
        check, detail = e.report.failures[0]
        key = "cd" if check.startswith(("c_nonzero", "overlap")) and "cd" in pos else "ring"
        raise err(f"axiom violation {check}: {detail}") from None
    except _INPUT_ERRORS as e:
        raise err(_message(e)) from None

    for ck in spec.checks:
        if ck.name not in DECIDERS:
            raise SpecError(
                f"unknown check {ck.name!r}; available: {', '.join(sorted(DECIDERS))}",
                ck.line,
                ck.col,
            )
        reads = budget_fields(ck.name)
        for k, v in ck.kwargs.items():
            if k not in reads:
                raise SpecError(
                    f"{ck.name} reads no option {k!r}; its options: {', '.join(reads) or 'none'}",
                    ck.line, ck.col,
                )
            if k in BUDGET_MIN:
                _int_value(v, k, ck.line, ck.col, BUDGET_MIN[k])
            elif v not in SUBSETS:
                raise SpecError(
                    f"subset must be one of {', '.join(SUBSETS)}, got {v!r}", ck.line, ck.col
                )
            elif v == "block-elementary" and not isinstance(spec.ring, SRing):
                raise SpecError("subset=block-elementary needs an S ring", ck.line, ck.col)
    declared = {ck.name for ck in spec.checks}
    for name in spec.expects:
        if name not in DECIDERS:
            raise SpecError(
                f"expect references unknown check {name!r}", *pos[f"expect:{name}"]
            )
        if name not in declared:
            spec.checks.append(CheckRequest(name, {}, *pos[f"expect:{name}"]))


# ---------------------------------------------------------------------------
# running checks

def _budget_from(ck: CheckRequest, spec: SpecFile, defaults: dict) -> SearchBudget:
    kw = {**defaults, **ck.kwargs}
    return SearchBudget(
        degree_bound=int(kw.get("degree_bound", DEFAULT_DEGREE_BOUND)),
        power_bound=int(kw.get("power_bound", DEFAULT_POWER_BOUND)),
        pair_cap=int(kw.get("pair_cap", DEFAULT_PAIR_CAP)),
        **subset_fields(spec.ring, kw.get("subset")),
    )


def run_check(ck: CheckRequest, spec: SpecFile, defaults: dict) -> PropertyVerdict:
    return decide(ck.name, spec.system, _budget_from(ck, spec, defaults), spec.instance)


def run_spec(spec: SpecFile, defaults: dict | None = None) -> tuple[list[dict], int]:
    """Execute every check; returns (records, exit_code).

    A check that the library refuses (a budget it would exceed, a
    derivation it cannot take) raises a SpecError at that check.
    """
    defaults = defaults or {}
    context = {"source": "spec", "spec_text": spec.serialize()}
    records = []
    mismatch = False
    for ck in spec.checks:
        t0 = time.perf_counter()
        try:
            verdict = run_check(ck, spec, defaults)
        except _INPUT_ERRORS as e:
            raise SpecError(_message(e), ck.line, ck.col) from None
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        rec = {
            "check": verdict.property,
            "instance": verdict.instance,
            "status": verdict.status,
            "witness": verdict.witness,
            "bound": verdict.bound,
            "expected": spec.expects.get(ck.name),
            "context": context,
            "wall_ms": ms,
        }
        if rec["expected"] is not None and rec["expected"] != rec["status"]:
            rec["mismatch"] = True
            mismatch = True
        records.append(rec)
    return records, (1 if mismatch else 0)


# ---------------------------------------------------------------------------
# output helpers


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def _dumps(rec) -> str:
    return json.dumps(rec, separators=(", ", ": "), default=_json_default)


def _emit(records: list[dict], as_json: bool, out=None) -> None:
    out = out or sys.stdout
    for rec in records:
        out.write((_dumps(rec) if as_json else _text_line(rec)) + "\n")


def _text_line(rec: dict) -> str:
    if "theorem" in rec:
        head = f"[{rec['status'].upper():7s}] {rec['theorem']} on {rec['instance']}"
        hyp = rec.get("details", {}).get("failed_hypotheses")
        return head + (f" (missing: {', '.join(hyp)})" if hyp else "")
    head = f"[{rec['status'].upper():7s}] {rec['check']} on {rec['instance']}"
    parts = []
    if rec.get("expected"):
        ok = "ok" if rec["expected"] == rec["status"] else "MISMATCH"
        parts.append(f"expected {rec['expected']}: {ok}")
    wit = rec.get("witness")
    if wit:
        frag = ", ".join(f"{k}={v}" for k, v in list(wit.items())[:4])
        parts.append(f"witness {frag}")
    return head + ("  (" + "; ".join(parts) + ")" if parts else "")


# ---------------------------------------------------------------------------
# subcommands


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 raises OSError, like one that cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise OSError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None


def cmd_check(args) -> int:
    defaults = {
        k: v
        for k, v in (
            ("degree_bound", args.degree_bound),
            ("power_bound", args.power_bound),
            ("pair_cap", args.budget),
        )
        if v is not None
    }
    try:
        spec = parse_spec(_read_text(args.spec_file))
        records, code = run_spec(spec, defaults)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpecError as e:
        print(f"{args.spec_file}:{e}", file=sys.stderr)
        return 2
    as_json = args.json or (spec.output_json and not args.text)
    _emit(records, as_json)
    return code


def cmd_verify_theorems(args) -> int:
    t0 = time.perf_counter()
    try:
        reports = theorem_suite.run_all(
            instance=args.instance,
            degree_bound=(
                args.degree_bound if args.degree_bound is not None else DEFAULT_DEGREE_BOUND
            ),
            pair_cap=args.budget if args.budget is not None else DEFAULT_PAIR_CAP,
            ideal_mode=args.ideal_mode,
        )
    except (KeyError, RingError) as e:
        print(f"error: {_message(e)}", file=sys.stderr)
        return 2
    ms = round((time.perf_counter() - t0) * 1000.0, 3)
    records = [r.to_record() for r in reports]
    failures = sum(r.status == "fail" for r in reports)
    summary = {
        "record": "summary",
        "theorems": len(records),
        "passed": sum(r.status == "pass" for r in reports),
        "vacuous": sum(r.status == "vacuous" for r in reports),
        "failed": failures,
        "wall_ms": ms,
    }
    if args.json:
        _emit(records + [summary], True)
    else:
        _emit(records, False)
        print(
            f"{summary['theorems']} checks: {summary['passed']} passed, "
            f"{summary['vacuous']} vacuous, {summary['failed']} failed "
            f"({ms:.0f} ms)"
        )
    return 1 if failures else 0


def cmd_catalog(args) -> int:
    listing = catalog_listing()
    listing["instances"] = [e.name for e in theorem_suite.DEFAULT_ENTRIES]
    if args.json:
        print(json.dumps(listing, indent=2, default=_json_default))
        return 0
    print("rings:")
    for row in listing["rings"]:
        print(f"  {row['name']:10s} size {row['size']:>8}  maps: {', '.join(row['maps'])}")
    print("systems:")
    for name in listing["systems"]:
        print(f"  {name}")
    print("catalog instances:")
    for name in listing["instances"]:
        print(f"  {name}")
    return 0


# --- explain: re-verify a stored witness record ----------------------------


def _rebuild_system(context: dict) -> CommutationSystem:
    if context.get("source") == "spec":
        return parse_spec(context["spec_text"]).system
    raise ValueError(f"record context {context!r} is not reconstructible")


def _reverify(rec: dict) -> tuple[bool, str]:
    """Re-check a record: theorems re-run and must reproduce the whole
    record, `fails` witnesses go to `recheck`."""
    if "theorem" in rec:
        fresh = json.loads(_dumps(theorem_suite.replay(rec).to_record()))
        stored = {k: v for k, v in rec.items() if k != "wall_ms"}
        bad = [k for k in sorted(fresh.keys() | stored.keys()) if fresh.get(k) != stored.get(k)]
        if bad == ["details"] and isinstance(stored.get("details"), dict):
            new, old = fresh["details"], stored["details"]
            bad = [f"details.{k}" for k in sorted(new.keys() | old.keys()) if new.get(k) != old.get(k)]
        return not bad, (
            f"re-ran {rec['theorem']} on {rec['instance']}: status {fresh['status']}"
            + (f" (the record differs at {', '.join(bad)})" if bad else "")
        )
    check = rec["check"]
    if rec["status"] not in EXPECT_STATUSES:
        raise ValueError(f"status {rec['status']!r} is not one of {', '.join(EXPECT_STATUSES)}")
    if rec["status"] != "fails":
        return True, f"{check} on {rec['instance']}: status {rec['status']}, no witness to re-verify"
    if "context" not in rec:
        raise ValueError("the record has no `context` field to rebuild its instance from")
    if check not in DECIDERS:
        return False, f"unknown check {check!r}"
    return recheck(check, _rebuild_system(rec["context"]), rec.get("witness") or {})


def cmd_explain(args) -> int:
    records = []
    try:
        for ln, line in enumerate(_read_text(args.witness_file).splitlines(), start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if isinstance(rec, dict) and rec.get("record") != "summary":
                records.append((ln, rec))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"{args.witness_file}: bad record: {e}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.witness_file}: no records to explain", file=sys.stderr)
        return 2
    all_ok = True
    out = []
    for ln, rec in records:
        # a stored record is untyped JSON: a field of the wrong type raises
        # TypeError or AttributeError, and a polynomial of a degree no search
        # forms RecursionError in the normal products; each marks the record
        # BAD, like any other input error
        try:
            ok, msg = _reverify(rec)
        except (*_INPUT_ERRORS, TypeError, AttributeError, SpecError, RecursionError) as e:
            ok, msg = False, f"cannot re-verify: {e}"
        all_ok = all_ok and ok
        out.append(
            {
                "line": ln,
                "verified": ok,
                "explanation": msg,
            }
        )
    if args.json:
        for row in out:
            print(_dumps(row))
    else:
        for row in out:
            mark = "ok " if row["verified"] else "BAD"
            print(f"[{mark}] record at line {row['line']}: {row['explanation']}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point


def _budget_flag(key: str):
    def parse(text: str) -> int:
        try:
            return _int_value(text, key, minimum=BUDGET_MIN[key])
        except SpecError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree-bound", type=_budget_flag("degree_bound"), default=None,
                   metavar="D", help="max f, g degree in zero-product searches")
    p.add_argument("--budget", type=_budget_flag("pair_cap"), default=None,
                   metavar="N", help="max (f, g) pairs per search")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewlab",
        description="finite-ring rigidity and zero-product property checker",
    )
    ap.add_argument("--version", action="version", version=f"skewlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the checks in a spec file")
    p.add_argument("spec_file")
    p.add_argument("--json", action="store_true", help="force NDJSON output")
    p.add_argument("--text", action="store_true", help="force text output")
    _add_budget_flags(p)
    p.add_argument("--power-bound", type=_budget_flag("power_bound"), default=None,
                   metavar="K", help="max exponent when certifying nilpotent polynomials")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify-theorems", help="run the statement suite over the catalog")
    p.add_argument("--instance", default=None, metavar="NAME",
                   help="restrict to one catalog instance, e.g. R3(Z2)/id")
    p.add_argument("--ideal-mode", choices=("fixed", "literal"), default="fixed",
                   help="reading of the idempotent hypothesis in the ideal decomposition")
    p.add_argument("--json", action="store_true", help="NDJSON output")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_verify_theorems)

    p = sub.add_parser("catalog", help="inspect builtin rings and systems")
    p.add_argument("what", choices=("list",))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("explain", help="re-verify stored witness records")
    p.add_argument("witness_file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_explain)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
