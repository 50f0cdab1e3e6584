"""Builtin rings, twist maps, and extensions, resolved by name.

Every getter caches: the same name always returns the identical object,
so map/system identity checks hold across call sites.  Name patterns:

rings     Z<n>, Z<a>xZ<b>, M2(Z<n>), R3(Z<n>), S(Z<n>)
maps      id, swap (equal-factor products), negate-B (S rings)
systems   untwisted(<ring>), swap-ore, quantum-plane(Z<p>,<q>),
          s-negate-b(Z<n>)
"""
from __future__ import annotations

import re

import numpy as np

from . import rings as R
from .maps import (
    RingMap,
    SigmaFamily,
    id_minus_sigma_derivation,
    identity_map,
    verify_block_endomorphism,
    verify_endomorphism,
)
from .poly import CommutationSystem

BUILTIN_RINGS = [
    "Z2",
    "Z3",
    "Z4",
    "Z6",
    "Z2xZ2",
    "M2(Z2)",
    "R3(Z2)",
    "S(Z3)",
    "S(Z4)",
]

BUILTIN_SYSTEMS = [
    "untwisted(Z2)",
    "untwisted(Z3)",
    "untwisted(Z4)",
    "untwisted(Z6)",
    "untwisted(Z2xZ2)",
    "untwisted(M2(Z2))",
    "untwisted(R3(Z2))",
    "swap-ore",
    "quantum-plane(Z3,2)",
    "s-negate-b(Z3)",
    "s-negate-b(Z4)",
]

_ring_cache: dict[str, R.FiniteRing] = {}
_map_cache: dict[tuple[str, str], RingMap] = {}
_system_cache: dict[str, CommutationSystem] = {}


class UnknownNameError(KeyError):
    pass


def _resolve(rules, name: str, kind: str, builtins: list[str]):
    """build(*groups) of the first (pattern, build) rule whose pattern matches `name`."""
    for pattern, build in rules:
        m = re.fullmatch(pattern, name)
        if m:
            return build(*m.groups())
    raise UnknownNameError(f"unknown {kind} {name!r}; builtins: {', '.join(builtins)}")


_RING_RULES = [
    (r"Z(\d+)", lambda n: R.make_zn(int(n))),
    (r"Z(\d+)xZ(\d+)", lambda a, b: R.make_product(get_ring(f"Z{a}"), get_ring(f"Z{b}"))),
    (r"M2\(Z(\d+)\)", lambda n: R.make_matrix_ring(get_ring(f"Z{n}"), 2)),
    (r"R3\(Z(\d+)\)", lambda n: R.make_r3(get_ring(f"Z{n}"))),
    (r"S\(Z(\d+)\)", lambda n: R.make_s_ring(get_ring(f"Z{n}"))),
]


def get_ring(name: str) -> R.FiniteRing:
    name = name.strip()
    got = _ring_cache.get(name)
    if got is not None:
        return got
    ring = _resolve(_RING_RULES, name, "ring", BUILTIN_RINGS)
    ring.name = name
    _ring_cache[name] = ring
    return ring


def _swap(ring: R.FiniteRing) -> RingMap:
    s = round(ring.size ** 0.5)
    idx = np.arange(ring.size)
    return verify_endomorphism(ring, (idx % s) * s + idx // s, "swap")


def _negate_b(ring: R.SRing) -> RingMap:
    ident = np.arange(ring.bsize)
    return verify_block_endomorphism(ring, ident, ring.block._neg_table, ident, "negate-B")


# map name -> (applies to a ring, what it needs, build)
_MAP_RULES = {
    "id": (lambda ring: True, None, identity_map),
    "swap": (
        lambda ring: isinstance(ring, R.TableRing) and re.fullmatch(r"Z(\d+)xZ\1", ring.name),
        "an equal-factor product",
        _swap,
    ),
    "negate-B": (lambda ring: isinstance(ring, R.SRing), "an S ring", _negate_b),
}


def map_names(ring: R.FiniteRing) -> list[str]:
    return [name for name, (applies, _, _) in _MAP_RULES.items() if applies(ring)]


def get_map(ring: R.FiniteRing, name: str) -> RingMap:
    name = name.strip()
    if name == "identity":
        name = "id"
    key = (ring.name, name)
    got = _map_cache.get(key)
    if got is not None:
        return got
    if name not in _MAP_RULES:
        raise UnknownNameError(
            f"unknown map {name!r} on {ring.name}; available: {', '.join(map_names(ring))}"
        )
    applies, needs, build = _MAP_RULES[name]
    if not applies(ring):
        raise UnknownNameError(f"map {name!r} needs {needs}, not {ring.name}")
    mp = _map_cache[key] = build(ring)
    return mp


def _system(name: str, ring_name: str, twists: list[str], derive=False, c=None):
    """The system on `ring_name` twisted by the named maps, one per variable.

    derive: add the derivation id - sigma_1.  c: leading coefficients as
    integers, reduced mod |R| (the builtins put them on Z_p).
    """
    ring = get_ring(ring_name)
    maps = {t: get_map(ring, t) for t in dict.fromkeys(twists)}
    family = SigmaFamily(ring, [maps[t] for t in twists])
    delta = [id_minus_sigma_derivation(ring, family.maps[0])] if derive else None
    c = None if c is None else {k: v % ring.size for k, v in c.items()}
    return CommutationSystem(ring, family, delta=delta, c=c, name=name)


# name pattern -> (ring, twists[, derive, c]) of `_system`
_SYSTEM_RULES = [
    (r"untwisted\((.+)\)", lambda r: (r, ["id"])),
    (r"swap-ore", lambda: ("Z2xZ2", ["swap"], True)),
    (
        r"quantum-plane\(Z(\d+),(\d+)\)",
        lambda p, q: (f"Z{p}", ["id", "id"], False, {(0, 1): int(q)}),
    ),
    (r"s-negate-b\(Z(\d+)\)", lambda n: (f"S(Z{n})", ["negate-B"])),
]


def get_system(name: str) -> CommutationSystem:
    name = name.strip()
    got = _system_cache.get(name)
    if got is not None:
        return got
    sys = _system(name, *_resolve(_SYSTEM_RULES, name, "system", BUILTIN_SYSTEMS))
    _system_cache[name] = sys
    return sys


def catalog_listing() -> dict:
    """Names and sizes of everything builtin (builds the small rings only)."""
    ring_rows = []
    for name in BUILTIN_RINGS:
        size = get_ring(name).size
        ring_rows.append({"name": name, "size": size, "maps": map_names(get_ring(name))})
    return {"rings": ring_rows, "systems": list(BUILTIN_SYSTEMS)}
