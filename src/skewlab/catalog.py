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
    zero_derivation,
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


def get_ring(name: str) -> R.FiniteRing:
    name = name.strip()
    got = _ring_cache.get(name)
    if got is not None:
        return got
    m = re.fullmatch(r"Z(\d+)", name)
    if m:
        ring = R.make_zn(int(m.group(1)))
    else:
        m = re.fullmatch(r"Z(\d+)xZ(\d+)", name)
        if m:
            ring = R.make_product(get_ring(f"Z{m.group(1)}"), get_ring(f"Z{m.group(2)}"))
        else:
            m = re.fullmatch(r"M2\(Z(\d+)\)", name)
            if m:
                ring = R.make_matrix_ring(get_ring(f"Z{m.group(1)}"), 2)
            else:
                m = re.fullmatch(r"R3\(Z(\d+)\)", name)
                if m:
                    ring = R.make_r3(get_ring(f"Z{m.group(1)}"))
                else:
                    m = re.fullmatch(r"S\(Z(\d+)\)", name)
                    if m:
                        ring = R.make_s_ring(get_ring(f"Z{m.group(1)}"))
                    else:
                        raise UnknownNameError(
                            f"unknown ring {name!r}; builtins: {', '.join(BUILTIN_RINGS)}"
                        )
    if ring.name != name:
        ring.name = name
    _ring_cache[name] = ring
    return ring


def map_names(ring: R.FiniteRing) -> list[str]:
    out = ["id"]
    if "x" in ring.name and isinstance(ring, R.TableRing):
        m = re.fullmatch(r"Z(\d+)xZ(\d+)", ring.name)
        if m and m.group(1) == m.group(2):
            out.append("swap")
    if isinstance(ring, R.SRing):
        out.append("negate-B")
    return out


def get_map(ring: R.FiniteRing, name: str) -> RingMap:
    name = name.strip()
    if name in ("id", "identity"):
        name = "id"
    key = (ring.name, name)
    got = _map_cache.get(key)
    if got is not None:
        return got
    if name == "id":
        mp = identity_map(ring)
    elif name == "swap":
        m = re.fullmatch(r"Z(\d+)xZ(\d+)", ring.name)
        if not (m and m.group(1) == m.group(2)):
            raise UnknownNameError(f"map 'swap' needs an equal-factor product, not {ring.name}")
        s2 = int(m.group(2))
        idx = np.arange(ring.size)
        mp = verify_endomorphism(ring, (idx % s2) * s2 + idx // s2, "swap")
    elif name == "negate-B":
        if not isinstance(ring, R.SRing):
            raise UnknownNameError(f"map 'negate-B' needs an S ring, not {ring.name}")
        ident = np.arange(ring.bsize)
        mp = verify_block_endomorphism(ring, ident, ring.block._neg_table, ident, "negate-B")
    else:
        raise UnknownNameError(
            f"unknown map {name!r} on {ring.name}; available: {', '.join(map_names(ring))}"
        )
    _map_cache[key] = mp
    return mp


def get_system(name: str) -> CommutationSystem:
    name = name.strip()
    got = _system_cache.get(name)
    if got is not None:
        return got
    m = re.fullmatch(r"untwisted\((.+)\)", name)
    if m:
        ring = get_ring(m.group(1))
        sys = CommutationSystem(
            ring, SigmaFamily(ring, [get_map(ring, "id")]), name=name
        )
    elif name == "swap-ore":
        ring = get_ring("Z2xZ2")
        swap = get_map(ring, "swap")
        sys = CommutationSystem(
            ring,
            SigmaFamily(ring, [swap]),
            delta=[id_minus_sigma_derivation(ring, swap)],
            name=name,
        )
    else:
        m = re.fullmatch(r"quantum-plane\(Z(\d+),(\d+)\)", name)
        if m:
            p, q = int(m.group(1)), int(m.group(2))
            ring = get_ring(f"Z{p}")
            ident = get_map(ring, "id")
            sys = CommutationSystem(
                ring,
                SigmaFamily(ring, [ident, ident]),
                c={(0, 1): q % p},
                name=name,
            )
        else:
            m = re.fullmatch(r"s-negate-b\(Z(\d+)\)", name)
            if m:
                ring = get_ring(f"S(Z{m.group(1)})")
                sys = CommutationSystem(
                    ring,
                    SigmaFamily(ring, [get_map(ring, "negate-B")]),
                    name=name,
                )
            else:
                raise UnknownNameError(
                    f"unknown system {name!r}; builtins: {', '.join(BUILTIN_SYSTEMS)}"
                )
    _system_cache[name] = sys
    return sys


def catalog_listing() -> dict:
    """Names and sizes of everything builtin (builds the small rings only)."""
    ring_rows = []
    for name in BUILTIN_RINGS:
        size = get_ring(name).size
        ring_rows.append({"name": name, "size": size, "maps": map_names(get_ring(name))})
    return {"rings": ring_rows, "systems": list(BUILTIN_SYSTEMS)}
