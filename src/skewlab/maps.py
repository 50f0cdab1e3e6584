"""Ring endomorphisms, twisted derivations, and their finite closures.

A map on a ring of size n is stored as a dense image table (n,).  A
sigma-derivation for an endomorphism sigma satisfies the twisted
Leibniz rule d(ab) = sigma(a) d(b) + d(a) b.  Families of commuting or
non-commuting endomorphisms get a finite composition closure so that
"for all iterated twists" quantifiers become finite sweeps.
"""
from __future__ import annotations

import zlib

import numpy as np

from .rings import BudgetError, FiniteRing, _CHUNK

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_PAIR_CAP = 2048  # exhaustive pair checks up to this carrier size
DEFAULT_SAMPLES = 20000


class MapVerificationError(Exception):
    """A claimed endomorphism or derivation breaks one of its laws."""

    def __init__(self, name: str, law: str, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"{name}: {law} fails at {witness}")


def _image_table(ring: FiniteRing, images) -> np.ndarray:
    if callable(images):
        out = np.empty(ring.size, dtype=np.int32)
        for lo in range(0, ring.size, _CHUNK):
            x = np.arange(lo, min(lo + _CHUNK, ring.size))
            out[lo : lo + x.size] = images(x)
        return out
    tab = np.asarray(images, dtype=np.int32)
    if tab.shape != (ring.size,):
        raise ValueError(f"image table must have shape ({ring.size},)")
    if tab.min() < 0 or tab.max() >= ring.size:
        raise ValueError("image table values out of range")
    return tab


class RingMap:
    """A verified unital ring endomorphism given by its image table."""

    def __init__(self, ring: FiniteRing, table: np.ndarray, name: str):
        self.ring = ring
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.table.setflags(write=False)
        self.name = name

    def __call__(self, a):
        out = self.table[a]
        return int(out) if np.ndim(out) == 0 else out

    @property
    def is_identity(self) -> bool:
        return bool((self.table == np.arange(self.ring.size)).all())

    @property
    def is_injective(self) -> bool:
        seen = np.zeros(self.ring.size, dtype=bool)
        seen[self.table] = True
        return bool(seen.all())

    def compose(self, other: "RingMap") -> "RingMap":
        """self after other: (self . other)(x) = self(other(x))."""
        if other.ring is not self.ring:
            raise ValueError("cannot compose maps over different rings")
        return RingMap(self.ring, self.table[other.table], f"{self.name}*{other.name}")

    def key(self) -> bytes:
        return self.table.tobytes()

    def __repr__(self):
        return f"<RingMap {self.name} on {self.ring.name}>"


class SigmaDerivation:
    """A verified sigma-derivation: additive, d(ab) = sigma(a)d(b) + d(a)b."""

    def __init__(self, ring: FiniteRing, sigma: RingMap, table: np.ndarray, name: str):
        self.ring = ring
        self.sigma = sigma
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.table.setflags(write=False)
        self.name = name

    def __call__(self, a):
        out = self.table[a]
        return int(out) if np.ndim(out) == 0 else out

    @property
    def is_zero(self) -> bool:
        return bool((self.table == self.ring.zero).all())

    def __repr__(self):
        return f"<SigmaDerivation {self.name} on {self.ring.name}>"


def _sample_pairs(ring: FiniteRing, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ring.size, size=samples)
    b = rng.integers(0, ring.size, size=samples)
    return a, b


def _all_pairs(ring: FiniteRing):
    idx = np.arange(ring.size)
    a = np.repeat(idx, ring.size)
    b = np.tile(idx, ring.size)
    return a, b


def verify_endomorphism(
    ring: FiniteRing,
    images,
    name: str,
    pair_cap: int = DEFAULT_PAIR_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> RingMap:
    """Check additivity, multiplicativity, and unitality; raise on failure.

    Pairs are swept exhaustively for carriers up to pair_cap, sampled
    (seeded) above it.
    """
    tab = _image_table(ring, images)
    if int(tab[ring.one]) != ring.one:
        raise MapVerificationError(name, "unital", (ring.one, int(tab[ring.one])))
    if int(tab[ring.zero]) != ring.zero:
        raise MapVerificationError(name, "preserves_zero", (ring.zero, int(tab[ring.zero])))
    exhaustive = ring.size <= pair_cap
    a, b = _all_pairs(ring) if exhaustive else _sample_pairs(ring, samples, seed)
    bad = tab[ring.add(a, b)] != ring.add(tab[a], tab[b])
    if bad.any():
        k = int(np.argmax(bad))
        raise MapVerificationError(name, "additive", (int(a[k]), int(b[k])))
    bad = tab[ring.mul(a, b)] != ring.mul(tab[a], tab[b])
    if bad.any():
        k = int(np.argmax(bad))
        raise MapVerificationError(name, "multiplicative", (int(a[k]), int(b[k])))
    return RingMap(ring, tab, name)


def verify_sigma_derivation(
    ring: FiniteRing,
    sigma: RingMap,
    images,
    name: str,
    pair_cap: int = DEFAULT_PAIR_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> SigmaDerivation:
    """Check additivity and the twisted Leibniz rule; raise on failure."""
    tab = _image_table(ring, images)
    exhaustive = ring.size <= pair_cap
    a, b = _all_pairs(ring) if exhaustive else _sample_pairs(ring, samples, seed)
    bad = tab[ring.add(a, b)] != ring.add(tab[a], tab[b])
    if bad.any():
        k = int(np.argmax(bad))
        raise MapVerificationError(name, "additive", (int(a[k]), int(b[k])))
    lhs = tab[ring.mul(a, b)]
    rhs = ring.add(ring.mul(sigma.table[a], tab[b]), ring.mul(tab[a], b))
    bad = lhs != rhs
    if bad.any():
        k = int(np.argmax(bad))
        raise MapVerificationError(name, "twisted_leibniz", (int(a[k]), int(b[k])))
    return SigmaDerivation(ring, sigma, tab, name)


def identity_map(ring: FiniteRing) -> RingMap:
    return RingMap(ring, np.arange(ring.size, dtype=np.int32), "id")


def zero_derivation(ring: FiniteRing, sigma: RingMap) -> SigmaDerivation:
    return SigmaDerivation(
        ring, sigma, np.full(ring.size, ring.zero, dtype=np.int32), "0"
    )


def id_minus_sigma_derivation(ring: FiniteRing, sigma: RingMap) -> SigmaDerivation:
    """d(a) = a - sigma(a), always a sigma-derivation; verified anyway."""
    idx = np.arange(ring.size)
    tab = ring.sub(idx, sigma.table[idx])
    return verify_sigma_derivation(ring, sigma, tab, f"id-{sigma.name}")


class SigmaFamily:
    """An ordered tuple of endomorphisms acting as the variable twists."""

    def __init__(self, ring: FiniteRing, maps: list[RingMap]):
        self.ring = ring
        self.maps = list(maps)
        for m in self.maps:
            if m.ring is not ring:
                raise ValueError("family maps must share one ring")
        self.n = len(self.maps)
        self._closure: list[RingMap] | None = None

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return self.n

    def __repr__(self):
        inner = ",".join(m.name for m in self.maps)
        return f"<SigmaFamily [{inner}] on {self.ring.name}>"


def sigma_power(family: SigmaFamily, theta) -> RingMap:
    """The nested composite sigma_1^t1 . sigma_2^t2 . ... (last index applied first)."""
    theta = tuple(int(t) for t in theta)
    if len(theta) != family.n:
        raise ValueError(f"theta must have length {family.n}")
    if any(t < 0 for t in theta):
        raise ValueError("theta entries must be nonnegative")
    acc = np.arange(family.ring.size, dtype=np.int32)
    for i in range(family.n - 1, -1, -1):
        tab = family.maps[i].table
        for _ in range(theta[i]):
            acc = tab[acc]
    label = "s^" + "".join(str(t) for t in theta)
    return RingMap(family.ring, acc, label)


def orbit_closure(family: SigmaFamily, cap: int = DEFAULT_CLOSURE_CAP) -> list[RingMap]:
    """All finite composites of the family maps, identity included.

    Breadth-first over words in the generators, so the returned order is
    canonical: by word length, then by generator index.  Covers every
    sigma^theta (and more, when the maps do not commute).  Raises
    BudgetError past `cap` distinct maps.  The closure is built once per
    family; later calls return the stored list.
    """
    ring = family.ring
    if family._closure is not None:
        if len(family._closure) > cap:
            raise BudgetError(f"composition closure exceeded cap {cap} on {ring.name}")
        return family._closure
    out = [identity_map(ring)]
    # crc32 of the table -> maps with that digest; an exact compare
    # confirms each hit, so no carrier-sized key is kept
    seen = {zlib.crc32(out[0].table): [out[0]]}
    frontier = [out[0]]
    while frontier:
        nxt = []
        for w in frontier:
            for gen in family.maps:
                comp = RingMap(
                    ring,
                    w.table[gen.table],
                    gen.name if w is out[0] else f"{w.name}*{gen.name}",
                )
                bucket = seen.setdefault(zlib.crc32(comp.table), [])
                if not any(np.array_equal(comp.table, m.table) for m in bucket):
                    bucket.append(comp)
                    out.append(comp)
                    nxt.append(comp)
                    if len(out) > cap:
                        raise BudgetError(
                            f"composition closure exceeded cap {cap} on {ring.name}"
                        )
        frontier = nxt
    family._closure = out
    return out
