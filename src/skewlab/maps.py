"""Ring endomorphisms, twisted derivations, and their finite closures.

A map on a ring of size n is stored as a dense image table (n,), or, on
an S ring, as three block tables (phi, psi, chi) acting as
(A|B|C) -> (phi A | psi B | chi C), so that no carrier-sized table
exists.  Other modules apply, compose and compare maps through their
methods; outside this module `blocks` is read only to ask whether every
map of a closure is block-diagonal, which lets the rigidity deciders
sweep a block-rule slice of an S ring on decoded triples (`on_blocks`).
A sigma-derivation for an endomorphism sigma satisfies the twisted Leibniz rule
d(ab) = sigma(a) d(b) + d(a) b.  Families of commuting or non-commuting
endomorphisms get a finite composition closure so that "for all iterated
twists" quantifiers become finite sweeps.
"""
from __future__ import annotations

import zlib

import numpy as np

from .rings import BudgetError, FiniteRing, SRing, _CHUNK, _first_violation, index_table

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_PAIR_CAP = 2048  # every pair up to this carrier size, R x G above it


class MapVerificationError(Exception):
    """A claimed endomorphism or derivation breaks one of its laws."""

    def __init__(self, name: str, law: str, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"{name}: {law} fails at {witness}")


def _image_table(size: int, images) -> np.ndarray:
    tab = np.asarray(images)
    if tab.shape != (size,):
        raise ValueError(f"image table must have shape ({size},)")
    return index_table(tab, size, "image table")


def _frozen(tab) -> np.ndarray:
    out = np.ascontiguousarray(tab, dtype=np.int32)
    out.setflags(write=False)
    return out


class RingMap:
    """A verified unital ring endomorphism.

    `table` is the carrier image table, or None when `blocks` holds the
    block tables (phi, psi, chi) of a block-diagonal map on an S ring.
    """

    def __init__(self, ring: FiniteRing, table, name: str, blocks=None):
        self.ring = ring
        self.name = name
        self.table = None if table is None else _frozen(table)
        self.blocks = None if blocks is None else tuple(_frozen(t) for t in blocks)

    def __call__(self, a):
        if self.blocks is None:
            out = self.table[a]
        else:
            out = self.ring.encode(*self.on_blocks(self.ring.decode(a)))
        return int(out) if np.ndim(out) == 0 else out

    def on_blocks(self, x) -> tuple:
        """A block map on decoded triples x = (A, B, C), slot by slot."""
        return tuple(t[s] for t, s in zip(self.blocks, x))

    def _parts(self) -> tuple:
        return (self.table,) if self.blocks is None else self.blocks

    def carrier_table(self) -> np.ndarray:
        """The carrier image table; built in chunks for a block map."""
        if self.blocks is None:
            return self.table
        out = np.empty(self.ring.size, dtype=np.int32)
        for lo in range(0, self.ring.size, _CHUNK):
            out[lo : lo + _CHUNK] = self(np.arange(lo, min(lo + _CHUNK, self.ring.size)))
        return out

    @property
    def is_injective(self) -> bool:
        # a block map is injective exactly when each block table is
        for t in self._parts():
            seen = np.zeros(t.size, dtype=bool)
            seen[t] = True
            if not seen.all():
                return False
        return True

    def compose(self, other: "RingMap", name: str | None = None) -> "RingMap":
        """self after other: (self . other)(x) = self(other(x))."""
        if other.ring is not self.ring:
            raise ValueError("cannot compose maps over different rings")
        name = name or f"{self.name}*{other.name}"
        if self.blocks is not None and other.blocks is not None:
            blocks = tuple(s[o] for s, o in zip(self.blocks, other.blocks))
            return RingMap(self.ring, None, name, blocks=blocks)
        return RingMap(self.ring, self.carrier_table()[other.carrier_table()], name)

    def equals(self, other: "RingMap") -> bool:
        """Exact equality of the maps, whatever their representations."""
        if self is other:
            return True
        if (self.blocks is None) == (other.blocks is None):
            return all(np.array_equal(s, o) for s, o in zip(self._parts(), other._parts()))
        return np.array_equal(self.carrier_table(), other.carrier_table())

    def key(self) -> bytes:
        return b"".join(t.tobytes() for t in self._parts())

    def __repr__(self):
        return f"<RingMap {self.name} on {self.ring.name}>"


class SigmaDerivation:
    """A verified sigma-derivation: additive, d(ab) = sigma(a)d(b) + d(a)b.

    `table` is None for the zero derivation and for id - sigma, which keep none.
    """

    def __init__(self, ring: FiniteRing, sigma: RingMap, table, name: str):
        self.ring = ring
        self.sigma = sigma
        self.table = None if table is None else _frozen(table)
        self.name = name
        self._through_sigma = False  # set by id_minus_sigma_derivation alone

    def __call__(self, a):
        if self._through_sigma:
            out = self.ring.sub(a, self.sigma(a))
        elif self.table is None:
            if isinstance(a, (int, np.integer)):  # poly.NormalProducts' hot path
                return self.ring.zero
            out = np.full(np.shape(a), self.ring.zero, dtype=np.int32)
        else:
            out = self.table[a]
        return int(out) if np.ndim(out) == 0 else out

    @property
    def is_zero(self) -> bool:
        if self.table is None:
            return not self._through_sigma
        return bool((self.table == self.ring.zero).all())

    def __repr__(self):
        return f"<SigmaDerivation {self.name} on {self.ring.name}>"


def _law_violation(ring: FiniteRing, laws, pair_cap: int):
    """First (law, (a, b)) with bad(a, b) True over the laws, in order, or None.

    Each `bad` broadcasts over element arrays.  Rows a run over the whole
    carrier, law by law in blocks of at most _CHUNK cells; columns b run
    over the whole carrier up to pair_cap elements and over the additive
    generators G above it.  Each law is additive in b once the laws before
    it hold, so R x G decides it exactly.  The witness is the law's
    row-major first failure, with b the element, not its column.
    """
    n = ring.size
    b = np.arange(n) if n <= pair_cap else ring.additive_generators
    step = max(1, _CHUNK // len(b))
    rows = [np.arange(lo, min(lo + step, n))[:, None] for lo in range(0, n, step)]
    hit = _first_violation((law, lambda bad=bad: (bad(a, b) for a in rows)) for law, bad in laws)
    return hit and (hit[0], (hit[1][0], int(b[hit[1][1]])))


def verify_endomorphism(
    ring: FiniteRing, images, name: str, pair_cap: int = DEFAULT_PAIR_CAP
) -> RingMap:
    """Check unitality, additivity and multiplicativity exactly; raise on failure.

    With f(0) = 0 and f additive on R x G, f is additive on R x R, and
    then f(ab) = f(a)f(b) is additive in b; so both laws are checked on
    every pair up to pair_cap elements and on R x G above it.
    """
    tab = _image_table(ring.size, images)
    if int(tab[ring.one]) != ring.one:
        raise MapVerificationError(name, "unital", (ring.one, int(tab[ring.one])))
    if int(tab[ring.zero]) != ring.zero:
        raise MapVerificationError(name, "preserves_zero", (ring.zero, int(tab[ring.zero])))
    hit = _law_violation(ring, (
        ("additive", lambda a, b: tab[ring.add(a, b)] != ring.add(tab[a], tab[b])),
        ("multiplicative", lambda a, b: tab[ring.mul(a, b)] != ring.mul(tab[a], tab[b])),
    ), pair_cap)
    if hit:
        raise MapVerificationError(name, *hit)
    return RingMap(ring, tab, name)


def verify_sigma_derivation(
    ring: FiniteRing, sigma: RingMap, images, name: str, pair_cap: int = DEFAULT_PAIR_CAP
) -> SigmaDerivation:
    """Check additivity and the twisted Leibniz rule exactly; raise on failure."""
    tab = _image_table(ring.size, images)

    def leibniz(a, b):
        return tab[ring.mul(a, b)] != ring.add(ring.mul(sigma(a), tab[b]), ring.mul(tab[a], b))

    hit = _law_violation(ring, (
        ("additive", lambda a, b: tab[ring.add(a, b)] != ring.add(tab[a], tab[b])),
        ("twisted_leibniz", leibniz),
    ), pair_cap)
    if hit:
        raise MapVerificationError(name, *hit)
    return SigmaDerivation(ring, sigma, tab, name)


def verify_block_endomorphism(ring: SRing, phi, psi, chi, name: str) -> RingMap:
    """The block-diagonal map (A|B|C) -> (phi A | psi B | chi C); raise on failure.

    It is a unital endomorphism of S exactly when phi and chi are unital
    endomorphisms of the block ring M, psi is additive, and
    psi(AB) = phi(A) psi(B), psi(BC) = psi(B) chi(C): the B slot of a
    product is AB' + BC'.  Each law is checked on every pair of M^2.
    """
    blk = ring.block
    phi, psi, chi = (_image_table(blk.size, t) for t in (phi, psi, chi))
    for label, tab in (("phi", phi), ("chi", chi)):
        if int(tab[blk.one]) != blk.one:
            raise MapVerificationError(name, f"{label}_unital", (blk.one, int(tab[blk.one])))
    add, mul = blk.add_table, blk.mul_table
    # law, f, op, g, h: f(a op b) = g(a) op h(b) on every (a, b), one |M|x|M| grid at a time
    laws = (
        ("phi_additive", phi, add, phi, phi),
        ("phi_multiplicative", phi, mul, phi, phi),
        ("chi_additive", chi, add, chi, chi),
        ("chi_multiplicative", chi, mul, chi, chi),
        ("psi_additive", psi, add, psi, psi),
        ("psi_left_linear", psi, mul, phi, psi),
        ("psi_right_linear", psi, mul, psi, chi),
    )
    hit = _first_violation(
        (law, lambda f=f, op=op, g=g, h=h: f[op] != op[np.ix_(g, h)])
        for law, f, op, g, h in laws
    )
    if hit:
        raise MapVerificationError(name, *hit)
    return RingMap(ring, None, name, blocks=(phi, psi, chi))


def identity_map(ring: FiniteRing) -> RingMap:
    """The identity; block-diagonal on an S ring."""
    if isinstance(ring, SRing):
        ident = np.arange(ring.bsize)
        return RingMap(ring, None, "id", blocks=(ident, ident, ident))
    return RingMap(ring, np.arange(ring.size, dtype=np.int32), "id")


def zero_derivation(ring: FiniteRing, sigma: RingMap) -> SigmaDerivation:
    return SigmaDerivation(ring, sigma, None, "0")


def id_minus_sigma_derivation(ring: FiniteRing, sigma: RingMap) -> SigmaDerivation:
    """d(a) = a - sigma(a), applied through sigma: no table, and no check of its own.

    sigma is a verified endomorphism, checked exactly, so d is additive and
    d(ab) = sigma(a)(b - sigma(b)) + (a - sigma(a))b = sigma(a)d(b) + d(a)b.
    """
    d = SigmaDerivation(ring, sigma, None, f"id-{sigma.name}")
    d._through_sigma = not sigma.equals(identity_map(ring))
    return d


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

    def __repr__(self):
        inner = ",".join(m.name for m in self.maps)
        return f"<SigmaFamily [{inner}] on {self.ring.name}>"


def _closure_generators(family: SigmaFamily) -> tuple[RingMap, list[RingMap]]:
    """The identity and the family maps, in one representation: block
    tables when every map is block-diagonal, carrier tables otherwise."""
    ident = identity_map(family.ring)
    if ident.blocks is None or all(m.blocks is not None for m in family.maps):
        return ident, family.maps
    ident, *maps = (RingMap(m.ring, m.carrier_table(), m.name) for m in [ident, *family.maps])
    return ident, maps


def sigma_power(family: SigmaFamily, theta) -> RingMap:
    """The nested composite sigma_1^t1 . sigma_2^t2 . ... (last index applied first)."""
    theta = tuple(int(t) for t in theta)
    if len(theta) != family.n:
        raise ValueError(f"theta must have length {family.n}")
    if any(t < 0 for t in theta):
        raise ValueError("theta entries must be nonnegative")
    label = "s^" + "".join(str(t) for t in theta)
    acc, maps = _closure_generators(family)
    for i in range(family.n - 1, -1, -1):
        for _ in range(theta[i]):
            acc = maps[i].compose(acc, label)
    return RingMap(acc.ring, acc.table, label, blocks=acc.blocks)


def orbit_closure(family: SigmaFamily) -> list[RingMap]:
    """All finite composites of the family maps, identity included.

    Breadth-first over words in the generators, so the returned order is
    canonical: by word length, then by generator index.  Covers every
    sigma^theta (and more, when the maps do not commute).  Raises
    BudgetError past DEFAULT_CLOSURE_CAP distinct maps, read at call
    time.  The closure is built once per family; later calls return the
    stored list.  Block-diagonal families compose per block.
    """
    ring = family.ring
    if family._closure is not None:
        return family._closure
    ident, gens = _closure_generators(family)
    out = [ident]
    # crc32 of the tables -> maps with that digest; an exact compare
    # confirms each hit, so no carrier-sized key is kept
    seen = {_digest(ident): [ident]}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for gen in gens:
                comp = w.compose(gen, gen.name if w is ident else f"{w.name}*{gen.name}")
                bucket = seen.setdefault(_digest(comp), [])
                if not any(comp.equals(m) for m in bucket):
                    bucket.append(comp)
                    out.append(comp)
                    nxt.append(comp)
                    if len(out) > DEFAULT_CLOSURE_CAP:
                        raise BudgetError(
                            f"composition closure exceeded cap {DEFAULT_CLOSURE_CAP} on {ring.name}"
                        )
        frontier = nxt
    family._closure = out
    return out


def _digest(m: RingMap) -> int:
    return zlib.crc32(m.table if m.blocks is None else m.key())
