"""Finite unital rings with exact integer-indexed arithmetic.

Elements of a ring of size n are the integers 0..n-1.  Small rings carry
dense numpy Cayley tables; the block upper-triangular construction S
(too large to tabulate) implements the same vectorized interface
structurally.  All add/mul/neg methods accept plain ints or numpy index
arrays and broadcast.

Ring axioms are checked exactly on construction, on additive generators
G: every law is additive in each argument once (R, +) is a group.  Every
pass over a carrier, laws included, runs in the row blocks of
`_row_blocks`, at most _CHUNK cells each.  G,
the nil mask, the idempotents and the central ones are stored on the
ring, read-only, at first use.  An S ring has no carrier nil mask:
`nil_at` reads nilpotency per index off its block ring.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels

DEFAULT_TABLE_BUDGET = 4096
# failing tables up to this size take their witness from the (a, b, c) sweep
_WITNESS_SWEEP_CAP = 256
_CHUNK = 1 << 14  # cells per row block of every pass over a carrier


class RingError(Exception):
    pass


class RingConstructionError(RingError):
    """A claimed ring violates an axiom; carries (law, witness)."""

    def __init__(self, ring_name: str, law: str, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"{ring_name}: {law} fails at {witness}")


class BudgetError(RingError):
    pass


@dataclass
class LawReport:
    ring: str
    mode: str  # "generators" (table rings) or "block" (S rings); both exact
    triples_checked: int  # law instances checked on the generators
    violation: tuple | None  # (law, witness) or None

    @property
    def ok(self) -> bool:
        return self.violation is None


def _scalar(x):
    if isinstance(x, np.ndarray) and x.ndim == 0:
        return int(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


class FiniteRing:
    """Base class; subclasses fill in add/mul/neg and naming."""

    name: str
    size: int
    zero: int = 0
    one: int

    def __init__(self):
        self._nil_mask: np.ndarray | None = None
        self._idempotents: np.ndarray | None = None
        self._central_idempotents: np.ndarray | None = None
        self.law_report: LawReport | None = None

    # arithmetic ------------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # carrier ---------------------------------------------------------
    def elements(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int32)

    def element_name(self, a: int) -> str:
        raise NotImplementedError

    def element_index(self, name: str) -> int:
        raise NotImplementedError

    @property
    def is_table_backed(self) -> bool:
        return False

    # nilpotency ------------------------------------------------------
    def _compute_nil_mask(self) -> np.ndarray:
        raise NotImplementedError

    def nil_mask(self) -> np.ndarray:
        if self._nil_mask is None:
            self._nil_mask = self._compute_nil_mask()
            self._nil_mask.setflags(write=False)
        return self._nil_mask

    def nil_at(self, x):
        """Nilpotency of the element indices in x, elementwise."""
        return self.nil_mask()[x]

    def is_nilpotent(self, a: int) -> bool:
        return bool(self.nil_at(a))

    def generating_set(self) -> np.ndarray:
        """Elements generating the ring; commuting with them means central.

        The default is the whole carrier; structured rings override this
        with a small set.  Its order only fixes the witness r that
        `noncommuting_witness` names for `abelian_failure`; centrality is
        decided by `central_mask` on the `additive_generators`, whose
        centralizer is also the center.
        """
        return self.elements()

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} (size {self.size})>"


def index_table(values, size: int, what: str) -> np.ndarray:
    """values as an int32 array of element indices below `size`.

    Checked before the cast, which would wrap a wider integer or truncate
    a float into range silently.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integers, not {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= size):
        raise ValueError(f"{what} values out of range [0, {size})")
    return np.ascontiguousarray(a, dtype=np.int32)


class TableRing(FiniteRing):
    """Ring given by dense add/mul tables plus element names."""

    def __init__(
        self,
        name: str,
        add_table: np.ndarray,
        mul_table: np.ndarray,
        one: int,
        names: list[str],
    ):
        super().__init__()
        self.name = name
        self.size = len(add_table)
        if self.size > DEFAULT_TABLE_BUDGET:
            raise BudgetError(
                f"{name}: table ring of size {self.size} exceeds the "
                f"budget {DEFAULT_TABLE_BUDGET}"
            )
        self.add_table = index_table(add_table, self.size, f"{name}: add table")
        self.mul_table = index_table(mul_table, self.size, f"{name}: mul table")
        self.one = int(one)
        if not 0 <= self.one < self.size:
            raise ValueError(f"{name}: one={self.one} is not an element index below {self.size}")
        self.names = list(names)
        if len(self.names) != self.size:
            raise ValueError(f"{name}: {len(self.names)} names for {self.size} elements")
        self._index = {s: i for i, s in enumerate(self.names)}
        if len(self._index) != self.size:
            raise ValueError(f"{name}: element names are not unique")
        self.law_report = verify_ring_laws(self)
        if not self.law_report.ok:
            raise RingConstructionError(name, *self.law_report.violation)

    def add(self, a, b):
        return _scalar(self.add_table[a, b])

    def mul(self, a, b):
        return _scalar(self.mul_table[a, b])

    def neg(self, a):
        return _scalar(self._neg_table[a])

    @cached_property
    def _neg_table(self) -> np.ndarray:
        return np.argmax(self.add_table == self.zero, axis=1).astype(np.int32)

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """Ascending G whose left-normed sums ((g1+g2)+...)+gk reach every
        element: the least element not yet reached joins G, and a frontier
        closure steps each reached element by each generator once."""
        add, reached, gens = self.add_table, np.zeros(self.size, dtype=bool), []
        reached[self.zero] = True
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            frontier, cols = np.nonzero(reached)[0], gens[-1:]
            while len(frontier):
                nxt = np.fromiter(set(add[frontier[:, None], cols].ravel().tolist()), np.int64)
                frontier, cols = nxt[~reached[nxt]], gens
                reached[frontier] = True
        out = np.array(gens, dtype=np.int64)
        out.setflags(write=False)
        return out

    def element_name(self, a: int) -> str:
        return self.names[a]

    def element_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"{self.name}: no element named {name!r}") from None

    @property
    def is_table_backed(self) -> bool:
        return True

    def _compute_nil_mask(self) -> np.ndarray:
        return kernels.nilpotent_mask(self.mul_table, self.zero)


class SRing(FiniteRing):
    """Block ring of triples (A | B | C) standing for [[A, B], [0, C]].

    A, B, C range over a 2x2 matrix ring over a base ring; the carrier
    has |M|^3 elements and is never tabulated.  Products follow the
    block rule (A|B|C)(A'|B'|C') = (AA' | AB'+BC' | CC'), and a triple
    is nilpotent exactly when both diagonal blocks are.
    """

    def __init__(self, block_ring: TableRing, name: str):
        super().__init__()
        self.block = block_ring
        self.bsize = block_ring.size
        self.size = self.bsize**3
        self.name = name
        if self.size > np.iinfo(np.int32).max:
            # element indices, search rows and carrier tables are int32
            raise BudgetError(f"{name}: {self.size} elements exceed int32 element indices")
        self.one = self.encode(block_ring.one, 0, block_ring.one)
        self.law_report = verify_ring_laws(self)
        if not self.law_report.ok:
            raise RingConstructionError(name, *self.law_report.violation)

    # packing: index = (A * bsize + B) * bsize + C
    def encode(self, A, B, C):
        return _scalar((np.asarray(A) * self.bsize + B) * self.bsize + C)

    def decode(self, x):
        AB, C = np.divmod(np.asarray(x), self.bsize)
        A, B = np.divmod(AB, self.bsize)
        return A, B, C

    def triples(self, A, B, C) -> np.ndarray:
        """Indices of A x B x C; ascending when A, B and C are."""
        A, B, C = (np.asarray(t, dtype=np.int64) for t in (A, B, C))
        return self.encode(A[:, None, None], B[None, :, None], C[None, None, :]).ravel()

    def add(self, a, b):
        A1, B1, C1 = self.decode(a)
        A2, B2, C2 = self.decode(b)
        t = self.block.add_table
        return self.encode(t[A1, A2], t[B1, B2], t[C1, C2])

    def mul_blocks(self, x, y):
        """The block rule on decoded triples x = (A, B, C), y = (A', B', C'); broadcasts."""
        (A1, B1, C1), (A2, B2, C2) = x, y
        ta, tm = self.block.add_table, self.block.mul_table
        return tm[A1, A2], ta[tm[A1, B2], tm[B1, C2]], tm[C1, C2]

    def mul(self, a, b):
        return self.encode(*self.mul_blocks(self.decode(a), self.decode(b)))

    def neg(self, a):
        A, B, C = self.decode(a)
        t = self.block._neg_table
        return self.encode(t[A], t[B], t[C])

    def element_name(self, a: int) -> str:
        A, B, C = self.decode(a)
        bn = self.block.element_name
        return f"blk[{bn(int(A))};{bn(int(B))};{bn(int(C))}]"

    def element_index(self, name: str) -> int:
        if not (name.startswith("blk[") and name.endswith("]")):
            raise KeyError(f"{self.name}: bad element literal {name!r}")
        # split on semicolons at bracket depth zero; block names such as
        # [a,b;c,d] carry their own semicolons
        parts, depth, start = [], 0, 0
        body = name[4:-1]
        for pos, ch in enumerate(body):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ";" and depth == 0:
                parts.append(body[start:pos])
                start = pos + 1
        parts.append(body[start:])
        if len(parts) != 3:
            raise KeyError(f"{self.name}: bad element literal {name!r}")
        bi = self.block.element_index
        return self.encode(bi(parts[0]), bi(parts[1]), bi(parts[2]))

    def nil_blocks(self, x):
        """Nilpotency of decoded triples: both diagonal blocks are nilpotent."""
        bnil = self.block.nil_mask()
        return bnil[x[0]] & bnil[x[2]]

    def nil_at(self, x):
        """The block rule, per index: no carrier mask is built."""
        return self.nil_blocks(self.decode(x))

    def generating_set(self) -> np.ndarray:
        """Single-slot triples (X|0|0), (0|X|0), (0|0|X); every element is
        a sum of three of these, so their centralizer is the center.  The
        order fixes the noncommuting witness; masks use the additive
        generators."""
        x = np.arange(1, self.bsize, dtype=np.int64)
        b = self.bsize
        return np.concatenate([x * b * b, x * b, x])

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """The block ring's additive generators placed in each slot, ascending."""
        g, b = self.block.additive_generators, self.bsize
        out = np.sort(np.concatenate([g * b * b, g * b, g]))
        out.setflags(write=False)
        return out


# ---------------------------------------------------------------------------
# law verification


def _row_blocks(n: int, width: int = 1):
    """The indices 0..n-1 in ascending blocks of rows `width` cells wide,
    each block at most _CHUNK cells and at least one row."""
    step = max(1, _CHUNK // width)
    for lo in range(0, n, step):
        yield np.arange(lo, min(lo + step, n))


def _first_violation(laws, n: int, width: int):
    """(law, index) of the first failing law over rows 0..n-1, or None;
    every first-failure search under skewlab, law check or witness, is one.

    `laws` yields (law, bad) pairs in checking order; bad(x) is the law's
    boolean mask on the rows x, each row `width` cells at most, and is
    called on each block of `_row_blocks(n, width)` in turn, so one block
    of one law is alive at a time.  The index (row, *rest) is the law's
    row-major first failure, whatever the block size.
    """
    for law, bad in laws:
        for x in _row_blocks(n, width):
            mask = bad(x)
            if mask.any():
                i, *rest = np.unravel_index(int(np.argmax(mask)), mask.shape)
                return law, (int(x[i]), *map(int, rest))
    return None


def verify_ring_laws(ring: FiniteRing) -> LawReport:
    """Check the ring axioms exactly, over the ring's additive generators."""
    return _verify_block(ring) if isinstance(ring, SRing) else _verify_tables(ring)


def _mul_associative(ring: FiniteRing, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The mask (ab)c != a(bc) over (a, b, c) in a x g x g."""
    a, b, c = a[:, None, None], g[None, :, None], g[None, None, :]
    return ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c))


def _verify_block(ring: SRing) -> LawReport:
    """The block rule and unit on the slot generators G_S, associativity on G_S^3.

    (S, +) is three copies of the verified block ring's group and the
    block rule is bilinear over it, so distributivity holds outright and
    the other laws hold on S once they hold on G_S.
    """
    g, blk = ring.additive_generators, ring.block
    k = len(g)

    def block_rule(i):
        x, y = g[i, None], g[None, :]
        (A1, B1, C1), (A2, B2, C2) = ring.decode(x), ring.decode(y)
        rule = blk.mul(A1, A2), blk.add(blk.mul(A1, B2), blk.mul(B1, C2)), blk.mul(C1, C2)
        return ring.mul(x, y) != ring.encode(*rule)

    hit = _first_violation([
        ("block_rule", block_rule),
        ("one_left_identity", lambda i: ring.mul(ring.one, g[i]) != g[i]),
        ("one_right_identity", lambda i: ring.mul(g[i], ring.one) != g[i]),
        ("mul_associative", lambda i: _mul_associative(ring, g[i], g)),
    ], k, k * k)
    violation = None if hit is None else (hit[0], tuple(int(g[i]) for i in hit[1]))
    return LawReport(ring.name, "block", k**3 + k**2 + 2 * k, violation)


def _verify_tables(ring: TableRing) -> LawReport:
    n = ring.size
    add, mul = ring.add_table, ring.mul_table

    def report(law, witness):
        return LawReport(ring.name, "generators", 0, (law, tuple(map(int, witness))))

    if add.shape != (n, n) or mul.shape != (n, n):
        return report("table_shape", (n,))
    if ring.zero == ring.one:
        return report("zero_ne_one", (ring.zero,))
    hit = _first_violation([
        ("add_commutative", lambda x: add[x] != add[:, x].T),
        ("zero_identity", lambda x: add[ring.zero, x] != x),
        ("negation_exists", lambda x: ~(add[x] == ring.zero).any(axis=1)),
        ("one_left_identity", lambda x: mul[ring.one, x] != x),
        ("one_right_identity", lambda x: mul[x, ring.one] != x),
    ], n, n)
    if hit:
        return report(*hit)
    g = ring.additive_generators
    violation = _generator_violation(ring, g)
    if violation and n <= _WITNESS_SWEEP_CAP:
        violation = _canonical_violation(add, mul) or violation
    return LawReport(ring.name, "generators", 3 * n * n * len(g) + len(g) ** 3, violation)


def _generator_violation(ring: TableRing, gens: np.ndarray):
    """First (law, witness) that the generators decide, or None.

    Per generator g and all x, y: (x+g)+y = x+(g+y) is Light's test for
    + associative; with that, x(y+g) = xy+xg and (x+g)y = xy+gy are
    distributivity; with both, * associative on G^3 is associativity.
    Generator by generator, each law runs over every row x.
    """
    add, mul, n = ring.add_table, ring.mul_table, ring.size
    plus = add.ravel()  # plus[a*n + b] = a+b; flat takes beat 2-d gathers

    def laws(g):  # masks over rows x and every column y
        yield ("add_associative", g), lambda x: add[add[x, g]] != add[x].take(add[g], axis=1)
        yield ("distributive_left", g), lambda x: (
            mul[x].take(add[:, g], axis=1) != plus.take(mul[x] * n + mul[x, g, None])
        )
        yield ("distributive_right", g), lambda x: mul[add[x, g]] != plus.take(mul[x] * n + mul[g])

    hit = _first_violation((law for g in gens for law in laws(int(g))), n, n)
    if hit:
        (law, g), (x, y) = hit
        return law, (x, y, g) if law == "distributive_left" else (x, g, y)
    k = len(gens)
    hit = _first_violation(
        [("mul_associative", lambda i: _mul_associative(ring, gens[i], gens))], k, k * k
    )
    return None if hit is None else (hit[0], tuple(int(gens[i]) for i in hit[1]))


def _canonical_violation(add: np.ndarray, mul: np.ndarray):
    """First (law, witness) of the full (a, b, c) sweeps, or None."""
    for law, table in (("add_associative", add), ("mul_associative", mul)):
        w = kernels.associativity_witness(table)
        if w is not None:
            return law, w
    w = kernels.distributivity_witness(add, mul)
    return None if w is None else (f"distributive_{w[0]}", w[1])


# ---------------------------------------------------------------------------
# nilpotency (the power bound is kernels.nilpotent_mask; tests/oracles.py
# holds the independent cycle-detection route)


def power_trajectory(ring: FiniteRing, a: int):
    """Powers a, a^2, ... up to the first repeat or first zero.

    Returns (powers, reaches_zero).  If reaches_zero is False the list
    ends just before the power that closed a cycle, certifying that no
    power of a is ever zero.
    """
    seen = {}
    powers = []
    p = int(a)
    for _ in range(ring.size + 1):
        if p == ring.zero:
            powers.append(p)
            return powers, True
        if p in seen:
            return powers, False
        seen[p] = len(powers)
        powers.append(p)
        p = int(ring.mul(p, a))
    return powers, False


def nil_set(ring: FiniteRing) -> np.ndarray:
    """Ascending indices of the nilpotent elements.

    On an S ring these are nil(M) x M x nil(M), by the block rule.
    """
    if isinstance(ring, SRing):
        nb = nil_set(ring.block)
        return ring.triples(nb, np.arange(ring.bsize), nb)
    return np.nonzero(ring.nil_mask())[0].astype(np.int64)


def least_nonzero_nilpotent(ring: FiniteRing) -> int | None:
    """The least nonzero nilpotent, or None when 0 is the only nilpotent.

    An S ring over M is never reduced, and nil(S) = nil(M) x M x nil(M) is
    not built.  Index (A*|M| + B)*|M| + C ascends with (A, B, C), and 0,
    index 0, is the least nilpotent of M, so the least nonzero nilpotent
    has A = 0.  It is (0|0|x), index x, with x the least nonzero nilpotent
    of M: every (0|B|C) with B != 0 has index >= |M| > x.  When M is
    reduced, C = 0 too, and it is (0|b|0) with b of index 1: index |M|.
    """
    if isinstance(ring, SRing):
        nb = nil_set(ring.block)
        return int(nb[1]) if nb.size > 1 else ring.bsize
    nils = nil_set(ring)
    return int(nils[1]) if nils.size > 1 else None


def is_reduced(ring: FiniteRing) -> bool:
    """True when 0 is the only nilpotent."""
    return least_nonzero_nilpotent(ring) is None


def ni_failure(ring: FiniteRing):
    """None if nil(R) is a two-sided ideal, else ("add", a, b): a, b
    nilpotent and a+b not, the first pair met with a, then b, ascending.

    Sums suffice: nil(R) is the preimage of nil(R/J), J = J(R) nilpotent,
    and R/J = prod M_n(F_q), where E12 + E21 is a unit for n >= 2.

    An S ring over M gives its block ring's answer, each element x placed
    as (0|0|x), which encodes as x.  nil(S) = nil(M) x M x nil(M), whose
    elements (0|0|c) come first.  For a = (0|0|c) and b = (A|B|C) in
    nil(S), a+b is nilpotent iff c+C is, so a fails iff c fails in M, and
    its first witness b is (0|0|x) with x the first witness in M.  If M
    is NI, nil(S) is closed under addition: its diagonal blocks are.
    """
    if isinstance(ring, SRing):
        return ni_failure(ring.block)
    nil = nil_set(ring)
    hit = _first_violation(
        [("add", lambda i: ~ring.nil_at(ring.add(nil[i, None], nil)))], nil.size, nil.size
    )
    return None if hit is None else ("add", *(int(nil[i]) for i in hit[1]))


def is_ni(ring: FiniteRing) -> bool:
    """True when the set of nilpotents is a two-sided ideal."""
    return ni_failure(ring) is None


def idempotents(ring: FiniteRing) -> np.ndarray:
    """Ascending indices of elements with e*e = e; found once per ring.

    (A|B|C)^2 = (A^2 | AB + BC | C^2), so an idempotent of an S ring
    lies in idem(M) x M x idem(M), and only that slice is swept, as a
    grid of decoded triples; only the idempotents are encoded.
    """
    if ring._idempotents is None:
        if isinstance(ring, SRing):
            e, M = idempotents(ring.block), np.arange(ring.bsize)
            x = (e[:, None, None], M[None, :, None], e[None, None, :])
            (A, B, C), sq = x, ring.mul_blocks(x, x)
            i, j, k = np.nonzero((sq[0] == A) & (sq[1] == B) & (sq[2] == C))
            out = ring.encode(e[i], j, e[k])
        else:
            out = np.concatenate([x[ring.mul(x, x) == x] for x in _row_blocks(ring.size)])
        ring._idempotents = out.astype(np.int64)
        ring._idempotents.setflags(write=False)
    return ring._idempotents


def noncommuting_witness(ring: FiniteRing, a: int):
    """First generator g (in generating-set order) with ag != ga, or None."""
    gens = ring.generating_set()
    hit = _first_violation(
        [("commutes", lambda i: ring.mul(a, gens[i]) != ring.mul(gens[i], a))], len(gens), 1
    )
    return None if hit is None else int(gens[hit[1][0]])


def is_central(ring: FiniteRing, a: int) -> bool:
    return bool(central_mask(ring, [a])[0])


def central_mask(ring: FiniteRing, candidates: np.ndarray) -> np.ndarray:
    """Boolean mask over candidates marking the central ones.

    Candidates are tested against the additive generators, one at a
    time on the candidates still alive: ring multiplication is
    biadditive, so their centralizer is the center.  On an S ring both
    are decoded once and multiplied by the block rule.
    """
    cand = np.asarray(candidates, dtype=np.int64)
    gens = ring.additive_generators
    if isinstance(ring, SRing):
        x, g, mul = ring.decode(cand), ring.decode(gens), ring.mul_blocks
    else:
        x, g, mul = (cand,), (gens,), lambda a, b: (ring.mul(a[0], b[0]),)
    alive = np.arange(len(cand))
    for k in range(len(gens)):
        cur, gen = tuple(t[alive] for t in x), tuple(t[k] for t in g)
        bad = np.zeros(len(alive), dtype=bool)
        for left, right in zip(mul(cur, gen), mul(gen, cur)):
            bad |= left != right
        alive = alive[~bad]
    mask = np.zeros(len(cand), dtype=bool)
    mask[alive] = True
    return mask


def central_idempotents(ring: FiniteRing) -> np.ndarray:
    """Ascending indices of central idempotents; found once per ring."""
    if ring._central_idempotents is None:
        idem = idempotents(ring)
        ring._central_idempotents = idem[central_mask(ring, idem)]
        ring._central_idempotents.setflags(write=False)
    return ring._central_idempotents


def abelian_failure(ring: FiniteRing):
    """None if every idempotent is central, else (e, r) with er != re: e is
    the least idempotent outside the center, r its `noncommuting_witness`."""
    idem, central = idempotents(ring), central_idempotents(ring)
    if len(central) == len(idem):
        return None
    e = int(idem[np.isin(idem, central, invert=True)][0])
    return e, noncommuting_witness(ring, e)


def is_abelian(ring: FiniteRing) -> bool:
    """True when every idempotent commutes with everything."""
    return abelian_failure(ring) is None


def is_invertible(ring: FiniteRing, a: int) -> bool:
    """True when a has a two-sided multiplicative inverse.

    ax = 1 suffices, as finite rings are Dedekind-finite: r -> xr is
    injective (axr = r), so xy = 1 for some y, and y = (ax)y = a(xy) = a.

    (A|B|C) in an S ring is a unit exactly when A and C are units of M:
    then (A^-1 | -A^-1 B C^-1 | C^-1) is its inverse on both sides.
    """
    if isinstance(ring, SRing):
        A, _, C = ring.decode(a)
        return is_invertible(ring.block, int(A)) and is_invertible(ring.block, int(C))
    return bool((ring.mul(a, ring.elements()) == ring.one).any())


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class SubsetIdeal:
    """A verified two-sided ideal given by its ascending element indices."""

    ring: FiniteRing = field(compare=False)
    elements: tuple[int, ...]
    label: str = ""


class NotAnIdealError(RingError):
    def __init__(self, label, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{label}: not a two-sided ideal ({reason} at {witness})")


def make_ideal(ring: FiniteRing, elems, label: str = "") -> SubsetIdeal:
    """Wrap a subset after verifying ideal closure (raises if it fails).

    The checks run in order: zero, additive closure, absorption, each by
    ascending element a, and the first a to break one is the witness.
    Closure reads row blocks of sums (or products) through one membership
    mask over the carrier.
    """
    name = label or "subset"
    inside = np.zeros(ring.size, dtype=bool)
    inside[np.asarray(list(elems), dtype=np.int64)] = True
    elems = np.flatnonzero(inside)
    if not inside[ring.zero]:
        raise NotAnIdealError(name, "missing zero", (ring.zero,))
    every = ring.elements()[None, :]
    hit = _first_violation([
        ("add closure", lambda i: ~inside[ring.add(elems[i, None], elems)].all(axis=1)),
        ("mul absorption", lambda i: ~(
            inside[ring.mul(every, elems[i, None])] & inside[ring.mul(elems[i, None], every)]
        ).all(axis=1)),
    ], elems.size, ring.size)
    if hit:
        raise NotAnIdealError(name, hit[0], (int(elems[hit[1][0]]),))
    return SubsetIdeal(ring, tuple(int(x) for x in elems), label)


def principal_right_set(ring: FiniteRing, e: int) -> np.ndarray:
    """The set e*R as ascending indices (not verified as two-sided)."""
    return kernels.dedupe(np.asarray(ring.mul(int(e), ring.elements())))[0]


# ---------------------------------------------------------------------------
# constructors


def make_zn(n: int) -> TableRing:
    if n < 2:
        raise ValueError("Z_n needs n >= 2")
    if n > DEFAULT_TABLE_BUDGET:
        raise BudgetError(f"Z{n} has size {n} > {DEFAULT_TABLE_BUDGET}")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return TableRing(f"Z{n}", add, mul, 1, [str(i) for i in range(n)])


def make_product(r1: TableRing, r2: TableRing) -> TableRing:
    """Direct product with componentwise operations; index = i1*|R2| + i2."""
    s1, s2 = r1.size, r2.size
    if s1 * s2 > DEFAULT_TABLE_BUDGET:
        raise BudgetError(f"product size {s1 * s2} exceeds {DEFAULT_TABLE_BUDGET}")
    idx = np.arange(s1 * s2)
    x1, x2 = idx // s2, idx % s2
    X1, Y1 = x1[:, None], x1[None, :]
    X2, Y2 = x2[:, None], x2[None, :]
    add = r1.add_table[X1, Y1] * s2 + r2.add_table[X2, Y2]
    mul = r1.mul_table[X1, Y1] * s2 + r2.mul_table[X2, Y2]
    names = [f"({r1.element_name(int(a))}|{r2.element_name(int(b))})" for a, b in zip(x1, x2)]
    one = r1.one * s2 + r2.one
    return TableRing(f"{r1.name}x{r2.name}", add, mul, one, names)


def _digits(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    """Big-endian base-`base` digits, shape idx.shape + (width,)."""
    out = np.empty(idx.shape + (width,), dtype=np.int64)
    x = idx.copy()
    for k in range(width - 1, -1, -1):
        out[..., k] = x % base
        x //= base
    return out


def _pack(digits, base: int):
    """Big-endian digits (ints or equal-shape arrays) packed into indices."""
    out = 0
    for d in digits:
        out = out * base + d
    return out


def make_matrix_ring(base: TableRing, k: int = 2) -> TableRing:
    """k x k matrices over a table ring, entries packed row-major."""
    m = base.size**(k * k)
    if m > DEFAULT_TABLE_BUDGET:
        raise BudgetError(f"M{k}({base.name}) has size {m} > {DEFAULT_TABLE_BUDGET}")
    n, ta, tm = base.size, base.add_table, base.mul_table
    dig = _digits(np.arange(m), n, k * k)  # (m, k*k)
    ent = dig.reshape(m, k, k)

    def entry(r, c):  # entry (r, c) of every product x * y, shape (m, m)
        acc = tm[ent[:, None, r, 0], ent[None, :, 0, c]]
        for t in range(1, k):
            acc = ta[acc, tm[ent[:, None, r, t], ent[None, :, t, c]]]
        return acc

    # both tables are packed one entry at a time, row-major
    add = _pack((ta[dig[:, None, d], dig[None, :, d]] for d in range(k * k)), n)
    mul = _pack((entry(r, c) for r in range(k) for c in range(k)), n)
    one = _pack((base.one if r == c else 0 for r in range(k) for c in range(k)), n)
    names = []
    for i in range(m):
        rows = [
            ",".join(base.element_name(int(v)) for v in ent[i, r])
            for r in range(k)
        ]
        names.append("[" + ";".join(rows) + "]")
    return TableRing(f"M{k}({base.name})", add, mul, one, names)


def make_r3(base: TableRing) -> TableRing:
    """Upper-triangular 3x3 matrices a*I + b*E12 + c*E13 + d*E23 over a base ring.

    Element index packs the four free entries (a, b, c, d) big-endian;
    the product is (aa', ab'+ba', ac'+bd'+ca', ad'+da').
    """
    m = base.size**4
    if m > DEFAULT_TABLE_BUDGET:
        raise BudgetError(f"R3({base.name}) has size {m} > {DEFAULT_TABLE_BUDGET}")
    dig = _digits(np.arange(m), base.size, 4)
    am, aa = base.mul_table, base.add_table
    add = _pack((aa[dig[:, None, d], dig[None, :, d]] for d in range(4)), base.size)
    a1, b1, c1, d1 = dig[:, 0][:, None], dig[:, 1][:, None], dig[:, 2][:, None], dig[:, 3][:, None]
    a2, b2, c2, d2 = dig[:, 0][None, :], dig[:, 1][None, :], dig[:, 2][None, :], dig[:, 3][None, :]
    pa = am[a1, a2]
    pb = aa[am[a1, b2], am[b1, a2]]
    pc = aa[aa[am[a1, c2], am[b1, d2]], am[c1, a2]]
    pd = aa[am[a1, d2], am[d1, a2]]
    mul = _pack((pa, pb, pc, pd), base.size)
    one = _pack((base.one, 0, 0, 0), base.size)
    names = [
        "ut3[{},{},{},{}]".format(*(base.element_name(int(v)) for v in dig[i]))
        for i in range(m)
    ]
    return TableRing(f"R3({base.name})", add, mul, one, names)


def make_s_ring(base: TableRing) -> SRing:
    """The block ring S over 2x2 matrices over `base` (structural carrier)."""
    block = make_matrix_ring(base, 2)
    return SRing(block, f"S({base.name})")
