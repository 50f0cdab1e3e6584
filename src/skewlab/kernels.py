"""Hot enumeration kernels, vectorized with numpy.

Every kernel here is order-deterministic: sweeps run in C order over
element indices and the first violation (or witness) in that order is
returned.

Table kernels take dense Cayley tables (int32, shape (n, n)).  The
zero-product search is one sweep over any pair of vectorized add/mul
operations: table gathers for tabulated rings, or a ring's own add/mul
for rings too large to tabulate.  Move-past constants carry the twists
and derivations, so the same sweep serves every zero-product property.
`mul` builds one term table per move over the sweep's distinct
coefficients, and `neg` its negation; the sweep reads products off those
tables and forms fg one coefficient at a time, each on the pairs still
zero, the first ones once per degree block pair on distinct f keys.
"""
from __future__ import annotations

import numpy as np

# the pair sweep's memory cap: key tables are built a quarter of it at a
# time; a chunk of f rows tests at most an eighth of it in zero-pair
# candidates, or forms all of it in products on the `keep` path
_CHUNK_ELEMS = 1 << 18


def dedupe(a: np.ndarray):
    """(u, first, inv): a's distinct entries (rows, when 2-D) ascending, the
    index of each one's first occurrence, and each entry's index into u.
    np.unique of a 1-D array would import numpy.ma on its first call."""
    r = a[:, None] if a.ndim == 1 else a
    order = np.lexsort(r.T[::-1])
    new = np.append(True, (r[order[1:]] != r[order[:-1]]).any(axis=1))
    inv = np.empty_like(order)
    inv[order] = np.cumsum(new) - 1
    return a[order[new]], order[new], inv


# ---------------------------------------------------------------------------
# law sweeps


def associativity_witness(table: np.ndarray):
    """First (a, b, c) with (ab)c != a(bc), or None."""
    n = table.shape[0]
    for a in range(n):
        row = table[a]
        lhs = table[row]  # lhs[b, c] = table[table[a,b], c]
        rhs = row[table]  # rhs[b, c] = table[a, table[b,c]]
        bad = lhs != rhs
        if bad.any():
            flat = int(np.argmax(bad))
            return a, flat // n, flat % n
    return None


def distributivity_witness(add: np.ndarray, mul: np.ndarray):
    """First distributivity failure as ("left"|"right", (a, b, c)), or None.

    Scan order is (a, b, c), with the left law tested before the right
    one at each triple.
    """
    n = add.shape[0]
    for a in range(n):
        arow = mul[a]
        badl = arow[add] != add[arow[:, None], arow[None, :]]  # a(b+c) vs ab+ac
        badr = mul[add[a]] != add[arow[None, :], mul]  # (a+b)c vs ac+bc
        bad = badl | badr
        if bad.any():
            flat = int(np.argmax(bad))
            b, c = flat // n, flat % n
            return ("left" if badl[b, c] else "right", (a, b, c))
    return None


# ---------------------------------------------------------------------------
# nilpotency


def nilpotent_mask(mul: np.ndarray, zero: int) -> np.ndarray:
    """Boolean mask of a with a^k = 0 for some 1 <= k <= n (pigeonhole bound)."""
    n = mul.shape[0]
    idx = np.arange(n)
    cur = idx.copy()
    out = cur == zero
    for _ in range(n - 1):
        if out.all():
            break
        cur = mul[cur, idx]
        out |= cur == zero
    return out


# ---------------------------------------------------------------------------
# zero-product pair search
#
# add, mul, neg: vectorized ring operations on element-index arrays.
# polys: (P, M) int32, rows = coefficient vectors over the monomial list,
#   sorted by (degree, enumeration index), column 0 = constant monomial.
# deg_starts: (D+2,) row offsets of the degree blocks.
# moves: move-past constants [(i, k, table)], x^{alpha_i} * b =
#   sum_k table[b] * x^{alpha_k}; without derivations (i, i, sigma^{alpha_i}).
# stc: (M, M, G) int32 structure constants: x^{alpha_i} * x^{alpha_j} =
#   sum_g stc[i,j,g] * x^{gamma_g} over the product monomial list.
# mode: what each coefficient pair (i, j) of a selected pair must meet:
#   0 = a_i sigma^(alpha_i)(b_j) nilpotent, 1 = it is zero, 2 = it is zero
#   for i = 0, 3 = (a_i x^alpha_i)(b_j x^alpha_j) = 0, 4 = a_i b_j nilpotent.
# nil: elementwise nilpotency of an index array (modes 0 and 4).
# keep: None selects the pairs with fg = 0; else keep(row of fg) decides,
#   asked in pair order and never about a row first seen after the witness.
#
# Returns (witness, pairs_checked, selected); witness is (fi, gi, i, j)
# or None.  Counters cover the pairs enumerated up to and including the
# witness pair, in (deg f, deg g, f, g) order.
#
# The sweep runs on local indices into K, the distinct coefficients of
# polys (and zero).  (a x^alpha_i)(b x^alpha_j) adds a * table[b] * s to
# coefficient g for each move (i, k, table) with s = stc[k, j, g] nonzero;
# each distinct (move, s) gets one |K| x |K| term table of those values,
# and its negation, built once per sweep through `mul` and `neg`, so a
# pair's coefficient is a sum of table gathers.  Each mode's condition is
# one boolean |K| x |K| table per cell (i, j); in mode 3 it ORs over g
# whether the cell's terms on coefficient g sum to nonzero.  A term table
# has at most as many entries as the pairs swept: |K|^2 <= k^(2M).
#
# Selecting fg = 0 forms one coefficient (a stage) at a time, on the
# pairs still zero, the leading ones once per degree block pair on the
# distinct f keys (`_key_zeros`); only a `keep` sweep forms every
# coefficient of every pair.  The selected pairs are tested one cell (i, j)
# at a time into one hit mask; only the first hit pair finds its cell.
#
# A block pair's f rows go in chunks sized by their work: each chunk is the
# longest run of rows, at least one, whose key-run survivors (on the `keep`
# path, pairs) fit a budget that starts at 2^12 and doubles up to the cap
# above.  A search that fails early so tests about twice the pairs up to
# its witness, and a full sweep runs few, large chunks.


def _term_tables(mul, neg, K, moves, stc, zero, one):
    """terms[g] = [(i, j, T, -T)], T[ka, kb] = K[ka] * table[K[kb]] * s, per coefficient g."""
    tables = {}
    terms = [[] for _ in range(stc.shape[2])]
    for m, (i, k, tab) in enumerate(moves):
        for j in range(stc.shape[1]):
            for g in range(stc.shape[2]):
                s = int(stc[k, j, g])
                if s == zero:
                    continue
                if (m, s) not in tables:
                    t = mul(K[:, None], tab[K][None, :])
                    t = np.asarray(t if s == one else mul(t, s), dtype=np.int32)
                    tables[m, s] = (t, np.asarray(neg(t), dtype=np.int32))
                terms[g].append((i, j, *tables[m, s]))
    return terms


def _violation_tables(add, mul, nil, K, moves, terms, zero, mode, M):
    """[((i, j), V)], row-major: V[ka, kb] says (K[ka], K[kb]) at cell (i, j) break `mode`."""
    if mode == 3:
        cells = {}
        for tg in terms:
            for cell in dict.fromkeys(t[:2] for t in tg):
                total = _coeff(add, lambda T, *_: T, [t for t in tg if t[:2] == cell])
                cells[cell] = cells.get(cell, False) | (total != zero)
        return sorted(cells.items())
    if mode == 4:
        rows = [~nil(mul(K[:, None], K[None, :]))] * M
    else:
        # endomorphism type: moves[i] = (i, i, sigma^alpha_i)
        prods = [mul(K[:, None], tab[K][None, :]) for _, _, tab in moves[: 1 if mode == 2 else M]]
        rows = [~nil(p) if mode == 0 else p != zero for p in prods]
    return [((i, j), v) for i, v in enumerate(rows) for j in range(M)]


def _live(terms, F, B, zk):
    """The term lists without terms on an all-zero column of F or B: those add zero."""
    fl, bl = (F != zk).any(axis=0), (B != zk).any(axis=0)
    return [[t for t in tg if fl[t[0]] and bl[t[1]]] for tg in terms]


def _coeff(add, at, terms):
    """Sum over `terms` of at(T, i, j): T read at coefficient i of f and j of g."""
    acc = None
    for i, j, T, _ in terms:
        t = at(T, i, j)
        acc = t if acc is None else add(acc, t)
    return acc


def _is_zero(add, at, terms, zero):
    """Mask of sum over `terms` = 0: all but the last term against the negated last one."""
    i, j, _, N = terms[-1]
    head = _coeff(add, at, terms[:-1])
    return at(N, i, j) == (zero if head is None else head)


def _outer(F, B):
    """at(T, i, j) on every pair (F[f], B[b]), shaped (len(F), len(B))."""
    return lambda T, i, j: T[F[:, i, None], B[None, :, j]]


def _products(add, F, B, terms, zk, zero):
    """fg[g, f * len(B) + b]: coefficient g of the product F[f] * B[b]."""
    fg = np.full((len(terms), F.shape[0] * B.shape[0]), zero, dtype=np.int32)
    for g, tg in enumerate(_live(terms, F, B, zk)):
        if tg:
            fg[g] = _coeff(add, _outer(F, B), tg).reshape(-1)
    return fg


def _pairs_at(F, B, fi, bi):
    """at(T, i, j) on the pairs (F[fi], B[bi]); each column is gathered once."""
    rows, cols = {}, {}

    def at(T, i, j):
        if i not in rows:
            rows[i] = F[:, i].take(fi)
        if j not in cols:
            cols[j] = B[:, j].take(bi)
        flat = rows[i] * np.intp(T.shape[1])
        flat += cols[j]
        return T.ravel().take(flat)

    return at


def _still_zero(add, F, B, fi, bi, stages, zero):
    """The pairs (F[fi], B[bi]) zeroing every stage, each run on the pairs left."""
    for tg in stages:
        if not fi.size:
            break
        z = np.flatnonzero(_is_zero(add, _pairs_at(F, B, fi, bi), tg, zero))
        fi, bi = fi.take(z), bi.take(z)
    return fi, bi


def _key_zeros(add, F, B, terms, zk, zero):
    """The zero-pair filter of a degree block pair F x B: (kf, ptr, zb, rest).

    Stages: live coefficients, fewest terms first, ties to the later one (in
    one variable, the leading coefficients' product).  The key run: the
    first stage and each next while it reads a proper subset of F's live
    columns.  Row f has key kf[f], its row on those; key k zeroes the run on
    B rows zb[ptr[k]:ptr[k+1]], ascending.  rest: the later stages.
    """
    live, ng = _live(terms, F, B, zk), B.shape[0]
    stages = [tg for *_, tg in sorted((len(tg), -g, tg) for g, tg in enumerate(live) if tg)]
    if not stages:  # no live term: every pair is zero
        return np.zeros(F.shape[0], dtype=np.intp), np.array([0, ng]), np.arange(ng), []
    reads = [{t[0] for tg in stages[: r + 1] for t in tg} for r in range(len(stages))]
    width = (F != zk).any(axis=0).sum()
    run = max(1, sum(len(c) < width for c in reads))
    _, first, kf = dedupe(F[:, sorted(reads[run - 1])])
    keys, step, parts = F[first], max(1, _CHUNK_ELEMS // 4 // ng), []
    for k0 in range(0, keys.shape[0], step):
        ki, bi = np.nonzero(_is_zero(add, _outer(keys[k0 : k0 + step], B), stages[0], zero))
        ki, bi = _still_zero(add, keys, B, ki + k0, bi, stages[1:run], zero)
        parts.append((ki, bi.astype(np.int32)))
    ki, zb = (np.concatenate(p) for p in zip(*parts))
    return kf, np.searchsorted(ki, np.arange(keys.shape[0] + 1)), zb, stages[run:]


def _zero_pairs(add, F, B, plan, f0, zero):
    """Ascending flat indices f * len(B) + b of the pairs with F[f] * B[b] = 0.

    F is rows f0, f0 + 1, ... of the block of `plan` (`_key_zeros`): each
    row takes its key's zero B rows, and the later stages filter them.
    """
    kf, ptr, zb, rest = plan
    kf = kf[f0 : f0 + F.shape[0]]
    cnt = ptr[kf + 1] - ptr[kf]
    fi = np.repeat(np.arange(F.shape[0]), cnt)
    bi = np.repeat(ptr[kf] - np.cumsum(cnt) + cnt, cnt)
    bi += np.arange(bi.size)
    bi = zb.take(bi)
    fi, bi = _still_zero(add, F, B, fi, bi, rest, zero)
    return fi * B.shape[0] + bi


def _violations(F, B, fi, bi, V):
    """((i, j), mask) per coefficient cell: where pair (F[fi], B[bi]) breaks the mode."""
    at = _pairs_at(F, B, fi, bi)
    for (i, j), v in V:
        yield (i, j), at(v, i, j)


def _first_cell(F, B, fi, bi, V):
    """The first (i, j), row-major, that pair (F[fi], B[bi]) breaks."""
    masks = _violations(F, B, np.array([fi]), np.array([bi]), V)
    return next(cell for cell, mask in masks if mask[0])


def _kept(rows, hit, keep):
    """Mask of the pairs whose product row passes `keep`, up to the first kept hit.

    Pairs after that one read False: their rows are not asked about
    unless an earlier pair shares them.
    """
    uniq, first, inv = dedupe(rows)
    first_hit = np.full(uniq.shape[0], rows.shape[0])
    at = np.flatnonzero(hit)
    np.minimum.at(first_hit, inv[at], at)
    ok = np.zeros(uniq.shape[0], dtype=bool)
    stop = rows.shape[0]
    for u in np.argsort(first):
        if first[u] > stop:
            break
        if keep(uniq[u]):
            ok[u] = True
            stop = min(stop, int(first_hit[u]))
    sel = ok[inv]
    sel[stop + 1 :] = False
    return sel


def _sweep(add, mul, neg, polys, deg_starts, moves, stc, nil, zero, one, mode, keep=None):
    """Scan poly pairs for a selected fg with a coefficient pair breaking `mode`."""
    nblocks = deg_starts.shape[0] - 1
    M = polys.shape[1]
    K = dedupe(np.append(polys, zero))[0]
    zk = int(np.searchsorted(K, zero))
    polys = np.searchsorted(K, polys).astype(np.uint8 if K.size <= 256 else np.int32)
    terms = _term_tables(mul, neg, K, moves, stc, zero, one)
    V = _violation_tables(add, mul, nil, K, moves, terms, zero, mode, M)
    pairs = selected = 0
    for df in range(nblocks):
        f0, f1 = int(deg_starts[df]), int(deg_starts[df + 1])
        for dg in range(nblocks):
            g0, g1 = int(deg_starts[dg]), int(deg_starts[dg + 1])
            ng = g1 - g0
            if ng == 0 or f1 == f0:
                continue
            B = polys[g0:g1]
            if keep is None:
                plan = _key_zeros(add, polys[f0:f1], B, terms, zk, zero)
                kf, ptr = plan[:2]
                work, cap = np.append(0, np.cumsum(ptr[kf + 1] - ptr[kf])), _CHUNK_ELEMS >> 3
            else:
                work, cap = np.arange(f1 - f0 + 1) * ng, _CHUNK_ELEMS
            fc, budget = f0, 1 << 12
            while fc < f1:
                # the longest run of rows, at least one, whose work fits the budget
                fit = f0 + int(np.searchsorted(work, work[fc - f0] + min(budget, cap), "right")) - 1
                F, budget = polys[fc : max(fit, fc + 1)], budget * 2
                if keep is None:
                    cand = _zero_pairs(add, F, B, plan, fc - f0, zero)
                else:
                    fg = _products(add, F, B, terms, zk, zero)
                    cand = np.arange(fg.shape[1])
                hit = np.zeros(cand.size, dtype=bool)
                for _, mask in _violations(F, B, cand // ng, cand % ng, V):
                    hit |= mask
                if keep is not None:
                    sel = _kept(fg.T, hit, keep)
                    cand, hit = cand[sel], hit[sel]
                    del fg  # one product block alive at a time
                if hit.any():
                    k = int(np.argmax(hit))
                    fl, gl = divmod(int(cand[k]), ng)
                    witness = (fc + fl, g0 + gl, *_first_cell(F, B, fl, gl, V))
                    return witness, pairs + fl * ng + gl + 1, selected + k + 1
                pairs += F.shape[0] * ng
                selected += int(cand.size)
                fc += F.shape[0]
    return None, pairs, selected


def search_zero_products_table(
    polys: np.ndarray, deg_starts: np.ndarray, add: np.ndarray, mul: np.ndarray,
    moves: list, stc: np.ndarray, nil_mask: np.ndarray, zero: int, one: int, mode: int, keep=None,
):
    """The pair sweep over a table ring, with Cayley-table gathers as ops."""
    neg = np.argmax(add == zero, axis=1)
    return _sweep(
        lambda a, b: add[a, b], lambda a, b: mul[a, b], neg.__getitem__,
        polys, deg_starts, moves, stc, nil_mask.__getitem__, zero, one, mode, keep,
    )


def search_zero_products_generic(
    ring, polys: np.ndarray, deg_starts: np.ndarray, moves: list, stc: np.ndarray,
    mode: int, keep=None,
):
    """The pair sweep through a ring's vectorized ops; for untabulated rings.

    Nilpotency is read per element through `ring.nil_at`, so no carrier
    mask is needed.
    """
    return _sweep(
        ring.add, ring.mul, ring.neg, polys, deg_starts, moves, stc, ring.nil_at,
        ring.zero, ring.one, mode, keep,
    )
