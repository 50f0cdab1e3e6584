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
coefficients; the sweep reads products off those tables and forms fg
one coefficient at a time, each on the pairs still zero.
"""
from __future__ import annotations

import numpy as np

# chunk cap for the pair sweep, in (f, g) pairs per block
_CHUNK_ELEMS = 1 << 18


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
# add, mul: vectorized ring operations on element-index arrays.
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
# built once per sweep through `mul`, so a pair's coefficient is a sum of
# table gathers.  The coefficient conditions of modes 0-2 and 4 are
# boolean |K| x |K| tables in the same way.  Selecting fg = 0 forms one
# coefficient at a time, on the pairs still zero; only a `keep` sweep
# forms every coefficient of every pair.  A term table has at most as
# many entries as the pairs swept: |K|^2 <= k^(2M).


def _term_tables(mul, K, moves, stc, zero, one):
    """terms[g] = [(i, j, T)], T[ka, kb] = K[ka] * table[K[kb]] * s, per coefficient g."""
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
                    tables[m, s] = np.asarray(t if s == one else mul(t, s), dtype=np.int32)
                terms[g].append((i, j, tables[m, s]))
    return terms


def _violation_tables(mul, nil, K, moves, zero, mode, M):
    """V[i][ka, kb]: coefficients (K[ka], K[kb]) at row i break `mode` (not mode 3)."""
    if mode == 4:
        return [~nil(mul(K[:, None], K[None, :]))] * M
    # endomorphism type: moves[i] = (i, i, sigma^alpha_i)
    prods = [mul(K[:, None], tab[K][None, :]) for _, _, tab in moves[: 1 if mode == 2 else M]]
    return [~nil(p) if mode == 0 else p != zero for p in prods]


def _live(terms, F, B, zk):
    """The term lists without terms on an all-zero column of F or B: those add zero."""
    fl, bl = (F != zk).any(axis=0), (B != zk).any(axis=0)
    return [[t for t in tg if fl[t[0]] and bl[t[1]]] for tg in terms]


def _coeff(add, a, b, terms):
    """Sum over `terms` of T[a(i), b(j)]; a(i), b(j) are coefficient columns."""
    acc = None
    for i, j, T in terms:
        t = T[a(i), b(j)]
        acc = t if acc is None else add(acc, t)
    return acc


def _products(add, F, B, terms, zk, zero):
    """fg[g, f * len(B) + b]: coefficient g of the product F[f] * B[b]."""
    fg = np.full((len(terms), F.shape[0] * B.shape[0]), zero, dtype=np.int32)
    a, b = (lambda i: F[:, i, None]), (lambda j: B[None, :, j])
    for g, tg in enumerate(_live(terms, F, B, zk)):
        if tg:
            fg[g] = _coeff(add, a, b, tg).reshape(-1)
    return fg


def _zero_pairs(add, F, B, terms, zk, zero):
    """Ascending flat indices f * len(B) + b of the pairs with F[f] * B[b] = 0.

    The coefficient with the fewest terms is formed on the outer product;
    each later one only on the pairs still zero, until none are left.  Ties
    go to the later coefficient: in one variable the last one multiplies
    the leading coefficients, which are nonzero on a degree block.
    """
    live = _live(terms, F, B, zk)
    stages = sorted((g for g in range(len(live)) if live[g]), key=lambda g: (len(live[g]), -g))
    if not stages:
        return np.arange(F.shape[0] * B.shape[0])
    fi, bi = np.nonzero(
        _coeff(add, lambda i: F[:, i, None], lambda j: B[None, :, j], live[stages[0]]) == zero
    )
    for g in stages[1:]:
        if not fi.size:
            break
        z = _coeff(add, lambda i: F[:, i][fi], lambda j: B[:, j][bi], live[g]) == zero
        fi, bi = fi[z], bi[z]
    return fi * B.shape[0] + bi


def _violations(add, F, B, terms, V, zero):
    """bad[k, i, j]: coefficient pair (i, j) of pair (F[k], B[k]) breaks the mode.

    V is None in mode 3: there the term product itself must be zero.
    """
    M = F.shape[1]
    if V is None:
        bad = np.zeros((F.shape[0], M, M), dtype=bool)
        for tg in terms:
            for i, j in dict.fromkeys(t[:2] for t in tg):
                ts = [t for t in tg if t[:2] == (i, j)]
                bad[:, i, j] |= _coeff(add, F.T.__getitem__, B.T.__getitem__, ts) != zero
        return bad
    bad = np.empty((F.shape[0], len(V), M), dtype=bool)
    for i, v in enumerate(V):
        for j in range(M):
            bad[:, i, j] = v[F[:, i], B[:, j]]
    return bad


def _kept(rows, hit, keep):
    """Mask of the pairs whose product row passes `keep`, up to the first kept hit.

    Pairs after that one read False: their rows are not asked about
    unless an earlier pair shares them.
    """
    uniq, first, inv = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    inv = inv.reshape(-1)
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


def _sweep(add, mul, polys, deg_starts, moves, stc, nil, zero, one, mode, keep=None):
    """Scan poly pairs for a selected fg with a coefficient pair breaking `mode`."""
    nblocks = deg_starts.shape[0] - 1
    M = polys.shape[1]
    K = np.sort(np.append(polys, zero))
    K = K[np.append(True, K[1:] != K[:-1])]  # np.unique would import numpy.ma
    zk = int(np.searchsorted(K, zero))
    polys = np.searchsorted(K, polys).astype(np.uint8 if K.size <= 256 else np.int32)
    terms = _term_tables(mul, K, moves, stc, zero, one)
    V = None if mode == 3 else _violation_tables(mul, nil, K, moves, zero, mode, M)
    pairs = selected = 0
    for df in range(nblocks):
        f0, f1 = int(deg_starts[df]), int(deg_starts[df + 1])
        for dg in range(nblocks):
            g0, g1 = int(deg_starts[dg]), int(deg_starts[dg + 1])
            ng = g1 - g0
            if ng == 0 or f1 == f0:
                continue
            B = polys[g0:g1]
            step = max(1, _CHUNK_ELEMS // ng)
            for fc in range(f0, f1, step):
                F = polys[fc : min(fc + step, f1)]
                if keep is None:
                    cand = _zero_pairs(add, F, B, terms, zk, zero)
                else:
                    fg = _products(add, F, B, terms, zk, zero)
                    cand = np.arange(fg.shape[1])
                bad = _violations(add, F[cand // ng], B[cand % ng], terms, V, zero)
                hit = bad.any(axis=(1, 2))
                if keep is not None:
                    sel = _kept(fg.T, hit, keep)
                    cand, bad, hit = cand[sel], bad[sel], hit[sel]
                    del fg  # one product block alive at a time
                if hit.any():
                    k = int(np.argmax(hit))
                    i, j = divmod(int(np.argmax(bad[k])), M)
                    fl, gl = divmod(int(cand[k]), ng)
                    witness = (fc + fl, g0 + gl, i, j)
                    return witness, pairs + fl * ng + gl + 1, selected + k + 1
                pairs += F.shape[0] * ng
                selected += int(cand.size)
    return None, pairs, selected


def search_zero_products_table(
    polys: np.ndarray, deg_starts: np.ndarray, add: np.ndarray, mul: np.ndarray,
    moves: list, stc: np.ndarray, nil_mask: np.ndarray, zero: int, one: int, mode: int, keep=None,
):
    """The pair sweep over a table ring, with Cayley-table gathers as ops."""
    return _sweep(
        lambda a, b: add[a, b], lambda a, b: mul[a, b],
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
        ring.add, ring.mul, polys, deg_starts, moves, stc, ring.nil_at,
        ring.zero, ring.one, mode, keep,
    )
