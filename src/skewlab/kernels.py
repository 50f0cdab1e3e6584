"""Hot enumeration kernels, vectorized with numpy.

Every kernel here is order-deterministic: sweeps run in C order over
element indices and the first violation (or witness) in that order is
returned.

Table kernels take dense Cayley tables (int32, shape (n, n)).  The
zero-product search is one sweep over a vectorized add: table gathers
for tabulated rings, or a ring's own add for rings too large to
tabulate.  Its caller hands it every input over K, the searched
coefficients: polynomial rows of local indices into K, term tables
whose gathers sum to the coefficients of fg, and one violation mask per
coefficient cell, so the sweep knows no property, twist or derivation.
It forms fg one coefficient at a time, each on the pairs still zero,
the first ones once per degree block pair on distinct f keys.
"""
from __future__ import annotations

import numpy as np

# the pair sweep's memory cap: key tables are built a quarter of it at a
# time; a chunk of f rows tests at most an eighth of it in zero-pair
# candidates, or forms all of it in products on the `keep` path
_CHUNK_ELEMS = 1 << 17


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
    """Boolean mask of a with a^k = 0 for some 1 <= k <= log2 n.

    R > aR > ... > a^k R = 0 falls strictly (an equal step stays equal
    down to 0), so each subgroup at most halves: 2^k <= n.
    """
    n = mul.shape[0]
    idx = cur = np.arange(n)
    out = cur == zero
    for _ in range(n.bit_length() - 2):
        cur = mul[cur, idx]
        out |= cur == zero
    return out


# ---------------------------------------------------------------------------
# zero-product pair search
#
# add: vectorized ring addition on element-index arrays; zero: its zero.
# polys: (P, M) rows of local indices into K, the searched coefficients
#   (ascending, zero at local index 0), over the monomial list, sorted by
#   (degree, enumeration index); column 0 = constant monomial.
# deg_starts: (D+2,) row offsets of the degree blocks.
# terms: per coefficient g of fg, the list [(i, j, T, -T)] of |K| x |K|
#   element tables (`poly.term_tables`): (K[a] x^alpha_i)(K[b] x^alpha_j)
#   adds T[a, b] to coefficient g, so a pair's coefficient is a sum of
#   gathers.
# V: [((i, j), mask)], row-major: mask[a, b] says the coefficient pair
#   (K[a], K[b]) at cell (i, j) breaks the property searched.
# keep: None selects the pairs with fg = 0; else keep(row of fg) decides,
#   asked in pair order and never about a row first seen after the witness.
#
# Returns (witness, pairs_checked, selected); witness is (fi, gi, i, j)
# or None.  Counters cover the pairs enumerated up to and including the
# witness pair, in (deg f, deg g, f, g) order.
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


def _live(terms, F, B):
    """The term lists without terms on an all-zero column of F or B: those add zero."""
    fl, bl = F.any(axis=0), B.any(axis=0)
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


def _products(add, F, B, terms, zero):
    """fg[g, f * len(B) + b]: coefficient g of the product F[f] * B[b]."""
    fg = np.full((len(terms), F.shape[0] * B.shape[0]), zero, dtype=np.int32)
    for g, tg in enumerate(_live(terms, F, B)):
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


def _key_zeros(add, F, B, terms, zero):
    """The zero-pair filter of a degree block pair F x B: (kf, ptr, zb, rest).

    Stages: live coefficients, fewest terms first, ties to the later one (in
    one variable, the leading coefficients' product).  The key run: the
    first stage and each next while it reads a proper subset of F's live
    columns.  Row f has key kf[f], its row on those; key k zeroes the run on
    B rows zb[ptr[k]:ptr[k+1]], ascending.  rest: the later stages.
    """
    live, ng = _live(terms, F, B), B.shape[0]
    stages = [tg for *_, tg in sorted((len(tg), -g, tg) for g, tg in enumerate(live) if tg)]
    if not stages:  # no live term: every pair is zero
        return np.zeros(F.shape[0], dtype=np.intp), np.array([0, ng]), np.arange(ng), []
    reads = [{t[0] for tg in stages[: r + 1] for t in tg} for r in range(len(stages))]
    width = F.any(axis=0).sum()
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
    """((i, j), mask) per coefficient cell: where V marks pair (F[fi], B[bi])."""
    at = _pairs_at(F, B, fi, bi)
    for (i, j), v in V:
        yield (i, j), at(v, i, j)


def _first_cell(F, B, fi, bi, V):
    """The first (i, j), row-major, where V marks pair (F[fi], B[bi])."""
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


def _sweep(add, polys, deg_starts, terms, V, zero, keep):
    """Scan poly pairs for a selected fg with a coefficient pair that V marks."""
    nblocks = deg_starts.shape[0] - 1
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
                plan = _key_zeros(add, polys[f0:f1], B, terms, zero)
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
                    fg = _products(add, F, B, terms, zero)
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


def search_zero_products_table(polys, deg_starts, add: np.ndarray, terms, V, zero: int, keep=None):
    """The pair sweep over a table ring, adding by Cayley-table gathers."""
    return _sweep(lambda a, b: add[a, b], polys, deg_starts, terms, V, zero, keep)


def search_zero_products_generic(ring, polys, deg_starts, terms, V, keep=None):
    """The pair sweep through a ring's vectorized add; for untabulated rings."""
    return _sweep(ring.add, polys, deg_starts, terms, V, ring.zero, keep)
