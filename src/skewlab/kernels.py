"""Hot enumeration kernels, vectorized with numpy.

Every kernel here is order-deterministic: sweeps run in C order over
element indices and the first violation (or witness) in that order is
returned.

Table kernels take dense Cayley tables (int32, shape (n, n)).  The
zero-product search is one sweep over any pair of vectorized add/mul
operations: table gathers for tabulated rings, or a ring's own add/mul
for rings too large to tabulate.
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
    idx = np.arange(n)
    for a in range(n):
        row = table[a]
        lhs = table[row][:, idx]  # lhs[b, c] = table[table[a,b], c]
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
# sig: (M, n_ring) int32, sig[i] = table of the map twisting column i.
# stc: (M, M, G) int32 structure constants: x^{alpha_i} * x^{alpha_j} =
#   sum_g stc[i,j,g] * x^{gamma_g} over the product monomial list.
# mode: 0 = products must be nilpotent, 1 = products must be zero,
#   2 = only row i = 0 products must be zero.
#
# Returns (witness, pairs_checked, zero_products); witness is
# (fi, gi, i, j) or None.  Counters cover the pairs enumerated up to and
# including the witness pair, in (deg f, deg g, f, g) order.


def _zero_products(add, mul, F, B, sig, stc, zero):
    """Mask over F x B of the pairs whose product fg is zero."""
    M, G = stc.shape[0], stc.shape[2]
    acc = np.full((G, F.shape[0], B.shape[0]), zero, dtype=F.dtype)
    for i in range(M):
        fcol = F[:, i]
        if not (fcol != zero).any():
            continue
        for j in range(M):
            t = mul(fcol[:, None], sig[i][B[:, j]][None, :])
            for g in range(G):
                s = int(stc[i, j, g])
                if s != zero:
                    acc[g] = add(acc[g], mul(t, s))
    return (acc == zero).all(axis=0)


def _violations(mul, F, B, sig, nil_mask, zero, mode):
    """bad[k, i, j]: a_i sigma^(alpha_i)(b_j) of pair (F[k], B[k]) breaks `mode`."""
    M = F.shape[1]
    rows = 1 if mode == 2 else M
    bad = np.empty((F.shape[0], rows, M), dtype=bool)
    for i in range(rows):
        for j in range(M):
            p = mul(F[:, i], sig[i][B[:, j]])
            bad[:, i, j] = ~nil_mask[p] if mode == 0 else p != zero
    return bad


def _sweep(add, mul, polys, deg_starts, sig, stc, nil_mask, zero, mode):
    """Scan poly pairs for fg = 0 with a coefficient product breaking `mode`."""
    nblocks = deg_starts.shape[0] - 1
    M = polys.shape[1]
    pairs = 0
    zeros = 0
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
                zr, zc = np.nonzero(_zero_products(add, mul, F, B, sig, stc, zero))
                bad = _violations(mul, F[zr], B[zc], sig, nil_mask, zero, mode)
                hit = bad.any(axis=(1, 2))
                if hit.any():
                    k = int(np.argmax(hit))
                    i, j = divmod(int(np.argmax(bad[k])), M)
                    fl, gl = int(zr[k]), int(zc[k])
                    witness = (fc + fl, g0 + gl, i, j)
                    return witness, pairs + fl * ng + gl + 1, zeros + k + 1
                pairs += F.shape[0] * ng
                zeros += int(zr.size)
    return None, pairs, zeros


def search_zero_products_table(
    polys: np.ndarray,
    deg_starts: np.ndarray,
    add: np.ndarray,
    mul: np.ndarray,
    sig: np.ndarray,
    stc: np.ndarray,
    nil_mask: np.ndarray,
    zero: int,
    mode: int,
):
    """The pair sweep over a table ring, with Cayley-table gathers as ops."""
    return _sweep(
        lambda a, b: add[a, b], lambda a, b: mul[a, b],
        polys, deg_starts, sig, stc, nil_mask, zero, mode,
    )


def search_zero_products_generic(
    ring,
    polys: np.ndarray,
    deg_starts: np.ndarray,
    sig: np.ndarray,
    stc: np.ndarray,
    mode: int,
):
    """The pair sweep through a ring's vectorized ops; for untabulated rings."""
    nil_mask = ring.nil_mask() if mode == 0 else None
    return _sweep(
        ring.add, ring.mul, polys, deg_starts, sig, stc, nil_mask, ring.zero, mode
    )
