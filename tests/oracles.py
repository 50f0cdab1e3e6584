"""Independent routes the tests compare the program against.

`mono_times_coeff_closed` computes x^alpha * r by the closed summation
formula, never by the rewriting engine; `nil_mask_cycle_detect` finds the
nilpotents by following power sequences, never by the power bound of
`kernels.nilpotent_mask`.
"""
import numpy as np

from skewlab.poly import CommutationSystem, SkewPoly, _accum
from skewlab.rings import BudgetError, FiniteRing, power_trajectory


def _single(n: int, i: int, m: int) -> tuple:
    e = [0] * n
    e[i] = m
    return tuple(e)


def _closed_terms(sys: CommutationSystem, alpha: tuple, r: int) -> dict:
    ring = sys.ring
    zero = ring.zero
    n = sys.n
    if r == zero:
        return {}
    if not any(alpha):
        return {alpha: r}
    out: dict[tuple, int] = {}
    lead = r
    for i in range(n - 1, -1, -1):
        m = sys.sigma.maps[i]
        for _ in range(alpha[i]):
            lead = m(lead)
    if lead != zero:
        out[alpha] = lead
    for i in range(n):
        ai = alpha[i]
        if ai == 0:
            continue
        w = r
        for k in range(n - 1, i, -1):
            m = sys.sigma.maps[k]
            for _ in range(alpha[k]):
                w = m(w)
        prefix = alpha[:i] + (0,) * (n - i)
        si = sys.sigma.maps[i]
        u = w
        for j in range(1, ai + 1):
            dval = sys.delta[i](u)
            u = si(u)
            if dval == zero:
                continue
            inner = _closed_terms(sys, _single(n, i, ai - j), dval)
            for iexp, cval in inner.items():
                ti = iexp[i] + (j - 1)
                for mu, lc in _closed_terms(sys, prefix, cval).items():
                    e = list(mu)
                    e[i] = ti
                    for k in range(i + 1, n):
                        e[k] = alpha[k]
                    _accum(ring, out, tuple(e), lc)
    return out


def mono_times_coeff_closed(sys: CommutationSystem, alpha, r: int) -> SkewPoly:
    """x^alpha * r via the closed summation formula (engine-independent).

    Expands sigma^alpha(r) x^alpha plus, per variable block i, the terms
    x^(alpha<i) x_i^(alpha_i - j) delta_i(sigma_i^(j-1)(sigma^(alpha>i)(r))) x_i^(j-1) x^(alpha>i),
    with the prefix blocks expanded by the same formula recursively.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != sys.n or any(a < 0 for a in alpha):
        raise ValueError(f"bad exponent {alpha}")
    return SkewPoly(sys, _closed_terms(sys, alpha, int(r)))


def nil_mask_cycle_detect(ring: FiniteRing, cap: int = 1 << 14) -> np.ndarray:
    """Mask of nilpotents by following each power sequence to 0 or a repeat."""
    if ring.size > cap:
        raise BudgetError(
            f"{ring.name}: cycle-detection sweep over {ring.size} elements "
            f"exceeds cap {cap}; use ring.nil_at()"
        )
    return np.array([power_trajectory(ring, a)[1] for a in range(ring.size)], dtype=bool)
