"""Independent routes the tests compare the program against.

`engine_product` multiplies skew polynomials by token rewriting, never
through the system's memoized `NormalProducts`, and `poly_is_nilpotent`
and `pbw_failures_engine` build on it; `mono_times_coeff_closed` computes
x^alpha * r by the closed summation formula, by neither product;
`nil_mask_cycle_detect` finds the nilpotents by following power
sequences, never by the power bound of `kernels.nilpotent_mask`.
"""
import numpy as np

from skewlab.poly import CommutationSystem, SkewPoly, _accum
from skewlab.rings import BudgetError, FiniteRing, power_trajectory


# --- the token rewriting engine ---------------------------------------------


def _normalize_tokens(sys: CommutationSystem, tokens: list) -> dict:
    """Rewrite a coefficient/variable word to normal form.

    Tokens are ("c", element) or ("v", var index).  The leftmost redex
    is reduced first; branching rules push their summands on a stack.
    Terminal words have one optional coefficient followed by ascending
    variables.
    """
    ring = sys.ring
    zero = ring.zero
    out: dict[tuple, int] = {}
    stack = [list(tokens)]
    while stack:
        toks = stack.pop()
        pos = -1
        kind = ""
        for p in range(len(toks) - 1):
            k0, k1 = toks[p][0], toks[p + 1][0]
            if k0 == "c" and k1 == "c":
                pos, kind = p, "cc"
                break
            if k0 == "v" and k1 == "c":
                pos, kind = p, "vc"
                break
            if k0 == "v" and k1 == "v" and toks[p][1] > toks[p + 1][1]:
                pos, kind = p, "vv"
                break
        if pos < 0:
            coeff = ring.one
            exp = [0] * sys.n
            for t in toks:
                if t[0] == "c":
                    coeff = t[1]
                else:
                    exp[t[1]] += 1
            if coeff != zero:
                _accum(ring, out, tuple(exp), coeff)
            continue
        if kind == "cc":
            r = ring.mul(toks[pos][1], toks[pos + 1][1])
            if r != zero:
                stack.append(toks[:pos] + [("c", r)] + toks[pos + 2 :])
        elif kind == "vc":
            i = toks[pos][1]
            r = toks[pos + 1][1]
            s = sys.sigma.maps[i](r)
            d = sys.delta[i](r)
            if s != zero:
                stack.append(toks[:pos] + [("c", s), ("v", i)] + toks[pos + 2 :])
            if d != zero:
                stack.append(toks[:pos] + [("c", d)] + toks[pos + 2 :])
        else:
            j = toks[pos][1]
            i = toks[pos + 1][1]
            for exp, cval in sys.var_var_terms(j, i).items():
                stack.append(toks[:pos] + _term_tokens(sys.n, exp, cval) + toks[pos + 2 :])
    return out


def _term_tokens(n: int, exp: tuple, coeff: int) -> list:
    toks: list = [("c", coeff)]
    for v in range(n):
        toks.extend([("v", v)] * exp[v])
    return toks


def _mul_terms(sys: CommutationSystem, t1: dict, t2: dict) -> dict:
    ring = sys.ring
    out: dict[tuple, int] = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            toks = _term_tokens(sys.n, e1, c1) + _term_tokens(sys.n, e2, c2)
            for e, c in _normalize_tokens(sys, toks).items():
                _accum(ring, out, e, c)
    return out


def engine_product(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """f * g by the rewriting engine."""
    return SkewPoly(f.system, _mul_terms(f.system, f.terms, g.terms))


def mono_times_coeff_engine(sys: CommutationSystem, alpha, r: int) -> SkewPoly:
    """x^alpha * r by the rewriting engine."""
    alpha = tuple(int(a) for a in alpha)
    return engine_product(sys.monomial(alpha), sys.constant(int(r)))


def poly_is_nilpotent(f: SkewPoly, power_bound: int) -> tuple[bool, int]:
    """(True, k) for the least k <= power_bound with f^k = 0, else (False, 0),
    with every power formed by the engine."""
    if f.is_zero:
        return True, 1
    p = f
    for k in range(1, power_bound + 1):
        if p.is_zero:
            return True, k
        if k < power_bound:
            p = engine_product(p, f)
    return (True, power_bound) if p.is_zero else (False, 0)


def pbw_failures_engine(sys: CommutationSystem) -> list:
    """`verify_pbw_axioms(sys).failures`, every product by the engine."""
    ring = sys.ring
    mul = engine_product
    failures = []
    for i, m in enumerate(sys.sigma.maps):
        if not m.is_injective:
            failures.append((f"sigma_injective[{i + 1}]", f"twist {m.name} is not injective"))
    for i in range(sys.n):
        for j in range(i + 1, sys.n):
            if sys.c_of(i, j) == ring.zero:
                failures.append(
                    (
                        f"c_nonzero[{i + 1},{j + 1}]",
                        f"x{j + 1}*x{i + 1} rewrite needs a nonzero leading "
                        f"coefficient on x{i + 1}*x{j + 1}, got 0",
                    )
                )
    if failures:
        return failures
    for i in range(sys.n):
        for j in range(i + 1, sys.n):
            xj, xi = sys.variable(j), sys.variable(i)
            for r in ring.additive_generators:
                fr = sys.constant(int(r))
                if mul(xj, mul(xi, fr)) != mul(mul(xj, xi), fr):
                    failures.append(
                        (
                            f"overlap_var_coeff[{i + 1},{j + 1}]",
                            f"x{j + 1}*(x{i + 1}*r) != (x{j + 1}*x{i + 1})*r "
                            f"at r={ring.element_name(int(r))}",
                        )
                    )
                    break
    for i in range(sys.n):
        for j in range(i + 1, sys.n):
            for k in range(j + 1, sys.n):
                xk, xj, xi = sys.variable(k), sys.variable(j), sys.variable(i)
                if mul(xk, mul(xj, xi)) != mul(mul(xk, xj), xi):
                    failures.append(
                        (
                            f"overlap_var_var_var[{i + 1},{j + 1},{k + 1}]",
                            "variable triple reassociation disagrees",
                        )
                    )
    return failures


# --- closed formula and cycle detection ---------------------------------------


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
