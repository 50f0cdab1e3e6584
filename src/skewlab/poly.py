"""Skew polynomial extensions with PBW normal forms.

An extension over a finite ring R in variables x1..xn is defined by a
commutation system: per-variable twists sigma_i with sigma_i-derivations
delta_i (x_i r = sigma_i(r) x_i + delta_i(r)) and, for i < j, a rule
x_j x_i = c_ij x_i x_j + sum_k d_k x_k + d_0 with c_ij nonzero.

Polynomials are dicts mapping exponent tuples to coefficient indices,
always held in normal form (coefficients left, variables ascending).
Terms are listed in the one monomial order used throughout, deglex
(`deglex_key`), as in the paper's setting of skew PBW extensions.
Every product of a system goes through its one `NormalProducts`, which
moves one variable at a time past a coefficient or into a monomial by
one defining rule and memoizes every word it has worked out.  Tests
hold the references: a token rewriting engine and a closed formula
for x^alpha * r (tests/oracles.py).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .maps import RingMap, SigmaDerivation, SigmaFamily, sigma_power
from .rings import FiniteRing, is_central, is_invertible


class PbwAxiomError(Exception):
    """The defining data does not present a well-formed extension."""

    def __init__(self, report: "PbwReport"):
        self.report = report
        first = report.failures[0] if report.failures else ("unknown", "")
        super().__init__(f"{report.system}: {first[0]}: {first[1]}")


def deglex_key(e: tuple) -> tuple:
    """Sort key of deglex: total degree, then the exponents read from x_n
    down (variables are ranked x1 < x2 < ... < xn)."""
    return (sum(e), tuple(reversed(e)))


def monomial_str(exp: tuple) -> str:
    """x1^2*x2 for the exponents (2, 1); "1" for the constant monomial."""
    parts = [f"x{i + 1}" + (f"^{m}" if m > 1 else "") for i, m in enumerate(exp) if m > 0]
    return "*".join(parts) or "1"


def monomials_upto(n: int, bound: int) -> list[tuple]:
    """All exponent tuples of total degree <= bound, ascending in deglex."""
    exps = [
        e
        for e in itertools.product(range(bound + 1), repeat=n)
        if sum(e) <= bound
    ]
    return sorted(exps, key=deglex_key)


class CommutationSystem:
    """The defining data of a skew extension in n variables.

    c maps pairs (i, j) with i < j (0-based) to the leading coefficient
    of the x_j x_i rewrite; d maps the same pairs to lower-order data
    (d_const, d_linear) with d_linear a length-n tuple.  Missing entries
    default to c = 1 and no lower-order terms.  Structural shape is
    validated here; the extension axioms live in verify_pbw_axioms.
    Monomials are ordered by deglex (`deglex_key`).
    """

    def __init__(
        self,
        ring: FiniteRing,
        sigma: SigmaFamily,
        delta: list[SigmaDerivation] | None = None,
        c: dict | None = None,
        d: dict | None = None,
        name: str = "",
    ):
        from .maps import zero_derivation

        self.ring = ring
        self.sigma = sigma
        self.n = sigma.n
        if self.n < 1:
            raise ValueError("an extension needs at least one variable")
        if delta is None:
            delta = [zero_derivation(ring, m) for m in sigma.maps]
        if len(delta) != self.n:
            raise ValueError(f"{len(delta)} derivations for {self.n} variables")
        for i, dv in enumerate(delta):
            if dv.ring is not ring:
                raise ValueError("derivation ring mismatch")
            if not dv.sigma.equals(sigma.maps[i]):
                raise ValueError(f"delta[{i}] twists by a map other than sigma[{i}]")
        self.delta = list(delta)
        self.c = {}
        for (i, j), v in (c or {}).items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"c key {(i, j)} is not an ordered pair")
            self.c[(i, j)] = int(v)
        self.d = {}
        for (i, j), (d0, dlin) in (d or {}).items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"d key {(i, j)} is not an ordered pair")
            dlin = tuple(int(x) for x in (dlin or (ring.zero,) * self.n))
            if len(dlin) != self.n:
                raise ValueError("d linear part must have one entry per variable")
            self.d[(i, j)] = (int(d0), dlin)
        self.name = name or f"ext({ring.name},n={self.n})"
        self.products = NormalProducts(self)

    # rewrite data ----------------------------------------------------
    def c_of(self, i: int, j: int) -> int:
        return self.c.get((i, j), self.ring.one)

    def var_var_terms(self, j: int, i: int) -> dict:
        """Normal form of x_j x_i for j > i, as {exponent: coefficient}."""
        if not j > i:
            raise ValueError("var_var_terms expects j > i")
        zero = self.ring.zero
        out = {}
        cval = self.c_of(i, j)
        if cval != zero:
            e = [0] * self.n
            e[i] += 1
            e[j] += 1
            out[tuple(e)] = cval
        d0, dlin = self.d.get((i, j), (zero, (zero,) * self.n))
        for k, v in enumerate(dlin):
            if v != zero:
                e = [0] * self.n
                e[k] = 1
                _accum(self.ring, out, tuple(e), v)
        if d0 != zero:
            _accum(self.ring, out, (0,) * self.n, d0)
        return out

    @property
    def endomorphism_type(self) -> bool:
        return all(dv.is_zero for dv in self.delta)

    def c_central_invertible(self) -> bool:
        """True when every c_ij is central and invertible."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                v = self.c_of(i, j)
                if not (is_central(self.ring, v) and is_invertible(self.ring, v)):
                    return False
        return True

    # polynomial constructors -----------------------------------------
    def constant(self, r: int) -> "SkewPoly":
        return SkewPoly(self, {(0,) * self.n: int(r)})

    def variable(self, i: int) -> "SkewPoly":
        e = [0] * self.n
        e[i] = 1
        return SkewPoly(self, {tuple(e): self.ring.one})

    def monomial(self, exp, coeff: int | None = None) -> "SkewPoly":
        exp = tuple(int(x) for x in exp)
        if len(exp) != self.n or any(x < 0 for x in exp):
            raise ValueError(f"bad exponent {exp} for n={self.n}")
        return SkewPoly(self, {exp: self.ring.one if coeff is None else int(coeff)})

    def __repr__(self):
        return f"<CommutationSystem {self.name}>"


def _accum(ring, terms: dict, exp: tuple, val: int) -> None:
    cur = terms.get(exp, ring.zero)
    s = ring.add(cur, val)
    if s == ring.zero:
        terms.pop(exp, None)
    else:
        terms[exp] = s


class SkewPoly:
    """A polynomial in normal form: {exponent tuple: coefficient index}."""

    __slots__ = ("system", "terms")

    def __init__(self, system: CommutationSystem, terms: dict):
        self.system = system
        zero = system.ring.zero
        self.terms = {
            tuple(e): int(c) for e, c in terms.items() if int(c) != zero
        }

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple]:
        return sorted(self.terms, key=deglex_key)

    def coeff(self, exp) -> int:
        return self.terms.get(tuple(exp), self.system.ring.zero)

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accum(self.system.ring, out, e, c)
        return SkewPoly(self.system, out)

    def __neg__(self) -> "SkewPoly":
        ring = self.system.ring
        return SkewPoly(self.system, {e: ring.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        return SkewPoly(self.system, self.system.products.product(self.terms, other.terms))

    def __pow__(self, k: int) -> "SkewPoly":
        if k < 1:
            raise ValueError("power expects k >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.system is other.system
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.system), frozenset(self.terms.items())))

    def _check(self, other: "SkewPoly") -> None:
        if other.system is not self.system:
            raise ValueError("polynomials live over different systems")

    def __str__(self):
        if self.is_zero:
            return "0"
        ring = self.system.ring
        parts = []
        for e in sorted(self.terms, key=deglex_key, reverse=True):
            c = self.terms[e]
            if not any(e):
                parts.append(ring.element_name(c))
            elif c == ring.one:
                parts.append(monomial_str(e))
            else:
                parts.append(f"{ring.element_name(c)}*{monomial_str(e)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<SkewPoly {self}>"


# ---------------------------------------------------------------------------
# normal-form products


class NormalProducts:
    """Memoized normal forms of words x^e * r * x^g, one memo per system.

    The last variable of x^e is moved past r and into x^g by one rule,
    and every smaller word is worked out once, so a rewrite path is
    never re-derived however often rules branch.  On a system that
    passes verify_pbw_axioms the normal form is unique, so any order of
    rewrites gives these results.  Recursion is about one frame per
    degree of the word.
    """

    def __init__(self, sys: CommutationSystem):
        ring = sys.ring
        self.sys, self.zero, self.one = sys, ring.zero, ring.one
        if ring.is_table_backed:
            self.add, self.mul = ring.add_table.item, ring.mul_table.item
        else:
            self.add = lambda a, b: int(ring.add(a, b))
            self.mul = lambda a, b: int(ring.mul(a, b))
        self.term_products = 0  # term pairs multiplied by `product`
        self._words: dict = {}

    def _into(self, out: dict, terms: dict, c: int) -> None:
        """out += c * terms."""
        for h, t in terms.items():
            s = self.add(out.get(h, self.zero), self.mul(c, t))
            if s == self.zero:
                out.pop(h, None)
            else:
                out[h] = s

    def word(self, e: tuple, r: int, g: tuple) -> dict:
        """x^e * r * x^g as {exponent: coefficient}."""
        out = self._words.get((e, r, g))
        if out is not None:
            return out
        out = {}
        u = max((i for i, m in enumerate(e) if m), default=None)
        if r != self.zero and u is None:
            out[g] = r
        elif r != self.zero:
            # x^e' (x_u r) x^g = x^e' delta_u(r) x^g + x^e' sigma_u(r) (x_u x^g)
            e1 = e[:u] + (e[u] - 1,) + e[u + 1 :]
            self._into(out, self.word(e1, int(self.sys.delta[u](r)), g), self.one)
            s = int(self.sys.sigma.maps[u](r))
            v = next((i for i, m in enumerate(g) if m), u)
            if u <= v:
                self._into(out, self.word(e1, s, g[:u] + (g[u] + 1,) + g[u + 1 :]), self.one)
            else:  # x_u x^g = (x_u x_v) x^g' with x_u x_v = sum_k t_k x^k
                g1 = g[:v] + (g[v] - 1,) + g[v + 1 :]
                for k, t in self.sys.var_var_terms(u, v).items():
                    for h, c in self.word(e1, self.mul(s, t), k).items():
                        self._into(out, self.word(h, self.one, g1), c)
        self._words[e, r, g] = out
        return out

    def product(self, t1: dict, t2: dict) -> dict:
        """Normal form of the product of two normal-form term dicts."""
        self.term_products += len(t1) * len(t2)
        out: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                self._into(out, self.word(e1, c2, e2), c1)
        return out


# ---------------------------------------------------------------------------
# axiom verification


@dataclass
class PbwReport:
    system: str
    failures: list = field(default_factory=list)  # (check, detail) strings

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_pbw_axioms(sys: CommutationSystem) -> PbwReport:
    """Check the defining axioms of a skew extension.

    Per-map laws (endomorphism, twisted Leibniz) were already verified
    when the maps were built; here we check injectivity of each twist,
    nonzero leading coefficients c_ij, and confluence of the rewrite
    rules: both association orders of x_j * (x_i * r) for i < j, and of
    the variable triples x_k * x_j * x_i.  Both orders of x_j * (x_i * r)
    are additive in r, so r runs over the ring's additive generators only
    and a failure names the least failing generator.  Through the system's
    `NormalProducts` the two sides of each overlap start with its two
    different rewrites (x_i r, or x_j x_i; x_j x_i, or x_k x_j), so equal
    normal forms resolve every ambiguity, and by Bergman's diamond lemma
    (Adv. Math. 29, 1978) the rules are confluent exactly when they do.
    """
    ring = sys.ring
    rep = PbwReport(sys.name)
    for i, m in enumerate(sys.sigma.maps):
        if not m.is_injective:
            rep.failures.append(
                (f"sigma_injective[{i + 1}]", f"twist {m.name} is not injective")
            )
    for i in range(sys.n):
        for j in range(i + 1, sys.n):
            if sys.c_of(i, j) == ring.zero:
                rep.failures.append(
                    (
                        f"c_nonzero[{i + 1},{j + 1}]",
                        f"x{j + 1}*x{i + 1} rewrite needs a nonzero leading "
                        f"coefficient on x{i + 1}*x{j + 1}, got 0",
                    )
                )
    if not rep.failures:
        for i in range(sys.n):
            for j in range(i + 1, sys.n):
                xj, xi = sys.variable(j), sys.variable(i)
                xji = xj * xi
                for r in ring.additive_generators:
                    fr = sys.constant(int(r))
                    left = xj * (xi * fr)
                    right = xji * fr
                    if left != right:
                        rep.failures.append(
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
                    if xk * (xj * xi) != (xk * xj) * xi:
                        rep.failures.append(
                            (
                                f"overlap_var_var_var[{i + 1},{j + 1},{k + 1}]",
                                "variable triple reassociation disagrees",
                            )
                        )
    return rep


def require_pbw(sys: CommutationSystem) -> PbwReport:
    rep = verify_pbw_axioms(sys)
    if not rep.ok:
        raise PbwAxiomError(rep)
    return rep


# ---------------------------------------------------------------------------
# search support tables


def monomial_product_table(
    sys: CommutationSystem, exps_in: list[tuple], exps_out: list[tuple]
) -> np.ndarray:
    """Structure constants stc[i, j, g]: x^a_i * x^a_j over the output list."""
    index = {e: g for g, e in enumerate(exps_out)}
    M, G = len(exps_in), len(exps_out)
    stc = np.full((M, M, G), sys.ring.zero, dtype=np.int32)
    for i, a in enumerate(exps_in):
        for j, b in enumerate(exps_in):
            prod = sys.monomial(a) * sys.monomial(b)
            for e, cval in prod.terms.items():
                g = index.get(e)
                if g is None:
                    raise ValueError(
                        f"product monomial {e} outside the output list; "
                        "raise the output degree bound"
                    )
                stc[i, j, g] = cval
    return stc


def sigma_power_tables(family: SigmaFamily, exps: list[tuple]) -> list[RingMap]:
    """The sigma^alpha maps, one per exponent in exps; a block-diagonal one
    keeps no carrier table."""
    return [sigma_power(family, e) for e in exps]


def move_past_tables(
    sys: CommutationSystem, exps: list[tuple], coeffs: np.ndarray
) -> list[tuple[int, int, np.ndarray]]:
    """Move-past constants [(i, k, table)] over `coeffs`: x^a_i * coeffs[b] =
    sum_k table[b] x^a_k, each table an array of elements as long as `coeffs`.

    Lists the (i, k) pairs that occur, ascending.  Without derivations
    these are the sigma powers at `coeffs` (x^a * b = sigma^a(b) x^a);
    otherwise the words x^a_i * b fill them.
    """
    if sys.endomorphism_type:
        return [(i, i, m(coeffs)) for i, m in enumerate(sigma_power_tables(sys.sigma, exps))]
    index = {e: k for k, e in enumerate(exps)}
    tables: dict[tuple[int, int], np.ndarray] = {}
    zero = (0,) * sys.n
    for i, a in enumerate(exps):
        for kb, b in enumerate(coeffs.tolist()):
            for e, cval in sys.products.word(a, b, zero).items():
                tab = tables.get((i, index[e]))
                if tab is None:
                    tab = tables[i, index[e]] = np.full(len(coeffs), sys.ring.zero, dtype=np.int32)
                tab[kb] = cval
    return [(i, k, tables[i, k]) for i, k in sorted(tables)]


def term_tables(ring: FiniteRing, K: np.ndarray, moves: list, stc: np.ndarray) -> list:
    """The pair sweep's term tables over K, per coefficient g of a product.

    terms[g] = [(i, j, T, -T)] with T[a, b] = K[a] * table[b] * s for each
    move (i, k, table) (`move_past_tables` over K) and s = stc[k, j, g]
    nonzero: (K[a] x^a_i)(K[b] x^a_j) adds T[a, b] to coefficient g.  Each
    distinct (move, s) gets one table and its negation; a table has no
    more entries than the search has pairs, |K|^2 <= |K|^(2M).
    """
    tables = {}
    terms = [[] for _ in range(stc.shape[2])]
    for m, (i, k, tab) in enumerate(moves):
        for j in range(stc.shape[1]):
            for g in range(stc.shape[2]):
                s = int(stc[k, j, g])
                if s == ring.zero:
                    continue
                if (m, s) not in tables:
                    t = ring.mul(K[:, None], tab[None, :])
                    t = np.asarray(t if s == ring.one else ring.mul(t, s), dtype=np.int32)
                    tables[m, s] = (t, np.asarray(ring.neg(t), dtype=np.int32))
                terms[g].append((i, j, *tables[m, s]))
    return terms
