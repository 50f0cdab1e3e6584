"""Lazy law checks name the same (law, witness) as eager reference sweeps.

The references build every law's arrays over all pairs at once, the way
the checks were first written; the library checks one law at a time over
grids or row blocks and must fail on exactly the same inputs, with the
same law and witness.
"""
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import maps, rings
from skewlab.maps import (
    DEFAULT_PAIR_CAP,
    MapVerificationError,
    identity_map,
    verify_block_endomorphism,
    verify_endomorphism,
    verify_sigma_derivation,
)
from skewlab.rings import make_product, make_zn

from conftest import get_ring

CHUNKS = [1, rings._CHUNK]  # one row per block, and the default


# --- eager references ------------------------------------------------------------


def _pairs(ring, pair_cap=None):
    """Every pair, or R x G above pair_cap, in row-major order."""
    idx = np.arange(ring.size)
    cols = idx if pair_cap is None or ring.size <= pair_cap else ring.additive_generators
    return np.repeat(idx, len(cols)), np.tile(cols, ring.size)


def _raise_first(name, laws, a, b):
    for law, lhs, rhs in laws:
        bad = lhs != rhs
        if bad.any():
            k = int(np.argmax(bad))
            raise MapVerificationError(name, law, (int(a[k]), int(b[k])))


def eager_endomorphism(ring, images, name, pair_cap=None):
    tab = np.asarray(images, dtype=np.int32)
    if int(tab[ring.one]) != ring.one:
        raise MapVerificationError(name, "unital", (ring.one, int(tab[ring.one])))
    if int(tab[ring.zero]) != ring.zero:
        raise MapVerificationError(name, "preserves_zero", (ring.zero, int(tab[ring.zero])))
    a, b = _pairs(ring, pair_cap)
    _raise_first(name, (
        ("additive", tab[ring.add(a, b)], ring.add(tab[a], tab[b])),
        ("multiplicative", tab[ring.mul(a, b)], ring.mul(tab[a], tab[b])),
    ), a, b)


def eager_sigma_derivation(ring, sigma, images, name, pair_cap=None):
    tab = np.asarray(images, dtype=np.int32)
    a, b = _pairs(ring, pair_cap)
    _raise_first(name, (
        ("additive", tab[ring.add(a, b)], ring.add(tab[a], tab[b])),
        (
            "twisted_leibniz",
            tab[ring.mul(a, b)],
            ring.add(ring.mul(sigma(a), tab[b]), ring.mul(tab[a], b)),
        ),
    ), a, b)


def eager_block_endomorphism(ring, phi, psi, chi, name):
    blk = ring.block
    for label, tab in (("phi", phi), ("chi", chi)):
        if int(tab[blk.one]) != blk.one:
            raise MapVerificationError(name, f"{label}_unital", (blk.one, int(tab[blk.one])))
    a, b = _pairs(blk)
    _raise_first(name, (
        ("phi_additive", phi[blk.add(a, b)], blk.add(phi[a], phi[b])),
        ("phi_multiplicative", phi[blk.mul(a, b)], blk.mul(phi[a], phi[b])),
        ("chi_additive", chi[blk.add(a, b)], blk.add(chi[a], chi[b])),
        ("chi_multiplicative", chi[blk.mul(a, b)], blk.mul(chi[a], chi[b])),
        ("psi_additive", psi[blk.add(a, b)], blk.add(psi[a], psi[b])),
        ("psi_left_linear", psi[blk.mul(a, b)], blk.mul(phi[a], psi[b])),
        ("psi_right_linear", psi[blk.mul(a, b)], blk.mul(psi[a], chi[b])),
    ), a, b)


def eager_generator_violation(ring, gens):
    # blocks of rows x, as the library sweeps them: with several blocks the
    # first failing block, not the first failing law, names the witness
    add, mul, n = ring.add_table, ring.mul_table, ring.size
    plus = add.ravel()
    step = max(1, rings._CHUNK // n)
    for g in gens:
        for lo in range(0, n, step):
            x = np.arange(lo, min(lo + step, n))
            ax, mx = add[x], mul[x]
            for law, bad in (
                ("add_associative", add[ax[:, g]] != ax.take(add[g], axis=1)),
                (
                    "distributive_left",
                    mx.take(add[:, g], axis=1) != plus.take(mx * n + mx[:, g, None]),
                ),
                ("distributive_right", mul[ax[:, g]] != plus.take(mx * n + mul[g])),
            ):
                if bad.any():
                    i, y = np.unravel_index(int(np.argmax(bad)), bad.shape)
                    w = (x[i], y, g) if law == "distributive_left" else (x[i], g, y)
                    return law, tuple(map(int, w))
    a, b, c = gens[:, None, None], gens[None, :, None], gens[None, None, :]
    bad = mul[mul[a, b], c] != mul[a, mul[b, c]]
    if bad.any():
        k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return "mul_associative", tuple(int(gens[i]) for i in k)
    return None


def outcome(fn, *args):
    """(law, witness) of the MapVerificationError fn raises, or None."""
    try:
        fn(*args)
    except MapVerificationError as e:
        return e.law, e.witness
    return None


def corrupt(data, tab, size):
    """A copy of tab with one entry moved to another value below size."""
    tab = np.array(tab, dtype=np.int64)
    k = data.draw(st.integers(0, len(tab) - 1))
    v = data.draw(st.integers(0, size - 2))
    tab[k] = v if v < tab[k] else v + 1
    return tab


# --- equivalence -----------------------------------------------------------------

TABLE_RINGS = ["Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z3xZ3", "M2(Z2)", "R3(Z2)", "M2(Z3)",
               "Z256", "M2(Z4)"]


def _table_ring(name):
    return make_product(make_zn(3), make_zn(3)) if name == "Z3xZ3" else get_ring(name)


def _base_map(ring, kind):
    """The identity, or the swap of an equal-factor product."""
    idx = np.arange(ring.size)
    s = round(ring.size ** 0.5)
    if kind == "swap" and ring.name in ("Z2xZ2", "Z3xZ3"):
        return verify_endomorphism(ring, (idx % s) * s + idx // s, "swap")
    return identity_map(ring)


def maybe_corrupt(data, tab, size):
    return corrupt(data, tab, size) if data.draw(st.booleans()) else np.asarray(tab)


def law_name(result):
    return result and result[0]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(CHUNKS))
def test_table_map_and_derivation_witnesses_match_eager(data, chunk):
    # additive, unital images x + [a, x] and additive derivation images
    # sigma(x) a - b x reach the multiplicative and Leibniz laws; one
    # corrupted image breaks additivity as well.  Above pair_cap the check
    # names the eager R x G sweep's witness and the full sweep's verdict
    ring = _table_ring(data.draw(st.sampled_from(TABLE_RINGS)))
    sigma = _base_map(ring, data.draw(st.sampled_from(["id", "swap"])))
    pair_cap = data.draw(st.sampled_from([DEFAULT_PAIR_CAP, 4]))
    x = np.arange(ring.size)
    a, b = (data.draw(st.integers(0, ring.size - 1)) for _ in range(2))
    with mock.patch.object(maps, "_CHUNK", chunk):
        inner = ring.sub(ring.mul(a, x), ring.mul(x, a))
        images = maybe_corrupt(data, ring.add(sigma(x), inner), ring.size)
        endo = (ring, images, "m")
        images = maybe_corrupt(data, ring.sub(ring.mul(sigma(x), a), ring.mul(b, x)), ring.size)
        deriv = (ring, sigma, images, "d")
        for fn, eager, args in (
            (verify_endomorphism, eager_endomorphism, endo),
            (verify_sigma_derivation, eager_sigma_derivation, deriv),
        ):
            got = outcome(fn, *args, pair_cap)
            assert got == outcome(eager, *args, pair_cap)
            assert law_name(got) == law_name(outcome(eager, *args))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_map_witnesses_match_eager(data):
    # each slot an additive map of M (identity, negation, left or right
    # multiplication, x + [a, x]), so every law can be the first to fail
    ring = get_ring(data.draw(st.sampled_from(["S(Z2)", "S(Z3)"])))
    blk = ring.block
    x = np.arange(blk.size)

    def additive_table():
        a = data.draw(st.integers(0, blk.size - 1))
        ax, xa = blk.mul(a, x), blk.mul(x, a)
        return data.draw(st.sampled_from([x, blk._neg_table, ax, xa, blk.add(x, blk.sub(ax, xa))]))

    tabs = [x if data.draw(st.booleans()) else additive_table() for _ in range(3)]
    slot = data.draw(st.integers(0, 2))
    tabs[slot] = maybe_corrupt(data, tabs[slot], blk.size)
    args = (ring, *tabs, "b")
    assert outcome(verify_block_endomorphism, *args) == outcome(eager_block_endomorphism, *args)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(CHUNKS))
def test_generator_violation_matches_eager(data, chunk):
    ring = _table_ring(data.draw(st.sampled_from(TABLE_RINGS)))
    add, mul = ring.add_table.copy(), ring.mul_table.copy()
    t = add if data.draw(st.booleans()) else mul
    i, j = data.draw(st.integers(0, ring.size - 1)), data.draw(st.integers(0, ring.size - 1))
    v = data.draw(st.integers(0, ring.size - 2))
    t[i, j] = v if v < t[i, j] else v + 1
    # the tables alone, so no constructor check runs first
    raw = SimpleNamespace(add_table=add, mul_table=mul, size=ring.size, mul=lambda a, b: mul[a, b])
    gens = ring.additive_generators
    with mock.patch.object(rings, "_CHUNK", chunk):
        assert rings._generator_violation(raw, gens) == eager_generator_violation(raw, gens)


# --- memory ----------------------------------------------------------------------


def test_exhaustive_map_check_memory_guard():
    # all 2048^2 pairs of Z2048 as int64 index vectors alone take 64 MiB;
    # row blocks of at most _CHUNK cells keep the check near 10 MiB
    code = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "from skewlab.catalog import get_ring\n"
        "from skewlab.maps import verify_endomorphism\n"
        "ring = get_ring('Z2048')\n"
        "tracemalloc.start()\n"
        "verify_endomorphism(ring, np.arange(ring.size), 'id')\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 << 20, proc.stdout
