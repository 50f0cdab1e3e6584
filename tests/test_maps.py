"""Endomorphism and derivation verification, twist powers, closures."""
import numpy as np
import pytest

from skewlab.catalog import BUILTIN_RINGS, map_names
from skewlab.maps import (
    DEFAULT_PAIR_CAP,
    MapVerificationError,
    SigmaFamily,
    id_minus_sigma_derivation,
    identity_map,
    orbit_closure,
    sigma_power,
    verify_endomorphism,
    verify_sigma_derivation,
    zero_derivation,
)
from skewlab.rings import (
    BudgetError,
    abelian_failure,
    central_idempotents,
    idempotents,
    make_zn,
)

from conftest import get_map, get_ring


def test_identity_map():
    z4 = make_zn(4)
    ident = identity_map(z4)
    assert ident.equals(identity_map(z4)) and ident.is_injective
    assert ident(3) == 3
    assert ident(np.array([1, 2])).tolist() == [1, 2]


def test_swap_is_endomorphism():
    r = get_ring("Z2xZ2")
    swap = get_map(r, "swap")
    assert swap.table.tolist() == [0, 2, 1, 3]
    assert not swap.equals(identity_map(r))
    assert swap.compose(swap).equals(identity_map(r))


def test_non_multiplicative_rejected():
    # transpose on M2(Z2) is additive and unital but reverses products:
    # (E22 E21)^T = E12 while E22^T E21^T = E22 E12 = 0
    m2 = get_ring("M2(Z2)")
    transpose = [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
    with pytest.raises(MapVerificationError) as exc:
        verify_endomorphism(m2, np.array(transpose), "transpose")
    assert (exc.value.law, exc.value.witness) == ("multiplicative", (1, 2))


def test_non_unital_rejected():
    # x -> 3x on Z4 is additive, but 3*1 = 3 != 1
    z4 = make_zn(4)
    with pytest.raises(MapVerificationError) as exc:
        verify_endomorphism(z4, np.array([0, 3, 2, 1]), "neg")
    assert exc.value.law == "unital"


def test_non_additive_rejected():
    z4 = make_zn(4)
    tab = np.array([0, 1, 3, 2])  # unital, breaks additivity at 1+1
    with pytest.raises(MapVerificationError) as exc:
        verify_endomorphism(z4, tab, "bad")
    assert (exc.value.law, exc.value.witness) == ("additive", (1, 1))


def test_frobenius_on_z2xz2():
    r = get_ring("Z2xZ2")
    sq = verify_endomorphism(r, r.mul(np.arange(4), np.arange(4)), "sq")
    assert sq.equals(identity_map(r))  # x^2 = x in a boolean ring


def test_derivation_laws():
    r = get_ring("Z2xZ2")
    swap = get_map(r, "swap")
    d = id_minus_sigma_derivation(r, swap)
    idx = np.arange(r.size)
    assert (d(idx) == r.sub(idx, swap(idx))).all()
    assert not d.is_zero
    assert zero_derivation(r, swap).is_zero


TWIN_RINGS = [n for n in BUILTIN_RINGS if not n.startswith("S(")] + ["S(Z2)", "S(Z3)"]


@pytest.mark.parametrize("name", TWIN_RINGS)
def test_id_minus_matches_its_carrier_twin(name):
    # id - sigma keeps no table; its carrier twin a - sigma(a) is checked as
    # an explicit derivation, on every pair within the pair cap, on R x G above it
    ring = get_ring(name)
    idx = ring.elements()
    for mname in map_names(ring):
        for sigma in orbit_closure(SigmaFamily(ring, [get_map(ring, mname)])):
            d = id_minus_sigma_derivation(ring, sigma)
            twin = ring.sub(idx, sigma(idx))
            assert d.table is None and np.array_equal(d(idx), twin), sigma.name
            assert [d(a) for a in (0, ring.one, ring.size - 1)] == [
                int(twin[a]) for a in (0, ring.one, ring.size - 1)
            ]
            assert d.is_zero == sigma.equals(identity_map(ring)) == bool((twin == ring.zero).all())
            verify_sigma_derivation(ring, sigma, twin, "twin")


def _swapped(tab, i, j):
    tab = np.array(tab)
    tab[[i, j]] = tab[[j, i]]
    return tab


def test_swapped_images_rejected_above_pair_cap():
    # S(Z3) has 531,441 elements, far above the pair cap; swapping the images
    # of 1000 and 2000 breaks additivity on few pairs, which R x G still meets
    ring = get_ring("S(Z3)")
    assert ring.size > DEFAULT_PAIR_CAP
    idx = ring.elements()
    sigma = get_map(ring, "negate-B")
    twin = ring.sub(idx, sigma(idx))
    for verify, tab in (
        (lambda t: verify_endomorphism(ring, t, "swapped"), idx),
        (lambda t: verify_sigma_derivation(ring, sigma, t, "swapped"), twin),
    ):
        tab = _swapped(tab, 1000, 2000)
        with pytest.raises(MapVerificationError) as exc:
            verify(tab)
        a, g = exc.value.witness
        assert exc.value.law == "additive" and g in ring.additive_generators
        assert tab[ring.add(a, g)] != ring.add(tab[a], tab[g])


def test_swap_verifies_above_pair_cap():
    ring = get_ring("Z64xZ64")
    assert ring.size > DEFAULT_PAIR_CAP
    assert get_map(ring, "swap").compose(get_map(ring, "swap")).equals(identity_map(ring))


def test_broken_derivation_rejected():
    z4 = make_zn(4)
    ident = identity_map(z4)
    with pytest.raises(MapVerificationError) as exc:
        verify_sigma_derivation(z4, ident, np.array([0, 1, 1, 1]), "bad")
    assert (exc.value.law, exc.value.witness) == ("additive", (1, 1))
    # d(x) = x is additive, but d(1*1) = 1 != sigma(1) d(1) + d(1) 1 = 2
    with pytest.raises(MapVerificationError) as exc:
        verify_sigma_derivation(z4, ident, np.arange(4), "ident")
    assert (exc.value.law, exc.value.witness) == ("twisted_leibniz", (1, 1))


def test_constant_one_derivation_rejected():
    z4 = make_zn(4)
    ident = identity_map(z4)
    bad = np.full(4, 1)
    with pytest.raises(MapVerificationError):
        verify_sigma_derivation(z4, ident, bad, "one")


def test_sigma_power_label_and_table():
    r = get_ring("Z2xZ2")
    fam = SigmaFamily(r, [get_map(r, "swap")])
    p = sigma_power(fam, (3,))
    assert p.name == "s^3"
    assert p.table.tolist() == [0, 2, 1, 3]
    assert sigma_power(fam, (0,)).equals(identity_map(fam.ring))
    with pytest.raises(ValueError):
        sigma_power(fam, (1, 1))
    with pytest.raises(ValueError):
        sigma_power(fam, (-1,))


def test_sigma_power_two_variables():
    r = get_ring("Z2xZ2")
    swap = get_map(r, "swap")
    fam = SigmaFamily(r, [swap, identity_map(r)])
    p = sigma_power(fam, (1, 2))
    assert p.name == "s^12"
    assert (p.table == swap.table).all()


def test_orbit_closure_swap():
    r = get_ring("Z2xZ2")
    fam = SigmaFamily(r, [get_map(r, "swap")])
    closure = orbit_closure(fam)
    assert [m.name for m in closure] == ["id", "swap"]


def test_orbit_closure_identity_only():
    z6 = make_zn(6)
    fam = SigmaFamily(z6, [identity_map(z6)])
    assert [m.name for m in orbit_closure(fam)] == ["id"]


def test_orbit_closure_covers_all_powers():
    s = get_ring("S(Z3)")
    neg = get_map(s, "negate-B")
    fam = SigmaFamily(s, [neg])
    closure = orbit_closure(fam)
    assert len(closure) == 2  # negate-B is an involution
    keys = {m.key() for m in closure}
    for t in range(4):
        assert sigma_power(fam, (t,)).key() in keys


def test_orbit_closure_exact_under_digest_collisions(monkeypatch):
    # one digest for every table: only the exact compare tells maps apart
    r = get_ring("M2(Z2)")
    mul = r.mul_table
    conj = []
    for u in range(r.size):
        if (mul[u] == r.one).any():
            uinv = int(np.argmax(mul[u] == r.one))
            conj.append(verify_endomorphism(r, mul[mul[u], uinv], f"c{u}"))
    expected = [m.name for m in orbit_closure(SigmaFamily(r, conj))]
    monkeypatch.setattr("skewlab.maps.zlib.crc32", lambda table: 0)
    got = [m.name for m in orbit_closure(SigmaFamily(r, conj))]
    assert got == expected and len(got) == 6


def test_orbit_closure_cap(monkeypatch):
    r = get_ring("Z2xZ2")
    fam = SigmaFamily(r, [get_map(r, "swap")])
    monkeypatch.setattr("skewlab.maps.DEFAULT_CLOSURE_CAP", 1)
    with pytest.raises(BudgetError):
        orbit_closure(fam)


def test_invariants_stored_once():
    # idempotents are swept once per ring and shared read-only
    r = make_zn(6)
    idem = idempotents(r)
    assert idempotents(r) is idem
    assert not idem.flags.writeable
    with pytest.raises(ValueError):
        idem[0] = 1
    central_idempotents(r)
    abelian_failure(r)
    assert idempotents(r) is idem
    # the orbit closure is built once per family
    z = get_ring("Z2xZ2")
    fam = SigmaFamily(z, [get_map(z, "swap")])
    closure = orbit_closure(fam)
    assert orbit_closure(fam) is closure and len(closure) == 2


def test_family_rejects_foreign_map():
    z4, z6 = make_zn(4), make_zn(6)
    with pytest.raises(ValueError):
        SigmaFamily(z4, [identity_map(z6)])


@pytest.mark.parametrize("images,error", [
    (np.array([0, 2**32 + 1, 2]), "out of range"),  # int64: the cast wraps it to 1
    (np.array([0, 1.7, 2]), "integers"),  # float: the cast truncates it to 1
    ([0, 2**32, 2], "out of range"),  # the cast raises OverflowError, no input error
], ids=["wide-int64", "float", "wide-python-int"])
def test_images_are_checked_before_the_cast(images, error):
    # cast first, the first two would verify as the identity of Z3
    with pytest.raises(ValueError, match=error):
        verify_endomorphism(get_ring("Z3"), images, "m")
