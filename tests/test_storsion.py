import random

import pytest

from usmod.errors import DomainError, PreconditionViolatedError, ResourceExceededError
from usmod.modules import (
    compose,
    hom_enumerate,
    identity_hom,
    kernel,
    regular_module,
    submodule,
    submodule_as_module,
    zero_hom,
)
from usmod.rings import make_zmod, mult_set_closure
from usmod.storsion import (
    cokernel,
    find_u_S_isomorphism,
    is_u_S_epi,
    is_u_S_iso,
    is_u_S_mono,
    is_u_S_split,
    is_u_S_torsion,
    s_torsion_submodule,
    smallest_killer,
)


@pytest.fixture(scope="module")
def z6():
    return make_zmod(6)


@pytest.fixture(scope="module")
def m6(z6):
    return regular_module(z6)


@pytest.fixture(scope="module")
def s14(z6):
    return mult_set_closure(z6, [4])


def test_torsion_submodule_examples(z6, m6, s14):
    assert s_torsion_submodule(m6, s14).members == (0, 3)
    s1 = mult_set_closure(z6, [1])
    assert s_torsion_submodule(m6, s1).members == (0,)
    s124 = mult_set_closure(z6, [2])
    assert s124.members == (1, 2, 4)
    assert s_torsion_submodule(m6, s124).members == (0, 3)


def test_torsion_definitional_scan_agreement():
    # the sigma route of s_torsion_submodule against the existential scan,
    # over a spread of rings and sets (the sigma-shortcut law makes the same
    # comparison on every corpus instance)
    for n in (4, 6, 8, 9, 12, 18):
        ring = make_zmod(n)
        module = regular_module(ring)
        for g in range(1, n):
            try:
                mset = mult_set_closure(ring, [g])
            except Exception:
                continue
            tor = s_torsion_submodule(module, mset)
            killed = {
                x
                for x in module.elements()
                if any(module.act[s][x] == module.zero for s in mset.members)
            }
            assert set(tor.members) == killed


def test_u_S_torsion_examples(m6, s14):
    assert is_u_S_torsion(submodule(m6, [0, 3]), s14) is True
    assert smallest_killer(m6, s14, (0, 3)) == 4
    assert is_u_S_torsion(submodule(m6, [0]), s14)
    assert is_u_S_torsion(submodule(m6, [0, 2, 4]), s14) is False
    assert smallest_killer(m6, s14, (0, 2, 4)) is None
    with pytest.raises(DomainError):
        is_u_S_torsion(regular_module(make_zmod(4)), s14)


def test_u_S_torsion_smallest_witness(z6, m6):
    # S = {1,2,4}: {0,3} is killed by 2 before 4 in sorted order
    s = mult_set_closure(z6, [2])
    assert is_u_S_torsion(submodule(m6, [0, 3]), s)
    assert smallest_killer(m6, s, (0, 3)) == 2


def test_mono_epi_iso_inclusion(m6, s14):
    k = submodule(m6, [0, 2, 4])
    kmod, incl = submodule_as_module(k)
    assert is_u_S_mono(incl, s14) is True
    assert is_u_S_epi(incl, s14) is True
    assert is_u_S_iso(incl, s14) is True
    coker, _ = cokernel(incl)
    assert smallest_killer(coker, s14, coker.elements()) == 4  # the 2-element cokernel

    ident = identity_hom(m6)
    assert is_u_S_iso(ident, s14)

    z = zero_hom(m6, m6)
    assert is_u_S_mono(z, s14) is False
    assert is_u_S_iso(z, s14) is False
    assert smallest_killer(m6, s14, kernel(z).members) is None


def test_cokernel_materialized(m6, s14):
    k = submodule(m6, [0, 2, 4])
    _, incl = submodule_as_module(k)
    coker, _ = cokernel(incl)
    assert coker.size == 2


def test_split_examples(z6, m6, s14):
    k = submodule(m6, [0, 2, 4])
    _, incl = submodule_as_module(k)
    ok, (s, retraction) = is_u_S_split(incl, s14)
    assert ok and s == 1  # CRT projection splits exactly

    ident = identity_hom(m6)
    ok_i, (si, ri) = is_u_S_split(ident, s14)
    assert ok_i and si == 1 and ri.map == ident.map

    s1 = mult_set_closure(z6, [1])
    l = submodule(m6, [0, 3])
    _, incl3 = submodule_as_module(l)
    ok3, (s3, r3) = is_u_S_split(incl3, s1)
    assert ok3 and s3 == 1
    assert r3.map[3] == 1  # 3 maps to the generator of {0,3}

    with pytest.raises(PreconditionViolatedError):
        is_u_S_split(zero_hom(m6, m6), s14)


def test_find_u_S_isomorphism_examples(m6, s14):
    k = submodule(m6, [0, 2, 4])
    kmod, _ = submodule_as_module(k)
    found = find_u_S_isomorphism(kmod, m6, s14)
    assert found is not None and found.map == (0, 2, 4)

    assert find_u_S_isomorphism(m6, m6, s14) is not None

    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    # only the zero map exists; it is a u-S-mono (kernel killed by 4) but not
    # epi, so the complete enumeration reports none
    assert find_u_S_isomorphism(l3, kmod, s14) is None

    with pytest.raises(ResourceExceededError):
        find_u_S_isomorphism(m6, m6, s14, cap=2)


def test_mono_composition_witness_product(z6, m6, s14):
    rng = random.Random(11)
    homs = hom_enumerate(m6, m6)
    monos = [f for f in homs if is_u_S_mono(f, s14)]
    for _ in range(20):
        f, g = rng.choice(monos), rng.choice(monos)
        assert is_u_S_mono(compose(g, f), s14)


def test_torsion_of_torsion_submodule_is_uniform(z6, m6):
    # tor_S(M) itself is uniformly killed, witnessed by sigma
    for gens in ([4], [2], [5]):
        mset = mult_set_closure(z6, gens)
        tor = s_torsion_submodule(m6, mset)
        assert is_u_S_torsion(tor, mset)


def test_s_torsion_iff_u_s_torsion_finite(z6, m6, s14):
    # tor_S(M) = M exactly when sigma kills M
    for n in (6, 12):
        ring = make_zmod(n)
        module = regular_module(ring)
        for g in range(1, n):
            try:
                mset = mult_set_closure(ring, [g])
            except Exception:
                continue
            full = s_torsion_submodule(module, mset).size == module.size
            assert full == is_u_S_torsion(module, mset)
