import dataclasses

import pytest

from usmod import laws
from usmod.caps import DEFAULT_CAPS
from usmod.corpus import Instance, build_instance
from usmod.errors import DomainError, NotPrimeError
from usmod.essential import (
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    is_u_p_essential,
    quotient_characterization,
    u_S_complement,
)
from usmod.modules import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    identity_hom,
    kernel,
    preimage,
    quotient_module,
    regular_module,
    scalar_hom,
    submodule,
    submodule_as_module,
)
from usmod.rings import Ideal, make_zmod, mult_set_closure, unit_mult_set
from usmod.storsion import is_u_S_mono, is_u_S_torsion, kills


@pytest.fixture(scope="module")
def z6():
    return make_zmod(6)


@pytest.fixture(scope="module")
def m6(z6):
    return regular_module(z6)


@pytest.fixture(scope="module")
def s14(z6):
    return mult_set_closure(z6, [4])


@pytest.fixture(scope="module")
def k24(m6):
    return cyclic_submodule(m6, 2)  # {0,2,4}


def test_running_example_both_verdicts(m6, s14, k24):
    us = is_u_S_essential_oracle(k24, m6, s14)
    assert us.verdict
    assert us.witness_s_pair == (1, 4)  # {0,3} is killed by 4, its meet by 1
    ess = is_essential(k24, m6)
    assert not ess.verdict
    assert ess.counterexample_L.members == (0, 3)


def test_essential_examples(m6, k24):
    assert is_essential(Submodule(m6, tuple(m6.elements())), m6).verdict
    m4 = regular_module(make_zmod(4))
    assert is_essential(submodule(m4, [0, 2]), m4).verdict
    with pytest.raises(DomainError):
        is_essential(submodule(m4, [0, 2]), m6)


def test_oracle_examples(m6, s14, k24):
    bad = is_u_S_essential_oracle(Submodule(m6, (m6.zero,)), m6, s14)
    assert not bad.verdict
    assert bad.counterexample_L.members == (0, 2, 4)  # first unkilled L with zero meet
    s1, _ = bad.witness_s_pair
    assert s1 == 1

    # uniformly killed ambient module: everything is u-S-essential
    l3mod, _ = submodule_as_module(submodule(m6, [0, 3]))
    for sub in all_submodules(l3mod):
        assert is_u_S_essential_oracle(sub, l3mod, s14).verdict


def test_fast_examples(m6, s14, k24):
    assert is_u_S_essential_fast(k24, m6, s14).verdict
    assert is_u_S_essential_fast(Submodule(m6, tuple(m6.elements())), m6, s14).verdict
    bad = is_u_S_essential_fast(submodule(m6, [0, 3]), m6, s14)
    assert not bad.verdict
    # counterexample is a cyclic submodule whose meet with K is killed
    l = bad.counterexample_L
    s1 = bad.witness_s_pair[0]
    meet = set(l.members) & {0, 3}
    assert kills(m6, s1, meet)
    assert not is_u_S_torsion(l, s14)


def test_false_verdicts_replay(m6, s14):
    # every false verdict carries an independently re-checkable witness
    for k in all_submodules(m6):
        v = is_u_S_essential_oracle(k, m6, s14)
        if not v.verdict:
            l = v.counterexample_L
            s1 = v.witness_s_pair[0]
            meet = set(k.members) & set(l.members)
            assert kills(m6, s1, meet)
            assert not any(kills(m6, s, l.members) for s in s14.members)


def test_three_routes_agree_z6_family(z6, m6):
    for gens in ([4], [2], [5], [1]):
        mset = mult_set_closure(z6, gens)
        for k in all_submodules(m6):
            fast = is_u_S_essential_fast(k, m6, mset).verdict
            oracle = is_u_S_essential_oracle(k, m6, mset).verdict
            qc = quotient_characterization(k, m6, mset)
            assert fast == oracle == qc


def test_quotient_characterization_examples(m6, s14, k24):
    assert quotient_characterization(k24, m6, s14)
    assert quotient_characterization(Submodule(m6, tuple(m6.elements())), m6, s14)
    assert not quotient_characterization(submodule(m6, [0, 3]), m6, s14)


def test_complement_examples(m6, s14, k24):
    kp, checks = u_S_complement(k24, m6, s14)
    assert kp.members == (0, 3)
    assert checks == (True, True)

    kp2, checks2 = u_S_complement(Submodule(m6, tuple(m6.elements())), m6, s14)
    assert kp2.members == (0, 3)  # the maximal uniformly-killed submodule
    assert checks2 == (True, True)

    kp3, checks3 = u_S_complement(Submodule(m6, (m6.zero,)), m6, s14)
    assert kp3.members == tuple(range(6))
    assert checks3 == (True, True)


def test_complement_laws_across_sets(z6, m6):
    for gens in ([4], [2], [5], [1]):
        mset = mult_set_closure(z6, gens)
        for k in all_submodules(m6):
            _, checks = u_S_complement(k, m6, mset)
            assert checks == (True, True)


def test_complement_picks_the_first_maximal_not_the_largest():
    """Its maximal complements have 2, 4 and 4 elements; the first in
    lattice order is the 2-element one."""
    built = build_instance(
        Instance(
            ("trivext", ("zmod", 2), ("regular",)),
            ("closure", (2,)),
            ("quot", ("dsum", ("regular",), ("regular",)), (1,)),
            (0, 3),
            0,
            (36, 64),
        )
    )
    kp, checks = u_S_complement(built.submodule, built.module, built.mset)
    assert kp.members == (0, 1)
    assert checks == (True, True)


def _law(law_id, gens=(2,), mset=("closure", (4,)), module=("regular",), ring=("zmod", 6)):
    """The outcome of one registered law on one instance, Z/6 with S={1,4}
    and K=2Z/6 unless told otherwise."""
    built = build_instance(Instance(ring, mset, module, gens, 0, (36, 64)))
    return laws.evaluate(laws.LAWS_BY_ID[law_id], built, DEFAULT_CAPS)


def test_transport_preimage_examples(m6, s14, k24):
    _, eta = quotient_module(m6, submodule(m6, [0, 3]))
    pre = preimage(eta, Submodule(eta.target, tuple(eta.target.elements())))
    assert pre.members == tuple(range(6)) and is_u_S_essential_fast(pre, m6, s14).verdict

    pre2 = preimage(identity_hom(m6), k24)
    assert pre2.members == (0, 2, 4) and is_u_S_essential_fast(pre2, m6, s14).verdict

    pre3 = preimage(scalar_hom(m6, 2), k24)
    assert pre3.members == tuple(range(6)) and is_u_S_essential_fast(pre3, m6, s14).verdict

    # the law pulls both u-S-essential submodules back along all 6 endomorphisms
    assert _law("transport") == (laws.HOLDS, None, "6 maps x 2 essential submodules")
    assert _law("transport", mset=("units",)) == (laws.HOLDS, None, "6 maps x 1 essential submodules")


def test_transport_image_examples(monkeypatch, m6, s14):
    f4 = scalar_hom(m6, 4)
    assert kernel(f4).members == (0, 3) and is_u_S_mono(f4, s14)  # u-S-monic, not monic
    assert _law("transport", ring=("zmod", 4), mset=("closure", (3,)))[0] == laws.HOLDS

    # images are decided inside f(M), a module other than M: flipping only
    # those verdicts breaks only the image side
    real = laws.is_u_S_essential_fast

    def flipped_inside_images(k, module, mset):
        v = real(k, module, mset)
        return v if module == m6 else dataclasses.replace(v, verdict=not v.verdict)

    monkeypatch.setattr(laws, "is_u_S_essential_fast", flipped_inside_images)
    verdict, witness, _ = _law("transport")
    assert verdict == laws.VIOLATED and witness["part"] == "image"


def test_direct_sum_essential_examples():
    # K1 + K1 and K1 + (a middle submodule) for every K1 of Z/6, S={1,4}:
    # both u-S-essential ({0,2,4}, Z/6), neither, or one of each
    for gens in ((0,), (1,), (2,), (3,)):
        assert _law("direct-sum-pair", gens) == (laws.HOLDS, None, "")


def test_u_p_essential_examples(m6, k24):
    z6 = m6.ring
    assert is_u_p_essential(k24, m6, Ideal(z6, (0, 3)))
    assert not is_u_p_essential(k24, m6, Ideal(z6, (0, 2, 4)))
    with pytest.raises(NotPrimeError):
        is_u_p_essential(k24, m6, Ideal(z6, (0,)))


def test_max_essential_upgrade(k24):
    z6 = k24.parent.ring
    # 2Z/6 fails at the maximal ideal {0,2,4}, so the law holds vacuously
    assert not is_u_p_essential(k24, k24.parent, Ideal(z6, (0, 2, 4)))
    assert _law("max-ideal-upgrade") == (laws.HOLDS, None, "vacuous")
    # the whole module is u-m-essential everywhere, and essential
    assert _law("max-ideal-upgrade", (1,)) == (laws.HOLDS, None, "hypothesis held")


def test_max_essential_upgrade_prime_module():
    prime = ("asmod", ("regular",), (0, 2, 4))  # Z/3 inside Z/6
    for gens in ((0,), (1,)):
        assert _law("max-ideal-upgrade", gens, module=prime)[0] == laws.HOLDS
        assert _law("prime-spectrum-equivalence", gens, module=prime) == (laws.HOLDS, None, "")
    assert _law("prime-spectrum-equivalence") == (
        laws.SKIP_INAPPLICABLE, None, "module is not prime"
    )


def test_essential_implies_uS_for_prime():
    holds = (laws.HOLDS, None, "")
    assert _law("prime-upgrade", (1,), module=("asmod", ("regular",), (0, 2, 4))) == holds
    assert _law("prime-upgrade", (1,), ("closure", (2,)), ring=("zmod", 3)) == holds

    v = ("dsum", ("regular",), ("regular",))  # (Z/2)^2 over Z/2
    assert _law("prime-upgrade", (1, 2), ("closure", (1,)), v, ("zmod", 2)) == holds
    # proper essential submodules are absent in the prime module V
    assert _law("prime-upgrade", (3,), ("closure", (1,)), v, ("zmod", 2)) == (
        laws.SKIP_INAPPLICABLE, None, "submodule is not essential"
    )
    assert _law("prime-upgrade", (1,)) == (laws.SKIP_INAPPLICABLE, None, "module is not prime")


def test_transitivity_and_meet_examples():
    # every (N, H) with K <= N: 6 submodules H of Z/6 for each N above K
    for gens, overs in (((0,), 4), ((1,), 1), ((2,), 2), ((3,), 2)):
        assert _law("transitivity-meet", gens) == (laws.HOLDS, None, f"{overs * 4} (N,H) pairs")


def test_transitivity_exhaustive_z6():
    for gens in ([4], [2], [5], [1]):
        for k in ((0,), (1,), (2,), (3,)):
            assert _law("transitivity-meet", k, ("closure", tuple(gens)))[0] == laws.HOLDS


def test_unit_set_degeneration(z6, m6, k24):
    units = unit_mult_set(z6)
    assert not is_u_S_essential_fast(k24, m6, units).verdict
    assert not is_essential(k24, m6).verdict
    assert _law("regular-set-degeneration", mset=("units",)) == (laws.HOLDS, None, "")

    assert _law("regular-set-degeneration") == (  # 4 is a zero divisor
        laws.SKIP_INAPPLICABLE, None, "set meets the zero divisors on the module"
    )


def test_s1_degeneration_matches_essential(z6, m6):
    s1 = mult_set_closure(z6, [1])
    for k in all_submodules(m6):
        assert is_u_S_essential_fast(k, m6, s1).verdict == is_essential(k, m6).verdict


def test_torsion_ambient_all_essential(z6, m6, s14):
    # sigma kills the module => every submodule is u-S-essential
    l3mod, _ = submodule_as_module(submodule(m6, [0, 3]))
    assert kills(l3mod, s14.sigma, l3mod.elements())
    for sub in all_submodules(l3mod):
        assert is_u_S_essential_fast(sub, l3mod, s14).verdict
