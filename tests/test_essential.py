import pytest

from usmod.errors import DomainError, NotPrimeError, PreconditionViolatedError
from usmod.essential import (
    direct_sum_essential,
    essential_implies_uS_for_prime,
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    is_u_p_essential,
    max_essential_upgrade,
    quotient_characterization,
    regular_set_degeneration,
    transitivity_and_meet,
    transport_image,
    transport_preimage,
    u_S_complement,
)
from usmod.modules import (
    all_submodules,
    cyclic_submodule,
    direct_sum,
    identity_hom,
    kernel,
    regular_module,
    scalar_hom,
    submodule,
    submodule_as_module,
    whole_submodule,
    zero_submodule,
)
from usmod.rings import Ideal, make_zmod, mult_set_closure, unit_mult_set
from usmod.storsion import is_u_S_torsion, kills


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
    assert is_essential(whole_submodule(m6), m6).verdict
    m4 = regular_module(make_zmod(4))
    assert is_essential(submodule(m4, [0, 2]), m4).verdict
    with pytest.raises(DomainError):
        is_essential(submodule(m4, [0, 2]), m6)


def test_oracle_examples(m6, s14, k24):
    bad = is_u_S_essential_oracle(zero_submodule(m6), m6, s14)
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
    assert is_u_S_essential_fast(whole_submodule(m6), m6, s14).verdict
    bad = is_u_S_essential_fast(submodule(m6, [0, 3]), m6, s14)
    assert not bad.verdict
    # counterexample is a cyclic submodule whose meet with K is killed
    l = bad.counterexample_L
    s1 = bad.witness_s_pair[0]
    meet = set(l.members) & {0, 3}
    assert kills(m6, s1, meet)
    assert not is_u_S_torsion(l, s14)[0]


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
    assert quotient_characterization(whole_submodule(m6), m6, s14)
    assert not quotient_characterization(submodule(m6, [0, 3]), m6, s14)


def test_complement_examples(m6, s14, k24):
    kp, checks = u_S_complement(k24, m6, s14)
    assert kp.members == (0, 3)
    assert checks == (True, True)

    kp2, checks2 = u_S_complement(whole_submodule(m6), m6, s14)
    assert kp2.members == (0, 3)  # the maximal uniformly-killed submodule
    assert checks2 == (True, True)

    kp3, checks3 = u_S_complement(zero_submodule(m6), m6, s14)
    assert kp3.members == tuple(range(6))
    assert checks3 == (True, True)


def test_complement_laws_across_sets(z6, m6):
    for gens in ([4], [2], [5], [1]):
        mset = mult_set_closure(z6, gens)
        for k in all_submodules(m6):
            _, checks = u_S_complement(k, m6, mset)
            assert checks == (True, True)


def test_transport_preimage_examples(m6, s14, k24):
    from usmod.modules import quotient_module

    _, eta = quotient_module(m6, submodule(m6, [0, 3]))
    pre, verdict = transport_preimage(whole_submodule(eta.target), eta, s14)
    assert pre.members == tuple(range(6)) and verdict.verdict

    pre2, verdict2 = transport_preimage(k24, identity_hom(m6), s14)
    assert pre2.members == (0, 2, 4) and verdict2.verdict

    pre3, verdict3 = transport_preimage(k24, scalar_hom(m6, 2), s14)
    assert pre3.members == tuple(range(6)) and verdict3.verdict


def test_transport_image_examples(m6, s14, k24):
    f4 = scalar_hom(m6, 4)
    assert kernel(f4).members == (0, 3)
    fk, verdict = transport_image(k24, f4, s14)
    assert verdict.verdict

    fk2, verdict2 = transport_image(k24, identity_hom(m6), s14)
    assert verdict2.verdict

    with pytest.raises(PreconditionViolatedError):
        transport_image(k24, scalar_hom(m6, 3), s14)  # kernel {0,2,4} not killed


def test_direct_sum_essential_examples(m6, s14, k24):
    both = direct_sum_essential(k24, k24, s14)
    assert both.left and both.right and both.equivalent

    whole = direct_sum_essential(whole_submodule(m6), whole_submodule(m6), s14)
    assert whole.left and whole.right

    mixed = direct_sum_essential(submodule(m6, [0, 3]), k24, s14)
    assert not mixed.left and not mixed.right and mixed.equivalent


def test_u_p_essential_examples(m6, k24):
    z6 = m6.ring
    assert is_u_p_essential(k24, m6, Ideal(z6, (0, 3)))
    assert not is_u_p_essential(k24, m6, Ideal(z6, (0, 2, 4)))
    with pytest.raises(NotPrimeError):
        is_u_p_essential(k24, m6, Ideal(z6, (0,)))


def test_max_essential_upgrade(m6, k24):
    report = max_essential_upgrade(k24, m6)
    assert not report.u_m_essential_for_all_max  # fails at the prime {0,2,4}
    assert report.implication_holds
    # whole module: u-m-essential everywhere and essential
    report_whole = max_essential_upgrade(whole_submodule(m6), m6)
    assert report_whole.u_m_essential_for_all_max and report_whole.essential


def test_max_essential_upgrade_prime_module(m6, k24):
    kmod, _ = submodule_as_module(k24)
    for sub in all_submodules(kmod):
        report = max_essential_upgrade(sub, kmod)
        assert report.implication_holds
        assert report.prime_equivalence is True


def test_essential_implies_uS_for_prime(m6, s14, k24):
    kmod, _ = submodule_as_module(k24)
    assert essential_implies_uS_for_prime(kmod, whole_submodule(kmod), s14).verdict

    z3 = make_zmod(3)
    m3 = regular_module(z3)
    s3 = mult_set_closure(z3, [2])
    assert essential_implies_uS_for_prime(m3, whole_submodule(m3), s3).verdict

    v, *_ = direct_sum(regular_module(make_zmod(2)), regular_module(make_zmod(2)))
    s2 = mult_set_closure(v.ring, [1])
    assert essential_implies_uS_for_prime(v, whole_submodule(v), s2).verdict
    # proper essential submodules are absent in the prime module V
    diag = submodule(v, [0, 3])
    with pytest.raises(PreconditionViolatedError):
        essential_implies_uS_for_prime(v, diag, s2)

    with pytest.raises(PreconditionViolatedError):
        essential_implies_uS_for_prime(m6, whole_submodule(m6), s14)  # not prime


def test_transitivity_and_meet_examples(m6, s14, k24):
    chain, meet = transitivity_and_meet(k24, whole_submodule(m6), k24, s14)
    assert chain.left and chain.right and meet.left and meet.right

    chain2, meet2 = transitivity_and_meet(
        whole_submodule(m6), whole_submodule(m6), whole_submodule(m6), s14
    )
    assert chain2.equivalent and meet2.equivalent

    # H = {0,2,4}, K = {0,3}: meet is 0, both sides false
    _, meet3 = transitivity_and_meet(
        submodule(m6, [0, 3]), whole_submodule(m6), k24, s14
    )
    assert not meet3.left and not meet3.right and meet3.equivalent

    with pytest.raises(DomainError):
        transitivity_and_meet(whole_submodule(m6), submodule(m6, [0, 3]), k24, s14)


def test_transitivity_exhaustive_z6(z6, m6, s14):
    subs = all_submodules(m6)
    for n in subs:
        nset = set(n.members)
        for k in subs:
            if not set(k.members) <= nset:
                continue
            for h in subs:
                chain, meet = transitivity_and_meet(k, n, h, s14)
                assert chain.equivalent
                assert meet.equivalent


def test_unit_set_degeneration(z6, m6, k24):
    units = unit_mult_set(z6)
    verdict = regular_set_degeneration(k24, m6, units)
    assert verdict is not None and verdict.equivalent and not verdict.left

    s14 = mult_set_closure(z6, [4])
    assert regular_set_degeneration(k24, m6, s14) is None  # 4 is a zero divisor


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
