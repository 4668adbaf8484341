import pytest

from usmod.errors import PreconditionViolatedError, UnsupportedRingError
from usmod.essential import is_essential
from usmod.injective import (
    abelian_p_basis,
    bounded_u_S_injective_test,
    certify_u_S_injective,
    check_u_S_envelope,
    check_u_S_preenvelope,
    classify_injective_zmod,
    construct_u_S_envelope,
    cyclic_invariants,
    default_catalogue,
    endomorphism_condition,
    envelope_of_direct_sum,
    envelope_properties,
    envelope_three_way,
    envelope_uniqueness,
    injective_envelope_zmod,
    is_injective_baer,
    p_component_members,
    preenvelope_summand,
    prime_power_factorization,
    replay_refuted,
    twisted_essential_transfer,
)
from usmod.modules import (
    cyclic_zmod_module,
    direct_sum,
    direct_sum_many,
    identity_hom,
    image,
    kernel,
    regular_module,
    scalar_hom,
    submodule,
    submodule_as_module,
    zero_hom,
    zero_module,
)
from usmod.rings import make_product, make_zmod, mult_set_closure


@pytest.fixture(scope="module")
def z6():
    return make_zmod(6)


@pytest.fixture(scope="module")
def m6(z6):
    return regular_module(z6)


@pytest.fixture(scope="module")
def s14(z6):
    return mult_set_closure(z6, [4])


def test_baer_examples(z6, m6):
    assert is_injective_baer(m6).verdict == "injective"

    m4 = regular_module(make_zmod(4))
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    report = is_injective_baer(sub2)
    assert report.verdict == "not-injective"
    ideal, h = report.witness
    # the witness really admits no extension: g(2) = 2 g(1) = 0 always
    assert ideal.members == (0, 2)

    assert is_injective_baer(zero_module(z6)).verdict == "injective"


def test_baer_witness_replays(z6):
    m4 = regular_module(make_zmod(4))
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    report = is_injective_baer(sub2)
    ideal, h = report.witness
    ideal_mod, incl = submodule_as_module(submodule(regular_module(make_zmod(4)), ideal.members))
    assert not any(
        all(sub2.act[incl.map[j]][m] == h.map[j] for j in ideal_mod.elements())
        for m in sub2.elements()
    )


def test_envelope_examples(z6, m6):
    m4 = regular_module(make_zmod(4))
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    env, i = injective_envelope_zmod(sub2)
    assert env.size == 4 and kernel(i).size == 1
    assert is_essential(image(i), env).verdict

    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    env_k, _ = injective_envelope_zmod(k)
    assert env_k.size == 3  # already injective

    env6, i6 = injective_envelope_zmod(m6)
    assert env6.size == 6

    prod = make_product(make_zmod(2), make_zmod(2))
    with pytest.raises(UnsupportedRingError):
        injective_envelope_zmod(regular_module(prod))


def test_envelope_of_injective_is_itself():
    for n in (4, 6, 9, 12):
        m = regular_module(make_zmod(n))
        env, i = injective_envelope_zmod(m)
        assert env.size == m.size and sorted(i.map) == list(m.elements())


def _modules_over(n, max_size):
    """Every Z/n module of size <= max_size up to isomorphism, as direct sums
    of cyclic modules with orders dividing n."""
    ring = make_zmod(n)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    seen_invariants = set()
    out = []

    def rec(start, left, picked):
        inv = tuple(sorted(picked))
        if inv not in seen_invariants:
            seen_invariants.add(inv)
            if picked:
                mods = [cyclic_zmod_module(ring, d) for d in picked]
                out.append(direct_sum_many(mods)[0] if len(mods) > 1 else mods[0])
            else:
                out.append(zero_module(ring))
        for i in range(start, len(divisors)):
            d = divisors[i]
            if d <= left:
                rec(i, left // d, picked + [d])

    rec(0, max_size, [])
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_baer_matches_structure_classification(n):
    # acceptance-critical cross-validation at a reduced size here (the full
    # |M| <= 64 sweep runs in the acceptance suite)
    for module in _modules_over(n, 32):
        baer = is_injective_baer(module).verdict == "injective"
        assert baer == classify_injective_zmod(module), module.label


def test_cyclic_invariants_examples(z6, m6):
    assert cyclic_invariants(m6) == {2: [1], 3: [1]}
    m12 = regular_module(make_zmod(12))
    assert cyclic_invariants(m12) == {2: [2], 3: [1]}
    sub2, _ = submodule_as_module(submodule(regular_module(make_zmod(4)), [0, 2]))
    assert cyclic_invariants(sub2) == {2: [1]}


def test_abelian_p_basis_splits_components():
    m8 = regular_module(make_zmod(8))
    d, *_ = direct_sum(m8, m8)
    comp = p_component_members(d, 2, 3)
    basis = abelian_p_basis(d, comp)
    assert sorted(order for _, order in basis) == [8, 8]
    assert prime_power_factorization(24) == {2: 3, 3: 1}


def test_certification_tiers(z6, m6, s14):
    assert certify_u_S_injective(m6, s14).certificate == "injective-baer"

    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    assert certify_u_S_injective(l3, s14).certificate == "u-S-torsion"

    d, *_ = direct_sum(m6, l3)
    assert certify_u_S_injective(d, s14).certificate == "closure"


def test_bounded_test_examples(z6, m6, s14):
    cat = default_catalogue(m6, s14)
    assert bounded_u_S_injective_test(m6, s14, cat).verdict == "bounded-pass"

    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    cat_k = default_catalogue(k, s14)
    assert bounded_u_S_injective_test(k, s14, cat_k).verdict == "bounded-pass"

    m4 = regular_module(make_zmod(4))
    s13 = mult_set_closure(m4.ring, [3])
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    report = bounded_u_S_injective_test(sub2, s13, default_catalogue(sub2, s13))
    assert report.verdict == "refuted"
    assert replay_refuted(sub2, s13, report.witness)


def test_refutation_consistent_with_units():
    # S of units + non-injective module must refute (u-S = classical there)
    m9 = regular_module(make_zmod(9))
    s = mult_set_closure(m9.ring, [2])  # units of Z/9 subset
    sub3, _ = submodule_as_module(submodule(m9, [0, 3, 6]))
    report = certify_u_S_injective(sub3, s)
    assert report.verdict == "refuted"
    assert replay_refuted(sub3, s, report.witness)


def test_preenvelope_examples(z6, m6, s14):
    k = submodule(m6, [0, 2, 4])
    _, incl = submodule_as_module(k)
    assert check_u_S_preenvelope(incl, s14).holds

    assert check_u_S_preenvelope(identity_hom(m6), s14).holds

    assert not check_u_S_preenvelope(zero_hom(m6, m6), s14).holds


def test_envelope_check_examples(z6, m6, s14):
    k = submodule(m6, [0, 2, 4])
    _, incl = submodule_as_module(k)
    assert check_u_S_envelope(incl, s14).is_envelope
    assert endomorphism_condition(incl, s14)

    ident = identity_hom(m6)
    assert check_u_S_envelope(ident, s14).is_envelope
    assert endomorphism_condition(ident, s14)

    l3 = submodule(m6, [0, 3])
    _, incl3 = submodule_as_module(l3)
    assert not check_u_S_envelope(incl3, s14).is_envelope
    assert not endomorphism_condition(incl3, s14)


def test_envelope_uniqueness(z6, m6, s14):
    k, incl = submodule_as_module(submodule(m6, [0, 2, 4]))
    iso = envelope_uniqueness(identity_hom(k), incl, s14)
    assert iso.map == (0, 2, 4)  # the inclusion itself

    iso2 = envelope_uniqueness(incl, incl, s14)
    assert iso2 is not None

    with pytest.raises(PreconditionViolatedError):
        _, incl3 = submodule_as_module(submodule(m6, [0, 3]))
        envelope_uniqueness(incl3, incl3, s14)


def test_preenvelope_summand(z6, m6, s14):
    k, incl = submodule_as_module(submodule(m6, [0, 2, 4]))
    out = preenvelope_summand(identity_hom(k), incl, s14)
    assert out is not None
    b, iso = out
    assert b.members == (0, 3)

    out2 = preenvelope_summand(identity_hom(k), identity_hom(k), s14)
    assert out2 is not None and out2[0].is_zero()

    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    d, *_ = direct_sum(k, l3)
    g = direct_sum(k, l3)[1]  # injection of k into k + torsion
    out3 = preenvelope_summand(identity_hom(k), g, s14)
    assert out3 is not None


def test_three_way_characterization(z6, m6, s14):
    k, incl = submodule_as_module(submodule(m6, [0, 2, 4]))
    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    pool = [m6, k, l3]
    report = envelope_three_way(incl, s14, pool)
    assert report.equivalent and report.envelope

    report2 = envelope_three_way(identity_hom(m6), s14, pool)
    assert report2.equivalent and report2.envelope

    _, incl3 = submodule_as_module(submodule(m6, [0, 3]))
    report3 = envelope_three_way(incl3, s14, pool)
    assert report3.equivalent and not report3.envelope


def test_envelope_properties(z6, m6, s14):
    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    report = envelope_properties(k, s14)
    assert report.self_injective_iff_iso.equivalent
    assert report.injective_overmodule_decomposes in (True, None)

    report2 = envelope_properties(m6, s14)
    assert report2.self_injective_iff_iso.equivalent
    # {0,2,4} is u-S-essential in Z/6: envelope of the submodule matches
    assert report2.essential_submodule_envelopes_isomorphic


def test_envelope_construct_tiers(z6, m6, s14):
    # uniformly killed module: identity envelope
    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    out = construct_u_S_envelope(l3, s14)
    assert out is not None and out[0].map == identity_hom(l3).map

    # torsion-free-ish module over Z/4 with unit set: classical envelope
    m4 = regular_module(make_zmod(4))
    s13 = mult_set_closure(m4.ring, [3])
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    out2 = construct_u_S_envelope(sub2, s13)
    assert out2 is not None and out2[0].target.size == 4


def test_envelope_of_direct_sum(z6, m6, s14):
    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    report = envelope_of_direct_sum([identity_hom(k), identity_hom(k)], s14)
    assert report.sum_map_is_envelope
    assert report.matches_direct_construction

    single = envelope_of_direct_sum([identity_hom(k)], s14)
    assert single.sum_map_is_envelope

    s1 = mult_set_closure(z6, [1])
    env_k, i_k = injective_envelope_zmod(k)
    variant = envelope_of_direct_sum([i_k, i_k], s1, require_prime_regular=True)
    assert variant.sum_map_is_envelope and variant.noetherian_witness == 1

    with pytest.raises(PreconditionViolatedError):
        envelope_of_direct_sum([identity_hom(m6)], s14, require_prime_regular=True)


def test_twisted_essential_transfer(z6, m6, s14):
    k, incl = submodule_as_module(submodule(m6, [0, 2, 4]))
    both = twisted_essential_transfer(identity_hom(k), incl, incl, s14)
    assert both.left and both.right and both.equivalent

    ident = identity_hom(m6)
    taut = twisted_essential_transfer(ident, ident, ident, s14)
    assert taut.equivalent

    # non-essential legs on both sides of a u-S-isomorphism
    l3, incl3 = submodule_as_module(submodule(m6, [0, 3]))
    phi4 = scalar_hom(m6, 4)
    g = tuple(phi4.map[v] for v in incl3.map)
    from usmod.modules import Homomorphism

    both2 = twisted_essential_transfer(incl3, Homomorphism(l3, m6, g), phi4, s14)
    assert not both2.left and not both2.right and both2.equivalent

    with pytest.raises(PreconditionViolatedError):
        twisted_essential_transfer(incl, zero_hom(k, m6), identity_hom(m6), s14)
