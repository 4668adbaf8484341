from collections import Counter
from contextlib import suppress
from math import prod

import pytest

from usmod import injective, laws
from usmod.caps import DEFAULT_CAPS
from usmod.corpus import Bounds, Instance, build_instance, generate_corpus
from usmod.errors import InternalError, ResourceExceededError, UnsupportedRingError
from usmod.essential import is_essential, is_u_S_essential_fast
from usmod.injective import (
    bounded_u_S_injective_test,
    certify_u_S_injective,
    check_u_S_envelope,
    check_u_S_preenvelope,
    classify_injective_zmod,
    construct_u_S_envelope,
    endomorphism_condition,
    injective_envelope_zmod,
    is_injective_baer,
    prime_power_factorization,
    replay_refuted,
    u_S_injectivity_certificate,
)
from usmod.modules import (
    compose,
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
from usmod.storsion import find_u_S_isomorphism


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
    i = injective_envelope_zmod(sub2)
    assert i.target.size == 4 and kernel(i).size == 1
    assert is_essential(image(i), i.target).verdict

    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    assert injective_envelope_zmod(k).target.size == 3  # already injective

    assert injective_envelope_zmod(m6).target.size == 6

    prod = make_product(make_zmod(2), make_zmod(2))
    with pytest.raises(UnsupportedRingError):
        injective_envelope_zmod(regular_module(prod))


def test_envelope_of_injective_is_itself():
    for n in (4, 6, 9, 12):
        m = regular_module(make_zmod(n))
        i = injective_envelope_zmod(m)
        assert i.target.size == m.size and sorted(i.map) == list(m.elements())


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


def _socle_rank(module, p):
    """log_p of the number of elements that p additions kill."""
    size = sum(1 for x in module.elements() if module.int_mul(p, x) == module.zero)
    rank = 0
    while size > 1:
        size //= p
        rank += 1
    return rank


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_hull_from_p_socles(n):
    """E(M) is the sum over p^k exactly dividing n of (Z/p^k)^dim M[p],
    primes ascending; a hull beyond the module cap is refused."""
    ring = make_zmod(n)
    factors = sorted(prime_power_factorization(n).items())
    for module in _modules_over(n, 64):
        cyclics = [
            cyclic_zmod_module(ring, p**k)
            for p, k in factors
            for _ in range(_socle_rank(module, p))
        ]
        size = prod(c.size for c in cyclics)
        if size > DEFAULT_CAPS.max_module:
            with pytest.raises(ResourceExceededError, match=f"^envelope would have {size} elements$"):
                injective_envelope_zmod(module)
            continue
        i = injective_envelope_zmod(module)
        env = i.target
        assert kernel(i).size == 1, module.label
        assert is_injective_baer(env).verdict == "injective", module.label
        # essential image: every nonzero cyclic submodule of E meets it
        img = set(i.map) - {env.zero}
        assert all(
            img.intersection(env.act[r][x] for r in ring.elements())
            for x in env.elements()
            if x != env.zero
        ), module.label
        assert env.size == size, module.label
        assert env == (direct_sum_many(cyclics)[0] if cyclics else zero_module(ring)), module.label


def test_prime_power_factorization():
    assert prime_power_factorization(24) == {2: 3, 3: 1}
    assert prime_power_factorization(1) == {}


def test_certification_tiers(z6, m6, s14):
    assert certify_u_S_injective(m6, s14).certificate == "injective-baer"

    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    assert certify_u_S_injective(l3, s14).certificate == "u-S-torsion"

    d, *_ = direct_sum(m6, l3)
    assert certify_u_S_injective(d, s14).certificate == "closure"

    # no certificate lands on Z/2 inside Z/4 at S = {1, 3}: only the
    # catalogue answers, and it refutes
    m4 = regular_module(make_zmod(4))
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    s13 = mult_set_closure(m4.ring, [3])
    assert u_S_injectivity_certificate(sub2, s13) is None
    assert certify_u_S_injective(sub2, s13).verdict == "refuted"


def test_bounded_test_examples(z6, m6, s14):
    assert bounded_u_S_injective_test(m6, s14).verdict == "bounded-pass"

    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    assert bounded_u_S_injective_test(k, s14).verdict == "bounded-pass"

    m4 = regular_module(make_zmod(4))
    s13 = mult_set_closure(m4.ring, [3])
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    report = bounded_u_S_injective_test(sub2, s13)
    assert report.verdict == "refuted"
    f, h = report.witness
    assert (h.source, h.target) == (f.source, sub2)
    assert replay_refuted(sub2, s13, report.witness)


def test_bounded_test_enumerates_each_hom_pair_once(monkeypatch):
    """One catalogue test asks hom_enumerate for each (source, target) pair
    at most once: Hom(B, E) serves every inclusion into the pool module B.
    Z/6 with S={1,4} passes and the ideal {0,2} of Z/4 with S={1,3}
    refutes; the small modules of the seed-42 corpus add more of each."""
    real = injective.hom_enumerate
    asked = []

    def counting(source, target, *args, **kwargs):
        asked.append((source, target))
        return real(source, target, *args, **kwargs)

    monkeypatch.setattr(injective, "hom_enumerate", counting)
    m4 = regular_module(make_zmod(4))
    m6 = regular_module(make_zmod(6))
    cases = [
        (m6, mult_set_closure(m6.ring, [4])),
        (submodule_as_module(submodule(m4, [0, 2]))[0], mult_set_closure(m4.ring, [3])),
    ]
    triples = {}
    for inst in generate_corpus(42, Bounds(max_ring=12, max_module=12, max_instances=60)):
        triples.setdefault((inst.ring, inst.mset, inst.module), inst)
    cases += [(b.module, b.mset) for b in map(build_instance, triples.values())]
    for module, mset in cases:
        asked.clear()
        with suppress(ResourceExceededError):
            bounded_u_S_injective_test(module, mset)
        assert asked
        assert [pair for pair, n in Counter(asked).items() if n > 1] == [], module.label


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


def test_preenvelope_asks_mono_first(monkeypatch, m6, s14):
    """A map that is no u-S-mono is refused before its target is certified."""
    def certify(*args, **kwargs):
        raise InternalError("target certified for a map that is no u-S-mono")

    for name in ("certify_u_S_injective", "u_S_injectivity_certificate", "is_injective_baer",
                 "bounded_u_S_injective_test"):
        monkeypatch.setattr(injective, name, certify)
    report = check_u_S_preenvelope(zero_hom(m6, m6), s14)
    assert (report.holds, report.level, report.injectivity) == (False, "not-mono", None)


def test_uncertified_zmod_module_gets_the_classical_hull():
    """Over Z/n a module with no certificate is sent to its classical hull,
    never to the pool search: every module triple of the seed-42 acceptance
    corpus with at most 12 elements."""
    seen, checked = set(), 0
    for inst in generate_corpus(42, Bounds(max_ring=36, max_module=64, max_instances=600)):
        if (inst.ring, inst.mset, inst.module) in seen:
            continue
        seen.add((inst.ring, inst.mset, inst.module))
        b = build_instance(inst)
        if b.ring.zmod_n is None or b.module.size > 12:
            continue
        if u_S_injectivity_certificate(b.module, b.mset) is None:
            checked += 1
            hull = injective_envelope_zmod(b.module)
            assert construct_u_S_envelope(b.module, b.mset).map == hull, inst
    assert checked


def test_envelope_check_examples(z6, m6, s14):
    k = submodule(m6, [0, 2, 4])
    _, incl = submodule_as_module(k)
    assert check_u_S_envelope(incl, s14).essential_verdict.verdict
    assert endomorphism_condition(incl, s14)

    ident = identity_hom(m6)
    assert check_u_S_envelope(ident, s14).essential_verdict.verdict
    assert endomorphism_condition(ident, s14)

    l3 = submodule(m6, [0, 3])
    _, incl3 = submodule_as_module(l3)
    assert not check_u_S_envelope(incl3, s14).essential_verdict.verdict
    assert not endomorphism_condition(incl3, s14)


def _law(law_id, module=("regular",), mset=("closure", (4,))):
    """The outcome of one registered module law on a module over Z/6."""
    built = build_instance(Instance(("zmod", 6), mset, module, None, 0, (36, 64)))
    return laws.evaluate(laws.LAWS_BY_ID[law_id], built, DEFAULT_CAPS)


K3 = ("asmod", ("regular",), (0, 2, 4))  # Z/3 inside Z/6: injective, killed by nothing in S
L2 = ("asmod", ("regular",), (0, 3))  # Z/2 inside Z/6: killed by 4


def test_envelope_uniqueness(m6, s14):
    # identity and inclusion envelopes of {0,2,4}: the inclusion is the iso
    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    assert find_u_S_isomorphism(k, m6, s14).map == (0, 2, 4)
    # the constructed and the classical envelope are u-S-isomorphic
    for module in (("regular",), K3, L2):
        assert _law("envelope-uniqueness", module) == (laws.HOLDS, None, "")


def test_preenvelope_summand():
    # E + tor_S(E) splits off B; for Z/6 and Z/2 the torsion part {0,3}
    assert _law("preenvelope-summand") == (laws.HOLDS, None, "B of size 2")
    assert _law("preenvelope-summand", K3) == (laws.HOLDS, None, "B of size 1")
    assert _law("preenvelope-summand", L2) == (laws.HOLDS, None, "B of size 2")


def test_three_way_characterization():
    # pool: the module, its envelope and, when proper, the torsion part
    assert _law("envelope-three-way") == (laws.HOLDS, None, "pool of 3")
    assert _law("envelope-three-way", K3) == (laws.HOLDS, None, "pool of 2")
    assert _law("envelope-three-way", L2) == (laws.HOLDS, None, "pool of 2")


def test_envelope_properties():
    for module in (("regular",), K3, L2):
        assert _law("envelope-properties", module) == (laws.HOLDS, None, "")


def test_envelope_construct_tiers(z6, m6, s14):
    # uniformly killed module: identity envelope
    l3, _ = submodule_as_module(submodule(m6, [0, 3]))
    cand = construct_u_S_envelope(l3, s14)
    assert cand is not None and cand.map == identity_hom(l3)

    # torsion-free-ish module over Z/4 with unit set: classical envelope
    m4 = regular_module(make_zmod(4))
    s13 = mult_set_closure(m4.ring, [3])
    sub2, _ = submodule_as_module(submodule(m4, [0, 2]))
    cand2 = construct_u_S_envelope(sub2, s13)
    assert cand2 is not None and cand2.map.target.size == 4


def test_envelope_of_direct_sum():
    for module in (("regular",), K3):
        assert _law("envelope-direct-sum", module) == (laws.HOLDS, None, "")

    witness_one = (laws.HOLDS, None, "noetherian witness 1")
    assert _law("prime-classical-envelope-sum", K3, ("units",)) == witness_one
    assert _law("prime-classical-envelope-sum", K3, ("closure", (1,))) == witness_one
    assert _law("prime-classical-envelope-sum", K3) == (
        laws.SKIP_INAPPLICABLE, None, "multiplicative set is not regular"
    )
    assert _law("prime-classical-envelope-sum", mset=("units",)) == (
        laws.SKIP_INAPPLICABLE, None, "module is not prime"
    )


def test_twisted_essential_transfer(m6, s14):
    # scalar 4 is a u-S-isomorphism of Z/6: the u-S-essential {0,2,4} stays
    # u-S-essential after the twist, the non-essential {0,3} stays not
    phi4 = scalar_hom(m6, 4)
    for members, essential in (([0, 2, 4], True), ([0, 3], False)):
        _, incl = submodule_as_module(submodule(m6, members))
        twisted = compose(phi4, incl)
        assert is_u_S_essential_fast(image(incl), m6, s14).verdict == essential
        assert is_u_S_essential_fast(image(twisted), m6, s14).verdict == essential
    # both scalar twists by S = {1,4} pass for every submodule of Z/6
    for gens in ((0,), (1,), (2,), (3,)):
        built = build_instance(Instance(("zmod", 6), ("closure", (4,)), ("regular",), gens, 0, (36, 64)))
        assert laws.evaluate(laws.LAWS_BY_ID["twisted-transfer"], built, DEFAULT_CAPS) == (
            laws.HOLDS, None, "2 scalar twists"
        )
