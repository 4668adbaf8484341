import copy
import dataclasses
import itertools
import random

import pytest

from usmod import modules
from usmod.errors import DomainError, ResourceExceededError
from usmod.caps import DEFAULT_CAPS, Caps, caps_from_env
from usmod.corpus import Bounds, build_instance, build_ring, generate_corpus
from usmod.modules import (
    Homomorphism,
    Submodule,
    all_submodules,
    annihilator,
    check_homomorphism,
    check_module_axioms,
    compose,
    cyclic_submodule,
    cyclic_zmod_module,
    derivation_plan,
    direct_sum,
    direct_sum_many,
    extend_images,
    generating_set,
    hom_enumerate,
    identity_hom,
    image,
    image_of_submodule,
    intersect_submodules,
    is_prime_module,
    kernel,
    precompose,
    preimage,
    quotient_module,
    regular_module,
    scalar_hom,
    span,
    submodule,
    submodule_as_module,
    sum_submodules,
    zero_divisors_on,
    zero_hom,
    zero_module,
)
from usmod.rings import FiniteRing, make_product, make_zmod, mult_set_closure


@pytest.fixture(scope="module")
def z6():
    return make_zmod(6)


@pytest.fixture(scope="module")
def m6(z6):
    return regular_module(z6)


def brute_force_submodules(module):
    """Literal scan of all subsets closed under addition and action.

    Exponential; only usable for |M| <= 16."""
    n = module.size
    others = [x for x in module.elements() if x != module.zero]
    found = []
    for mask in itertools.chain.from_iterable(
        itertools.combinations(others, k) for k in range(len(others) + 1)
    ):
        mem = set(mask) | {module.zero}
        closed = all(module.add[x][y] in mem for x in mem for y in mem) and all(
            module.act[r][x] in mem for x in mem for r in module.ring.elements()
        )
        if closed:
            found.append(tuple(sorted(mem)))
    return sorted(found, key=lambda t: (len(t), t))


def closure_enumerate_submodules(module):
    """Independent route: enumerate the closed sets of the span operator by
    breadth-first closure over single-element extensions."""
    start = span(module, [])
    found = {start}
    queue = [start]
    while queue:
        current = queue.pop()
        cur_set = set(current)
        for x in module.elements():
            if x in cur_set:
                continue
            nxt = span(module, current + (x,))
            if nxt not in found:
                found.add(nxt)
                queue.append(nxt)
    return sorted(found, key=lambda t: (len(t), t))


def test_regular_module_submodules_are_ideals(m6):
    subs = [s.members for s in all_submodules(m6)]
    assert subs == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]


def test_regular_module_of_field_is_simple():
    m = regular_module(make_zmod(5))
    assert len(all_submodules(m)) == 2


def test_regular_module_z4():
    m = regular_module(make_zmod(4))
    assert len(all_submodules(m)) == 3


def test_cyclic_submodule_examples(m6):
    assert cyclic_submodule(m6, 2).members == (0, 2, 4)
    assert cyclic_submodule(m6, 0).members == (0,)
    assert cyclic_submodule(m6, 3).members == (0, 3)


def test_sum_intersect_examples(m6):
    k = submodule(m6, [0, 2, 4])
    l = submodule(m6, [0, 3])
    assert intersect_submodules(k, l).members == (0,)
    assert sum_submodules(k, submodule(m6, [0])).members == k.members
    assert sum_submodules(k, l).members == tuple(range(6))


def test_modular_law_samples(m6):
    subs = all_submodules(m6)
    for a in subs:
        for b in subs:
            for c in subs:
                if set(a.members) <= set(c.members):
                    left = intersect_submodules(c, sum_submodules(a, b))
                    right = sum_submodules(a, intersect_submodules(c, b))
                    assert left.members == right.members


def test_parent_mismatch_raises(m6):
    other = regular_module(make_zmod(4))
    with pytest.raises(DomainError):
        sum_submodules(submodule(m6, [0]), submodule(other, [0]))


def test_lattice_matches_brute_force_small():
    # literal subset scan on modules with at most 16 elements
    cases = [
        regular_module(make_zmod(6)),
        regular_module(make_zmod(8)),
        regular_module(make_zmod(12)),
        regular_module(make_product(make_zmod(2), make_zmod(2))),
        direct_sum(regular_module(make_zmod(2)), regular_module(make_zmod(2)))[0],
        direct_sum(regular_module(make_zmod(4)), regular_module(make_zmod(4)))[0],
    ]
    for m in cases:
        assert [s.members for s in all_submodules(m)] == brute_force_submodules(m)


def test_lattice_matches_closure_enumeration_medium():
    # closed-set enumeration on modules up to 24 elements
    m6 = regular_module(make_zmod(6))
    k6, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    m12 = regular_module(make_zmod(12))
    k12, _ = submodule_as_module(submodule(m12, [0, 6]))
    cases = [
        regular_module(make_zmod(24)),
        direct_sum(m6, k6)[0],
        direct_sum(m12, k12)[0],
    ]
    for m in cases:
        assert [s.members for s in all_submodules(m)] == closure_enumerate_submodules(m)


def test_z2_square_has_five_submodules():
    m, *_ = direct_sum(regular_module(make_zmod(2)), regular_module(make_zmod(2)))
    assert len(all_submodules(m)) == 5


def test_lattice_cap():
    m = regular_module(make_zmod(6))
    with pytest.raises(ResourceExceededError):
        all_submodules(m, Caps(max_module=4))


def test_quotient_module_examples(m6):
    q, eta = quotient_module(m6, submodule(m6, [0, 3]))
    assert q.size == 3
    assert eta.map[1] == eta.map[4]
    check_homomorphism(eta)

    q0, eta0 = quotient_module(m6, submodule(m6, [0]))
    assert q0.size == 6

    q2, _ = quotient_module(m6, submodule(m6, [0, 2, 4]))
    assert q2.size == 2


def test_direct_sum_projection_identities(m6):
    d, i1, i2, p1, p2 = direct_sum(m6, m6)
    assert d.size == 36
    assert compose(p1, i1).map == identity_hom(m6).map
    assert compose(p2, i2).map == identity_hom(m6).map
    # i1 p1 + i2 p2 = identity
    from usmod.modules import add_homs

    total = add_homs(compose(i1, p1), compose(i2, p2))
    assert total.map == identity_hom(d).map
    for h in (i1, i2, p1, p2):
        check_homomorphism(h)


def test_hom_enumerate_cyclic_source(m6):
    homs = hom_enumerate(m6, m6)
    assert len(homs) == 6  # x -> r x
    maps = {h.map for h in homs}
    assert identity_hom(m6).map in maps
    for r in range(6):
        assert scalar_hom(m6, r).map in maps


def test_hom_enumerate_zero_target(m6):
    z = zero_module(m6.ring)
    assert len(hom_enumerate(m6, z)) == 1


def test_hom_enumerate_coprime_orders(m6):
    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    l, _ = submodule_as_module(submodule(m6, [0, 3]))
    homs = hom_enumerate(k, l)
    assert len(homs) == 1 and homs[0].map == zero_hom(k, l).map


def test_hom_enumerate_cap():
    # the first generator alone has 36 candidate images in Z/6 (+) Z/6
    m, *_ = direct_sum(regular_module(make_zmod(6)), regular_module(make_zmod(6)))
    with pytest.raises(ResourceExceededError, match=r"^projected hom count 36 exceeds cap 10$"):
        hom_enumerate(m, m, cap=10)
    assert len(hom_enumerate(m, m, cap=36 * 36)) == 6**4  # End(Z/6 (+) Z/6) = M_2(Z/6)


def _small_modules(ring):
    """Cyclic modules, direct sums, quotients and submodules-as-modules of
    at most 8 elements over *ring*."""
    reg = regular_module(ring)
    pool = [zero_module(ring), reg]
    if ring.zmod_n is not None:
        pool += [cyclic_zmod_module(ring, d) for d in range(2, ring.zmod_n) if ring.zmod_n % d == 0]
    for sub in all_submodules(reg):
        pool.append(submodule_as_module(sub)[0])
        pool.append(quotient_module(reg, sub)[0])
    small = [m for m in pool if m.size <= 4]
    pool += [direct_sum(a, b)[0] for a in small for b in small if a.size * b.size <= 8]
    distinct = {(m.label, m.add, m.act): m for m in pool if m.size <= 8}
    return list(distinct.values())


def _brute_force_homs(source, target):
    """Every map source -> target that passes check_homomorphism."""
    out = []
    for images in itertools.product(target.elements(), repeat=source.size):
        try:
            check_homomorphism(Homomorphism(source, target, images))
        except DomainError:
            continue
        out.append(images)
    return out


# Z/2 x Z/4 and Z/2 x| (Z/2)^2 have ideals that need two generators, so
# some conductors do too; the others are principal ideal rings
BRUTE_FORCE_RINGS = [
    make_zmod(2),
    make_zmod(4),
    make_zmod(6),
    make_zmod(8),
    make_product(make_zmod(2), make_zmod(2)),
    make_product(make_zmod(2), make_zmod(4)),
    build_ring(("trivext", ("zmod", 2), ("dsum", ("regular",), ("regular",)))),
]


@pytest.mark.parametrize("ring", BRUTE_FORCE_RINGS, ids=lambda r: r.label)
def test_hom_enumerate_matches_brute_force(ring):
    rng = random.Random(f"hom-{ring.label}")
    pool = _small_modules(ring)
    pairs = [(s, t) for s in pool for t in pool if t.size**s.size <= 4096]
    for source, target in rng.sample(pairs, min(25, len(pairs))):
        homs = [h.map for h in hom_enumerate(source, target)]
        assert len(set(homs)) == len(homs)
        assert sorted(homs) == _brute_force_homs(source, target), (source, target)


@pytest.mark.parametrize("ring", BRUTE_FORCE_RINGS, ids=lambda r: r.label)
def test_precompose_matches_brute_force(ring):
    """For f: A -> B and a shuffled list of every g: B -> E, each key is a
    literal composite a -> g(f(a)), and its list holds exactly the g with
    that composite, in the order given."""
    rng = random.Random(f"precompose-{ring.label}")
    pool = _small_modules(ring)
    fits = {s: [t for t in pool if t.size**s.size <= 4096] for s in pool}
    triples = [(a, b, e) for a in pool for b in fits[a] for e in fits[b]]
    shared = 0  # groups of more than one map
    for a, b, e in rng.sample(triples, min(25, len(triples))):
        homs = [Homomorphism(b, e, images) for images in _brute_force_homs(b, e)]
        rng.shuffle(homs)
        vias = _brute_force_homs(a, b)
        for images in rng.sample(vias, min(4, len(vias))):
            f = Homomorphism(a, b, images)
            got = precompose(f, homs)
            composites = [tuple(g(f(x)) for x in a.elements()) for g in homs]
            assert set(got) == set(composites), (a, b, e, f)
            for key, maps in got.items():
                assert maps == [g for g, c in zip(homs, composites) if c == key], (a, b, e, f)
            shared += sum(len(maps) > 1 for maps in got.values())
    assert shared


@pytest.mark.parametrize("ring", BRUTE_FORCE_RINGS, ids=lambda r: r.label)
def test_extend_images_matches_brute_force(ring):
    """A key/image list extends iff some R-linear map from the span K of the
    keys agrees with it on the keys, and then it is that map.  It need not
    extend to the whole source: from ``Z/4|1(+)Z/4|4`` to ``Z/4|2(+)C2``,
    2 -> 3 is linear on <2> but no homomorphism sends 2 to 3."""
    rng = random.Random(f"extend-{ring.label}")
    pool = _small_modules(ring)
    pairs = [(s, t) for s in pool for t in pool if t.size**s.size <= 4096]
    for source, target in rng.sample(pairs, min(25, len(pairs))):
        homs = _brute_force_homs(source, target)
        for _ in range(8):
            keys = [rng.randrange(source.size) for _ in range(rng.randrange(4))]
            if rng.random() < 0.5:  # images that extend to the whole source
                h = rng.choice(homs)
                images = [(k, h[k]) for k in keys]
            else:
                images = [(k, rng.randrange(target.size)) for k in keys]
            got = extend_images(source, target, images)
            k_module, inclusion = submodule_as_module(Submodule(source, span(source, keys)))
            index_in_k = {x: i for i, x in enumerate(inclusion.map)}
            agreeing = [
                h
                for h in _brute_force_homs(k_module, target)
                if all(h[index_in_k[k]] == y for k, y in images)
            ]
            if not agreeing:
                assert got is None, (source, target, images)
                continue
            assert len(agreeing) == 1  # K is spanned by the keys
            want = {x: agreeing[0][i] for i, x in enumerate(inclusion.map)}
            assert got == want, (source, target, images)


@pytest.mark.parametrize(
    "images",
    [[(99, 0)], [(1, 99)], [(-1, 0)], [(0, -1)], [(True, 1)], [(1, False)], [(1.0, 1)]],
    ids=repr,
)
def test_extend_images_refuses_bad_pairs(z6, m6, images, monkeypatch):
    monkeypatch.setattr(modules, "derivation_plan", None)  # refused before any plan
    with pytest.raises(DomainError, match="outside the modules$"):
        extend_images(m6, cyclic_zmod_module(z6, 3), images)


@pytest.mark.parametrize("seed", [[-1], [6], [9], [True], [0, True], [2.0], ["1"]], ids=repr)
def test_span_refuses_seeds_outside_the_module(m6, seed):
    """-1 used to be read as element 5 and True as element 1, while 9 and
    2.0 leaked IndexError and TypeError."""
    with pytest.raises(DomainError, match="is not an element of the module$"):
        span(m6, seed)


def test_extend_images_refuses_another_ring(m6, monkeypatch):
    monkeypatch.setattr(modules, "derivation_plan", None)
    with pytest.raises(DomainError, match="^source and target are over different rings$"):
        extend_images(m6, regular_module(make_zmod(4)), [(1, 1)])


def test_derivation_plan_spans_the_module():
    z4 = make_zmod(4)
    m, *_ = direct_sum(regular_module(z4), cyclic_zmod_module(z4, 2))
    gens = generating_set(m)
    plan = derivation_plan(m, gens)
    assert [level.key for level in plan] == list(gens)
    assert plan[-1].members == tuple(m.elements())
    previous = (m.zero,)
    for level in plan:
        assert level.key not in previous
        assert level.members == span(m, previous + (level.key,))
        members = set(level.members)
        assert all(m.add[x][y] in members for x in members for y in members)
        # the conductor generators span {r : r.key in the previous span}
        conductor = [r for r in z4.elements() if m.act[r][level.key] in previous]
        assert level.conducted == tuple(m.act[c][level.key] for c in level.conductor)
        ideal = span(regular_module(z4), level.conductor)
        assert list(ideal) == conductor
        assert level.order_unit == m.additive_order(level.key) % 4
        previous = level.members


def test_derivation_plan_conductor_needs_two_generators():
    """Over Z/2 x| (Z/2)^2 the annihilator of a nonzero nilpotent is the
    maximal ideal, which needs two generators; a unit has conductor 0 and a
    key already in the span has conductor R."""
    ring = build_ring(("trivext", ("zmod", 2), ("dsum", ("regular",), ("regular",))))
    reg = regular_module(ring)
    units = ring.units()
    maximal = tuple(r for r in ring.elements() if r not in units)
    for u in units:
        assert derivation_plan(reg, (u,))[0].conductor == ()
    for x in maximal[1:]:
        level, again = derivation_plan(reg, (x, x))
        assert level.conductor == maximal[1:3]
        assert span(reg, level.conductor) == maximal
        assert level.conducted == (reg.zero, reg.zero)
        assert span(reg, again.conductor) == tuple(ring.elements())
        assert again.acts == again.adds == ()


def test_generating_set_runs_once_per_source(monkeypatch):
    """Hom enumeration takes the source's generating set from the cached
    plan; an equal source under another label is a distinct cache key."""
    z4 = make_zmod(4)
    src = direct_sum(regular_module(z4), cyclic_zmod_module(z4, 2))[0]
    targets = [regular_module(z4), cyclic_zmod_module(z4, 2), src]
    want = [[h.map for h in hom_enumerate(src, t)] for t in targets]
    calls = []
    monkeypatch.setattr(modules, "generating_set", lambda m: calls.append(m) or generating_set(m))
    modules._source_plan.cache_clear()
    assert [[h.map for h in hom_enumerate(src, t)] for t in targets] == want
    assert [h.map for h in hom_enumerate(src, targets[0], cap=512)] == want[0]
    assert calls == [src]
    relabelled = dataclasses.replace(src, label="copy")
    assert [h.map for h in hom_enumerate(relabelled, targets[1])] == want[1]
    assert calls == [src, relabelled]


def test_constructor_caches_return_the_same_module():
    # rings compare by value: a later ring built the same way is equal to
    # the first, so it gets the module built for the first one
    regular_module.cache_clear()
    cyclic_zmod_module.cache_clear()
    z6 = make_zmod(6)
    assert regular_module(z6) is regular_module(z6)
    assert regular_module(z6).ring is z6
    assert regular_module(make_zmod(6)) is regular_module(z6)
    assert cyclic_zmod_module(z6, 3) is cyclic_zmod_module(z6, 3)
    assert cyclic_zmod_module(z6, 3).ring is z6
    assert cyclic_zmod_module(z6, 3) is not cyclic_zmod_module(z6, 2)
    with pytest.raises(DomainError):
        cyclic_zmod_module(z6, 4)


def test_direct_sum_many_records_summands():
    z6 = make_zmod(6)
    mods = [regular_module(z6), cyclic_zmod_module(z6, 2), cyclic_zmod_module(z6, 3)]
    total, injections, projections = direct_sum_many(mods)
    assert total.summands == tuple(mods)
    assert all(inj.target is total for inj in injections)
    assert all(proj.source is total for proj in projections)
    for k, (inj, proj) in enumerate(zip(injections, projections)):
        check_homomorphism(inj)
        check_homomorphism(proj)
        assert compose(proj, inj).map == identity_hom(mods[k]).map
    assert direct_sum_many(mods[:1])[0] is mods[0]


def test_direct_sum_many_shares_the_pair_cache_entry():
    """The first pair of an iterated sum is direct_sum(M, N, caps) under
    that call's own cache key, so the pairwise sum is not rebuilt."""
    m = dataclasses.replace(regular_module(make_zmod(3)), label="pair-key probe")
    direct_sum_many([m, m, m])
    before = direct_sum.cache_info()
    pair = direct_sum(m, m, DEFAULT_CAPS)
    after = direct_sum.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert direct_sum_many([m, m])[0] is pair[0]


def test_hom_enumeration_complete_against_brute_force():
    # every enumerated map is linear, and brute-force map search agrees on a
    # small instance: Z/4 -> Z/4 over Z/4 has exactly 4 maps
    m = regular_module(make_zmod(4))
    homs = hom_enumerate(m, m)
    for h in homs:
        check_homomorphism(h)
    brute = 0
    for images in itertools.product(range(4), repeat=4):
        try:
            check_homomorphism(Homomorphism(m, m, images))
            brute += 1
        except DomainError:
            continue
    assert len(homs) == brute == 4


def test_kernel_image_preimage(m6):
    _, eta = quotient_module(m6, submodule(m6, [0, 3]))
    assert kernel(eta).members == (0, 3)
    f2 = scalar_hom(m6, 2)
    assert image(f2).members == (0, 2, 4)
    assert preimage(f2, submodule(m6, [0, 3])).members == (0, 3)


def test_parent_checks_accept_equal_copies_and_refuse_other_modules(m6):
    """sum, meet, preimage and image compare parents by identity first and
    by value after, so an equal copy of the parent is still accepted."""
    copy = dataclasses.replace(m6)
    assert copy == m6 and copy is not m6
    a, b = submodule(m6, [0, 3]), submodule(copy, [0, 2, 4])
    assert sum_submodules(a, b).members == tuple(range(6))
    assert intersect_submodules(a, b).members == (0,)
    f = scalar_hom(m6, 2)
    assert preimage(f, b).members == tuple(range(6))
    assert image_of_submodule(f, submodule(copy, [0, 3])).members == (0,)
    other = submodule(regular_module(make_zmod(4)), [0, 2])
    with pytest.raises(DomainError, match="different parents"):
        sum_submodules(a, other)
    with pytest.raises(DomainError, match="different parents"):
        intersect_submodules(other, a)
    with pytest.raises(DomainError, match="target of the map"):
        preimage(f, other)
    with pytest.raises(DomainError, match="source of the map"):
        image_of_submodule(f, other)


def test_first_isomorphism_counts(m6):
    for f in hom_enumerate(m6, m6):
        assert image(f).size * kernel(f).size == m6.size


def test_preimage_image_adjunction(m6):
    rng = random.Random(7)
    subs = all_submodules(m6)
    homs = hom_enumerate(m6, m6)
    for _ in range(30):
        f = rng.choice(homs)
        q = rng.choice(subs)
        k = rng.choice(subs)
        assert set(image_of_submodule(f, preimage(f, q)).members) <= set(q.members)
        assert set(k.members) <= set(preimage(f, image_of_submodule(f, k)).members)


def test_annihilator_examples(m6, z6):
    assert annihilator(z6, submodule(m6, [0, 3])).members == (0, 2, 4)
    assert annihilator(z6, submodule(m6, [0, 2, 4])).members == (0, 3)
    assert annihilator(z6, submodule(m6, [0])).members == tuple(range(6))


def test_is_prime_module(z6, m6):
    k, _ = submodule_as_module(submodule(m6, [0, 2, 4]))
    assert is_prime_module(k)
    assert not is_prime_module(m6)
    v, *_ = direct_sum(regular_module(make_zmod(2)), regular_module(make_zmod(2)))
    assert is_prime_module(v)
    with pytest.raises(DomainError):
        is_prime_module(zero_module(z6))


def test_prime_module_cyclic_reduction_matches_lattice():
    # the cyclic-only decision agrees with the full-lattice definition
    m4 = regular_module(make_zmod(4))
    k4, _ = submodule_as_module(submodule(m4, [0, 2]))
    mods = [
        regular_module(make_zmod(6)),
        m4,
        regular_module(make_zmod(9)),
        direct_sum(regular_module(make_zmod(2)), regular_module(make_zmod(2)))[0],
        direct_sum(m4, k4)[0],
    ]
    for m in mods:
        ann_m = annihilator(m.ring, m).members
        full = all(
            annihilator(m.ring, sub).members == ann_m
            for sub in all_submodules(m)
            if not sub.is_zero()
        )
        assert is_prime_module(m) == full


def test_zero_divisors_examples(z6, m6):
    assert zero_divisors_on(z6, m6) == (0, 2, 3, 4)
    assert zero_divisors_on(z6, zero_module(z6)) == ()
    z4 = make_zmod(4)
    assert zero_divisors_on(z4, regular_module(z4)) == (0, 2)


def test_generating_set_irredundant(m6):
    gens = generating_set(m6)
    assert gens == (1,)
    d, *_ = direct_sum(m6, m6)
    gd = generating_set(d)
    assert len(gd) == 2
    assert span(d, gd) == tuple(d.elements())


def test_submodule_as_module_roundtrip(m6):
    k = submodule(m6, [0, 2, 4])
    kmod, incl = submodule_as_module(k)
    check_module_axioms(kmod)
    check_homomorphism(incl)
    assert image(incl).members == k.members


def test_module_axioms_of_constructions(z6, m6):
    check_module_axioms(m6)
    q, _ = quotient_module(m6, submodule(m6, [0, 3]))
    check_module_axioms(q)
    d, *_ = direct_sum(m6, m6)
    check_module_axioms(d)
    check_module_axioms(zero_module(z6))


def _relabelled(x):
    return [
        x,
        dataclasses.replace(x, label=x.label + "'"),
        dataclasses.replace(x, names=tuple(n + "'" for n in x.names)),
    ]


def test_equal_rings_and_modules_hash_equal(monkeypatch):
    """a == b implies hash(a) == hash(b), over corpus rings, modules and
    multiplicative sets, copies under another label or other element names
    (for a set: over such a copy of its ring, or over an equal fresh ring),
    and caps built directly, by ``dataclasses.replace`` and by caps_from_env."""
    built = [build_instance(inst) for inst in generate_corpus(42, Bounds(max_instances=40))]
    rings = list({id(b.ring): b.ring for b in built}.values())
    modules_ = [b.module for b in built]
    for ring in rings:
        modules_.append(regular_module(ring))
        if ring.zmod_n is not None:
            modules_ += [cyclic_zmod_module(ring, d) for d in range(2, ring.zmod_n + 1)
                         if ring.zmod_n % d == 0]
    msets = [
        dataclasses.replace(m, ring=ring)
        for m in {id(b.mset): b.mset for b in built}.values()
        for ring in _relabelled(m.ring) + [dataclasses.replace(m.ring)]
    ]
    monkeypatch.setenv("USMOD_CAPS", "ring=64,hom=5000")
    caps = [
        Caps(), DEFAULT_CAPS, dataclasses.replace(DEFAULT_CAPS), Caps(max_hom=5000),
        dataclasses.replace(DEFAULT_CAPS, max_hom=5000), caps_from_env(),
        caps_from_env(Caps(max_ring=32)),
    ]
    for pool in (
        [y for x in rings for y in _relabelled(x)],
        [y for x in modules_ for y in _relabelled(x)],
        msets,
        caps,
    ):
        for a, b in itertools.product(pool, repeat=2):
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len(set(caps)) == 2  # the defaults, and hom=5000 reached four ways
    z6 = make_zmod(6)
    assert regular_module(z6) != cyclic_zmod_module(z6, 6)
    assert len({regular_module(z6), cyclic_zmod_module(z6, 6)}) == 2


def test_hash_is_computed_once_at_construction(monkeypatch):
    """Once a module and a set are built, hashing them, and an
    all_submodules cache hit, never hash the ring again; each stored hash
    is that of the key the class has always hashed."""
    z6 = dataclasses.replace(make_zmod(6), label="Z/6 (hash once)")
    module, mset = regular_module(z6), mult_set_closure(z6, [4])
    lattice = all_submodules(module)
    want = (
        hash((len(module.add), module.zero, module.label, hash(z6))),
        hash((z6, mset.members, mset.sigma)),
    )
    assert hash(z6) == hash((len(z6.add), z6.zero, z6.one, z6.label))
    assert hash(DEFAULT_CAPS) == hash(dataclasses.astuple(DEFAULT_CAPS))

    def refuse(self):
        raise RuntimeError("the ring was hashed again")

    monkeypatch.setattr(FiniteRing, "__hash__", refuse)
    with pytest.raises(RuntimeError):
        hash(z6)
    assert (hash(module), hash(mset)) == want
    hits = all_submodules.cache_info().hits
    assert all_submodules(module) is lattice
    assert all_submodules.cache_info().hits == hits + 1


def test_copies_keep_equality_and_the_hash():
    z6 = make_zmod(6)
    for x in (z6, regular_module(z6), mult_set_closure(z6, [4]), Caps(max_hom=5000)):
        for y in (copy.copy(x), copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x), x


def test_cached_constructions_keep_the_module_names():
    """Modules with equal tables and label but other element names each get
    a quotient and a submodule named after their own elements."""
    z4 = make_zmod(4)
    tables = direct_sum(regular_module(z4), cyclic_zmod_module(z4, 2))[0]
    for letters in ("abcdefgh", "ABCDEFGH"):
        m = dataclasses.replace(tables, label="M", names=tuple(letters), summands=None)
        sub = Submodule(m, (0, 4))
        quot, eta = quotient_module(m, sub)
        assert quot.label == f"M/{{{letters[0]},{letters[4]}}}"
        for x in m.elements():
            rep = min(y for y in m.elements() if eta(y) == eta(x))
            assert quot.names[eta(x)] == f"[{letters[rep]}]"
        assert eta.source is m
        part, incl = submodule_as_module(sub)
        assert part.names == (letters[0], letters[4])
        assert incl.target is m
