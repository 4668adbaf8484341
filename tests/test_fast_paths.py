"""Differential tests: the generator-driven closures, the mask-scanning
essential deciders and the quotient route read on K's members, the
index-arithmetic table builders, the lattice (closed on coset masks), its
bitmasks and kernel masks, coset and pair-table helpers that rings and
modules share, the table primitives (kernel, kills, compose), the
conductor-bucketed hom search, the extension questions answered by
one lookup in a set of composites (u-S-epi, Baer, the endomorphism
condition, splitting) and the uniform ones asked at sigma alone (the
bounded catalogue test, the factoring of the three-way law) against the
pairwise, set-based, member-set join, composed, checked-replay, per-map
and per-s formulations they replaced.

Each reference below is the earlier implementation, kept here verbatim in
substance; the library versions must agree with them on seeded random
instances, down to the counterexample, the witness pair and the refusal
message.
"""
import dataclasses
import random
from functools import reduce
from operator import or_

import pytest

from usmod.caps import DEFAULT_CAPS, Caps
from usmod.corpus import (
    Bounds,
    BuiltInstance,
    Instance,
    _ring_specs,
    build_instance,
    build_module,
    build_ring,
    generate_corpus,
)
from usmod.errors import DomainError, InvalidMultiplicativeSetError, ResourceExceededError
from usmod.essential import (
    _essential_in_quotient,
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    quotient_characterization,
    u_S_complement,
)
from usmod import essential, laws, modules
from usmod.modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    all_submodules,
    compose,
    cyclic_submodule,
    cyclic_zmod_module,
    direct_sum,
    hom_enumerate,
    image_of_submodule,
    intersect_submodules,
    kernel,
    precompose,
    quotient_module,
    regular_module,
    scalar_hom,
    span,
    submodule_as_module,
    sum_submodules,
    zero_hom,
    zero_module,
)
from usmod.rings import (
    FiniteRing,
    Ideal,
    MultiplicativeSet,
    _cosets,
    _join,
    _lattice,
    _picker,
    all_ideals,
    check_mult_set,
    check_ring_axioms,
    make_product,
    make_trivial_extension,
    make_zmod,
    mult_set_closure,
    quotient_ring,
    unit_mult_set,
)
from usmod.injective import (
    InjectivityReport,
    _default_catalogue,
    bounded_u_S_injective_test,
    endomorphism_condition,
    is_injective_baer,
    replay_refuted,
)
from usmod.laws import HOLDS, LAWS_BY_ID, _factors
from usmod.storsion import (
    cokernel,
    is_u_S_epi,
    is_u_S_iso,
    is_u_S_mono,
    is_u_S_split,
    is_u_S_torsion,
    kills,
    s_torsion_submodule,
)


# ---------------------------------------------------------------------------
# references: the pairwise closures


def pairwise_span(parent, seed):
    """Closure under addition and the action; every pair (x, y) is
    processed when the later of the two is admitted."""
    mem = {parent.zero}
    queue = list(set(seed))
    while queue:
        x = queue.pop()
        if x in mem:
            continue
        mem.add(x)
        for y in list(mem):
            s = parent.add[x][y]
            if s not in mem:
                queue.append(s)
        for r in parent.ring.elements():
            s = parent.act[r][x]
            if s not in mem:
                queue.append(s)
    return tuple(sorted(mem))


def pairwise_mult_set_closure(ring, generators):
    """Closure under products of every pair of members."""
    gens = sorted(set(generators))
    if not gens:
        raise InvalidMultiplicativeSetError("need at least one generator")
    mem = {ring.one}
    queue = list(gens)
    while queue:
        s = queue.pop()
        if s in mem:
            continue
        mem.add(s)
        for t in list(mem):
            st = ring.mul[s][t]
            if st not in mem:
                queue.append(st)
    if ring.zero in mem:
        raise InvalidMultiplicativeSetError(
            f"closure of {{{','.join(ring.name(g) for g in gens)}}} contains 0"
        )
    members = tuple(sorted(mem))
    mset = MultiplicativeSet(ring, members, ring.product(members))
    check_mult_set(mset)
    return mset


# ---------------------------------------------------------------------------
# references: the essential deciders with an |R| scan per (x, s) and
# intersections built as Submodule tuples, killed by a literal loop


def literal_kills(module, s, members):
    for x in members:
        if module.act[s][x] != module.zero:
            return False
    return True


def scan_fast(k, module, mset):
    """(verdict, counterexample_L, witness_s_pair) of the element criterion."""
    torset = s_torsion_submodule(module, mset).member_set()
    kset = k.member_set()
    zero = module.zero
    act = module.act
    for x in module.elements():
        if x in torset:
            continue
        for s in mset.members:
            act_s = act[s]
            if not any(
                act[r][x] in kset and act_s[act[r][x]] != zero
                for r in module.ring.elements()
            ):
                return False, cyclic_submodule(module, x), (s, None)
    return True, None, None


def tuple_essential(k, module):
    """(element verdict, lattice verdict, first lattice counterexample)."""
    kset = k.member_set()
    zero = module.zero
    element_ok = all(
        any(
            module.act[r][x] in kset and module.act[r][x] != zero
            for r in module.ring.elements()
        )
        for x in module.elements()
        if x != zero
    )
    for l in all_submodules(module):
        if not l.is_zero() and intersect_submodules(k, l).is_zero():
            return element_ok, False, l
    return element_ok, True, None


def tuple_oracle(k, module, mset):
    """(verdict, counterexample_L, witness_s_pair) of the lattice oracle."""

    def smallest_killer(members):
        return next((s for s in mset.members if literal_kills(module, s, members)), None)

    best_pair, best_size = None, -1
    for l in all_submodules(module):
        s1 = smallest_killer(intersect_submodules(k, l).members)
        if s1 is None:
            continue
        s2 = smallest_killer(l.members)
        if s2 is None:
            return False, l, (s1, None)
        if l.size > best_size:
            best_size, best_pair = l.size, (s1, s2)
    return True, None, best_pair


def composed_quotient_characterization(k, module, mset):
    """The quotient route with K built as a module and eta composed with
    its inclusion, the composite's kernel taken by ``kernel``."""
    _, incl = submodule_as_module(k)
    for l in all_submodules(module):
        eta = quotient_module(module, l)[1]
        restricted = compose(eta, incl)
        if is_u_S_torsion(kernel(restricted), mset) and not is_u_S_torsion(kernel(eta), mset):
            return False
    return True


def tuple_complement(k, module, mset):
    """(K', (check1, check2)) with gamma and maximality built from tuples."""
    gamma = [
        n
        for n in all_submodules(module)
        if literal_kills(module, mset.sigma, intersect_submodules(k, n).members)
    ]
    maximal = [
        n
        for n in gamma
        if not any(m is not n and set(n.members) < set(m.members) for m in gamma)
    ]
    kp = maximal[0]
    total = sum_submodules(k, kp)
    quot, eta = quotient_module(module, kp)
    check1 = scan_fast(total, module, mset)[0]
    check2 = scan_fast(image_of_submodule(eta, total), quot, mset)[0]
    return kp, (check1, check2)


# ---------------------------------------------------------------------------
# references: the table builders that went through pairs, the found x found
# join loop and one Homomorphism per Hom-table entry


def pairwise_direct_sum(m1, m2, caps=DEFAULT_CAPS, summands=None):
    n1, n2 = m1.size, m2.size
    if n1 * n2 > caps.max_module:
        raise ResourceExceededError(f"direct sum would have {n1 * n2} > {caps.max_module} elements")

    def idx(x, y):
        return x * n2 + y

    pairs = [(x, y) for x in range(n1) for y in range(n2)]
    add = tuple(
        tuple(idx(m1.add[x][u], m2.add[y][v]) for (u, v) in pairs) for (x, y) in pairs
    )
    act = tuple(
        tuple(idx(m1.act[r][x], m2.act[r][y]) for (x, y) in pairs)
        for r in m1.ring.elements()
    )
    out = FiniteModule(
        ring=m1.ring,
        add=add,
        zero=idx(m1.zero, m2.zero),
        act=act,
        label=f"{m1.label}(+){m2.label}",
        names=tuple(f"({m1.name(x)}|{m2.name(y)})" for (x, y) in pairs),
        summands=(m1, m2) if summands is None else summands,
    )
    i1 = Homomorphism(m1, out, tuple(idx(x, m2.zero) for x in range(n1)))
    i2 = Homomorphism(m2, out, tuple(idx(m1.zero, y) for y in range(n2)))
    p1 = Homomorphism(out, m1, tuple(x for (x, y) in pairs))
    p2 = Homomorphism(out, m2, tuple(y for (x, y) in pairs))
    return out, i1, i2, p1, p2


def pairwise_all_submodules(module, caps=DEFAULT_CAPS):
    """Join-closure of the cyclics, every found submodule with every other."""
    add = module.add
    seeds = sorted(
        {cyclic_submodule(module, x).members for x in module.elements()},
        key=lambda t: (len(t), t),
    )
    found = set(seeds)
    queue = list(seeds)
    while queue:
        xs = queue.pop()
        for ys in list(found):
            zs = tuple(sorted({add[x][y] for x in xs for y in ys}))
            if zs not in found:
                if len(found) >= caps.max_lattice:
                    raise ResourceExceededError("submodule lattice exceeds cap")
                found.add(zs)
                queue.append(zs)
    ordered = sorted(found, key=lambda t: (len(t), t))
    return tuple(Submodule(module, mem) for mem in ordered)


def pairwise_sum_lattice(add, act, cap):
    """rings._lattice with each join X + Rg summed over every pair."""
    generator_of = {}
    for x, column in enumerate(zip(*act)):
        generator_of.setdefault(tuple(sorted(set(column))), x)
    cyclics = list(generator_of.items())
    found = set(generator_of)
    queue = list(generator_of)
    while queue:
        xs = queue.pop()
        inside = set(xs)
        for ys, g in cyclics:
            if g in inside:
                continue
            zs = tuple(sorted({add[x][y] for x in xs for y in ys}))
            if zs not in found:
                if cap is not None and len(found) >= cap:
                    raise ResourceExceededError("submodule lattice exceeds cap")
                found.add(zs)
                queue.append(zs)
    return sorted(found, key=lambda t: (len(t), t))


def join_closure_lattice(add, act, cap):
    """rings._lattice with each join X + Rg grown on member sets by
    rings._join, skipping each g already inside X."""
    generator_of = {}
    for x, column in enumerate(zip(*act)):
        generator_of.setdefault(tuple(sorted(set(column))), x)
    cyclics = list(generator_of.items())
    found = set(generator_of)
    queue = list(generator_of)
    while queue:
        xs = queue.pop()
        inside = set(xs)
        plus_x = _picker(xs)
        for ys, g in cyclics:
            if g in inside:
                continue
            reached = set(inside)
            _join(add, plus_x, reached, ys)
            zs = tuple(sorted(reached))
            if zs not in found:
                if cap is not None and len(found) >= cap:
                    raise ResourceExceededError("submodule lattice exceeds cap")
                found.add(zs)
                queue.append(zs)
    return sorted(found, key=lambda t: (len(t), t))


def _add_subgroup(add, group, c):
    out = set(group)
    t = c
    while t not in group:
        out.update(add[x][t] for x in group)
        t = add[t][c]
    return out


def checked_derivation_plan(module, keys):
    """The derivation plan with check lists: per key, the derivations of
    the new span elements, and the (x, a, x+a) and (r, a, r.a) triples of
    an additive generating set A_i that no derivation or earlier level
    covers; a filled map is R-linear on the span iff they all hold."""
    add, act = module.add, module.act
    ring_elements = module.ring.elements()
    span_list = [module.zero]
    in_span = {module.zero}
    additive = []
    levels = []
    for key in keys:
        fresh = key not in in_span
        old = list(span_list)
        old_set = set(old)
        n_old_additive = len(additive)
        acts, adds = [], []
        if fresh:
            multiples = [key]
            in_span.add(key)
            span_list.append(key)
            for r in ring_elements:
                z = act[r][key]
                if z not in in_span:
                    in_span.add(z)
                    span_list.append(z)
                    acts.append((z, r))
                    multiples.append(z)
            for c in multiples:
                for x in old:
                    z = add[x][c]
                    if z not in in_span:
                        in_span.add(z)
                        span_list.append(z)
                        adds.append((z, x, c))
            reached = old_set
            for c in multiples:
                if c not in reached:
                    additive.append(c)
                    reached = _add_subgroup(add, reached, c)
        new_additive = set(additive[n_old_additive:])
        derived_adds = {(x, c) for _, x, c in adds}
        derived_acts = {r for _, r in acts}
        add_checks = [
            (x, a, add[x][a])
            for x in span_list
            for a in additive
            if (x not in old_set or a in new_additive) and (x, a) not in derived_adds
        ]
        act_checks = [
            (r, a, act[r][a])
            for a in additive[n_old_additive:]
            for r in ring_elements
            if not (a == key and r in derived_acts)
        ]
        levels.append((key, fresh, acts, adds, add_checks, act_checks))
    return levels


def checked_replay(level, y, f, target):
    """Fill f along the level with f(key) = y, then test its check lists."""
    key, fresh, acts, adds, add_checks, act_checks = level
    if not fresh:
        return f[key] == y
    add, act = target.add, target.act
    f[key] = y
    for z, r in acts:
        f[z] = act[r][y]
    for z, x, c in adds:
        f[z] = add[f[x]][f[c]]
    for x, a, s in add_checks:
        if f[s] != add[f[x]][f[a]]:
            return False
    for r, a, s in act_checks:
        if f[s] != act[r][f[a]]:
            return False
    return True


def additive_order_hom_enumerate(source, target, cap=None, caps=DEFAULT_CAPS):
    """hom_enumerate with the candidates filtered by additive order only,
    each kept iff the checked replay of its level succeeds."""
    if source.ring != target.ring:
        raise DomainError("source and target are over different rings")
    cap = caps.max_hom if cap is None else cap
    gens = modules.generating_set(source)
    plan = checked_derivation_plan(source, gens)
    candidates = []
    projected = 1
    for g in gens:
        d = source.additive_order(g)
        cand = [y for y in target.elements() if target.int_mul(d, y) == target.zero]
        candidates.append(cand)
        projected *= len(cand)
        if projected > cap:
            raise ResourceExceededError(f"projected hom count {projected} exceeds cap {cap}")
    f = [target.zero] * source.size
    out = []

    def backtrack(i):
        if i == len(plan):
            out.append(Homomorphism(source, target, tuple(f)))
            return
        for y in candidates[i]:
            if checked_replay(plan[i], y, f, target):
                backtrack(i + 1)

    backtrack(0)
    return out


# ---------------------------------------------------------------------------
# references: the ring-side copies of the lattice, coset and pair-table code


def found_joins_all_ideals(ring):
    """Join-closure of the cyclic ideals, every found ideal with every other."""
    seeds = sorted(
        {tuple(sorted({ring.mul[r][a] for r in ring.elements()})) for a in ring.elements()},
        key=lambda t: (len(t), t),
    )
    found = set(seeds)
    queue = list(seeds)
    while queue:
        xs = queue.pop()
        for ys in list(found):
            zs = tuple(sorted({ring.add[x][y] for x in xs for y in ys}))
            if zs not in found:
                found.add(zs)
                queue.append(zs)
    ordered = sorted(found, key=lambda t: (len(t), t))
    return tuple(Ideal(ring, mem) for mem in ordered)


def idx_make_product(r1, r2, caps=DEFAULT_CAPS):
    n1, n2 = r1.size, r2.size
    if n1 * n2 > caps.max_ring:
        raise ResourceExceededError(f"product ring would have {n1 * n2} > {caps.max_ring} elements")

    def idx(a, b):
        return a * n2 + b

    pairs = [(a, b) for a in range(n1) for b in range(n2)]
    add = tuple(
        tuple(idx(r1.add[a][c], r2.add[b][d]) for (c, d) in pairs) for (a, b) in pairs
    )
    mul = tuple(
        tuple(idx(r1.mul[a][c], r2.mul[b][d]) for (c, d) in pairs) for (a, b) in pairs
    )
    ring = FiniteRing(
        add=add,
        mul=mul,
        zero=idx(r1.zero, r2.zero),
        one=idx(r1.one, r2.one),
        label=f"{r1.label}x{r2.label}",
        names=tuple(f"({r1.name(a)},{r2.name(b)})" for (a, b) in pairs),
    )
    check_ring_axioms(ring)
    return ring


def idx_trivial_extension(ring, module):
    n, m = ring.size, module.size

    def idx(a, x):
        return a * m + x

    pairs = [(a, x) for a in range(n) for x in range(m)]
    add = tuple(
        tuple(idx(ring.add[a][b], module.add[x][y]) for (b, y) in pairs) for (a, x) in pairs
    )
    mul = tuple(
        tuple(
            idx(ring.mul[a][b], module.add[module.act[a][y]][module.act[b][x]])
            for (b, y) in pairs
        )
        for (a, x) in pairs
    )
    return FiniteRing(
        add=add,
        mul=mul,
        zero=idx(ring.zero, module.zero),
        one=idx(ring.one, module.zero),
        label=f"{ring.label}*{module.label}",
        names=tuple(f"({ring.name(a)},{module.name(x)})" for (a, x) in pairs),
    )


def coset_loop(add, mem):
    """Minimal coset representatives, sorted, and the projection onto them."""
    rep_of = {}
    reps = []
    for a in range(len(add)):
        if a in rep_of:
            continue
        coset = sorted(add[a][k] for k in mem)
        rep = coset[0]
        reps.append(rep)
        for c in coset:
            rep_of[c] = rep
    reps.sort()
    index_of = {rep: i for i, rep in enumerate(reps)}
    return reps, tuple(index_of[rep_of[a]] for a in range(len(add)))


def coset_loop_quotient_ring(ring, ideal):
    mem = ideal.members
    reps, surj = coset_loop(ring.add, mem)
    out = FiniteRing(
        add=tuple(tuple(surj[ring.add[a][b]] for b in reps) for a in reps),
        mul=tuple(tuple(surj[ring.mul[a][b]] for b in reps) for a in reps),
        zero=surj[ring.zero],
        one=surj[ring.one],
        label=f"{ring.label}/{{{','.join(ring.name(a) for a in mem)}}}",
        names=tuple(f"[{ring.name(rep)}]" for rep in reps),
    )
    return out, surj


def coset_loop_quotient_module(module, sub):
    mem = sub.members
    reps, proj = coset_loop(module.add, mem)
    quot = FiniteModule(
        ring=module.ring,
        add=tuple(tuple(proj[module.add[a][b]] for b in reps) for a in reps),
        zero=proj[module.zero],
        act=tuple(tuple(proj[module.act[r][a]] for a in reps) for r in module.ring.elements()),
        label=f"{module.label}/{{{','.join(module.name(x) for x in mem)}}}",
        names=tuple(f"[{module.name(rep)}]" for rep in reps),
    )
    return quot, Homomorphism(module, quot, proj)


# ---------------------------------------------------------------------------
# seeded instances


def _rings():
    z2, z3, z4 = make_zmod(2), make_zmod(3), make_zmod(4)
    rings = [make_zmod(n) for n in (2, 3, 4, 5, 6, 8, 9, 10, 12, 16)]
    rings += [make_product(z2, z2), make_product(z2, z3), make_product(z2, z4)]
    rings += [make_trivial_extension(z2, regular_module(z2))]
    rings += [make_trivial_extension(z3, regular_module(z3))]
    return rings


RINGS = _rings()


def _modules(ring, rng, max_size):
    """Cyclic modules, direct sums, quotients by a random span and a random
    span as a module, each of at most *max_size* elements."""
    reg = regular_module(ring)
    pool = [("regular", reg)]
    if ring.zmod_n is not None:
        n = ring.zmod_n
        pool += [(f"C{d}", cyclic_zmod_module(ring, d)) for d in range(2, n) if n % d == 0]
    cyclic = [m for _, m in pool]
    for a in cyclic:
        for b in cyclic:
            if a.size * b.size <= max_size:
                pool.append((f"{a.label}(+){b.label}", direct_sum(a, b)[0]))
    for label, base in list(pool):
        if base.size == 1:
            continue
        gens = rng.sample(range(base.size), min(2, base.size))
        sub = Submodule(base, pairwise_span(base, gens[:1]))
        pool.append((f"{label}/R{gens[0]}", quotient_module(base, sub)[0]))
        sub = Submodule(base, pairwise_span(base, gens))
        pool.append((f"R{gens}<{label}", submodule_as_module(sub)[0]))
    return [(label, m) for label, m in pool if m.size <= max_size]


def _seeds(module, rng):
    elements = list(module.elements())
    yield []
    yield [rng.choice(elements)]
    for _ in range(3):
        yield rng.sample(elements, rng.randint(1, min(4, module.size)))
    yield elements


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_span_matches_pairwise_closure(ring):
    """span, sum_submodules of two spans and the greedy generating set
    (each generator the least element outside the span of the earlier
    ones) against the pairwise closure."""
    rng = random.Random(f"span-{ring.label}")
    for label, module in _modules(ring, rng, 64):
        seeds = list(_seeds(module, rng))
        for seed in seeds:
            assert span(module, seed) == pairwise_span(module, seed), (label, seed)
            assert span(module, iter(seed)) == pairwise_span(module, seed), (label, seed)
        for a in seeds:
            for b in seeds:
                total = sum_submodules(Submodule(module, span(module, a)),
                                       Submodule(module, span(module, b)))
                assert total.members == pairwise_span(module, a + b), (label, a, b)
        gens = modules.generating_set(module)
        for i, g in enumerate(gens):
            outside = set(module.elements()).difference(pairwise_span(module, gens[:i]))
            assert g == min(outside), (label, gens)
        assert pairwise_span(module, gens) == tuple(module.elements()), (label, gens)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_plan_levels_derive_each_new_element_once(ring):
    """Each level's key, acts and adds write every element of its span
    outside the previous span exactly once, each from elements already
    written, so _replay's cost is one write per new element; a key already
    in the span (zero, a repeat, any key after a generating set) derives
    nothing."""
    rng = random.Random(f"plan-{ring.label}")
    for label, module in _modules(ring, rng, 64):
        add, act = module.add, module.act
        a, b = rng.choices(range(module.size), k=2)
        keys = (module.zero, a, a, *rng.sample(range(module.size), min(3, module.size)),
                *modules.generating_set(module), b)
        previous = {module.zero}
        for level in modules.derivation_plan(module, keys):
            key = level.key
            if key in previous:
                assert level.acts == level.adds == (), (label, keys, key)
                assert set(level.members) == previous, (label, keys, key)
                continue
            written = [key]
            for z, r in level.acts:
                assert z == act[r][key], (label, keys, key)
                written.append(z)
            for z, x, c in level.adds:
                assert x in previous or x in written, (label, keys, key)
                assert c in previous or c in written, (label, keys, key)
                assert z == add[x][c], (label, keys, key)
                written.append(z)
            assert sorted(written) == sorted(set(level.members) - previous), (label, keys, key)
            previous = set(level.members)
        assert previous == set(module.elements()), (label, keys)


def _closure_outcome(closure, ring, gens):
    try:
        mset = closure(ring, gens)
    except InvalidMultiplicativeSetError as exc:
        return "refused", str(exc)
    return mset.members, mset.sigma


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_mult_set_closure_matches_pairwise_closure(ring):
    rng = random.Random(f"closure-{ring.label}")
    elements = list(ring.elements())
    gen_sets = [[]] + [[a] for a in elements]
    gen_sets += [rng.sample(elements, rng.randint(2, min(4, ring.size))) for _ in range(8)]
    for gens in gen_sets:
        got = _closure_outcome(mult_set_closure, ring, gens)
        assert got == _closure_outcome(pairwise_mult_set_closure, ring, gens), gens


def test_mult_set_closure_refusal_message():
    z12 = make_zmod(12)
    with pytest.raises(InvalidMultiplicativeSetError, match=r"^closure of \{3,6\} contains 0$"):
        mult_set_closure(z12, [6, 3, 6])
    with pytest.raises(InvalidMultiplicativeSetError, match="need at least one generator"):
        mult_set_closure(z12, [])


def _msets(ring, rng):
    out = [unit_mult_set(ring), mult_set_closure(ring, [ring.one])]
    for a in rng.sample(list(ring.elements()), min(4, ring.size)):
        try:
            out.append(mult_set_closure(ring, [a]))
        except InvalidMultiplicativeSetError:
            continue
    return {m.members: m for m in out}.values()


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_essential_deciders_match_tuple_formulations(ring):
    rng = random.Random(f"essential-{ring.label}")
    msets = list(_msets(ring, rng))
    for module in _table_pool(ring, rng, 24):  # rotated copies: zero is not element 0
        label = module.label
        lattice = all_submodules(module)
        subs = lattice if len(lattice) <= 8 else rng.sample(lattice, 8)
        for k in subs:
            ess = is_essential(k, module)
            element_ok, lattice_ok, counterexample = tuple_essential(k, module)
            assert element_ok == lattice_ok == ess.verdict, (label, k)
            assert ess.counterexample_L == counterexample, (label, k)
            for mset in msets:
                where = (label, k, mset.members)
                fast = is_u_S_essential_fast(k, module, mset)
                got = (fast.verdict, fast.counterexample_L, fast.witness_s_pair)
                assert got == scan_fast(k, module, mset), where
                oracle = is_u_S_essential_oracle(k, module, mset)
                got = (oracle.verdict, oracle.counterexample_L, oracle.witness_s_pair)
                assert got == tuple_oracle(k, module, mset), where
                quotient = quotient_characterization(k, module, mset)
                assert quotient == composed_quotient_characterization(k, module, mset), where
                assert u_S_complement(k, module, mset) == tuple_complement(k, module, mset), where


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_quotient_check_matches_built_quotient(ring):
    """The mask check behind u_S_complement's second verdict, on every pair
    K' <= T rather than only on a maximal K' (where the paper's statement
    makes it always true), against the fast decider on the built M/K'."""
    rng = random.Random(f"quotient-check-{ring.label}")
    msets = list(_msets(ring, rng))
    for module in _table_pool(ring, rng, 24):  # rotated copies: zero is not element 0
        lattice = all_submodules(module)
        pairs = [(kp, t) for kp in lattice for t in lattice if set(kp.members) <= set(t.members)]
        for kp, t in pairs if len(pairs) <= 12 else rng.sample(pairs, 12):
            quot, eta = quotient_module(module, kp)
            image = image_of_submodule(eta, t)
            ti, kpi = lattice.index(t), lattice.index(kp)
            for mset in msets:
                got = _essential_in_quotient(lattice, ti, kpi, module.act[mset.sigma])
                assert got == scan_fast(image, quot, mset)[0], (module.label, kp, t, mset.members)


@pytest.mark.parametrize("other", [make_zmod(5), make_zmod(12)], ids=lambda r: r.label)
def test_fast_decider_refuses_a_set_over_another_ring(other):
    """Every u-S-essential entry point refuses S over another ring with one
    text, before any member of S indexes the action table: sigma = 11 of
    Z/12 is out of range over Z/6, and sigma = 4 of Z/5 is in range but
    names a different element."""
    module = dataclasses.replace(regular_module(make_zmod(6)), label="Z/6 (foreign set)")
    k = Submodule(module, tuple(module.elements()))
    mset = mult_set_closure(other, [other.size - 1])
    deciders = (
        is_u_S_essential_fast,
        is_u_S_essential_oracle,
        quotient_characterization,
        u_S_complement,
    )
    for decide in deciders:
        with pytest.raises(DomainError, match="^multiplicative set is over a different ring$"):
            decide(k, module, mset)
    assert "_kernels" not in vars(all_submodules(module))  # no kernel mask was read


# ---------------------------------------------------------------------------
# table builders


def _same_module(got, want):
    """Every field, one by one, so a failure names the field."""
    assert got.ring == want.ring
    assert (got.add, got.act, got.zero) == (want.add, want.act, want.zero)
    assert (got.label, got.names) == (want.label, want.names)
    if want.summands is None:
        assert got.summands is None
    else:
        assert len(got.summands) == len(want.summands)
        assert all(a is b for a, b in zip(got.summands, want.summands))


def _same_hom(got, want):
    assert (got.map, got.source, got.target) == (want.map, want.source, want.target)


def _rotated(module, shift):
    """An isomorphic copy with element x renumbered x + shift (mod |M|), so
    its zero is not element 0."""
    n = module.size
    back = [(x - shift) % n for x in range(n)]
    return FiniteModule(
        ring=module.ring,
        add=tuple(
            tuple((module.add[back[x]][back[y]] + shift) % n for y in range(n))
            for x in range(n)
        ),
        zero=(module.zero + shift) % n,
        act=tuple(tuple((row[back[x]] + shift) % n for x in range(n)) for row in module.act),
        label=f"{module.label}>>{shift}",
        names=tuple(module.names[back[x]] for x in range(n)),
    )


def _table_pool(ring, rng, max_size):
    pool = [m for _, m in _modules(ring, rng, max_size)]
    return pool + [_rotated(m, rng.randrange(1, m.size)) for m in pool if m.size > 1][:4]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_direct_sum_matches_pairwise_tables(ring):
    rng = random.Random(f"direct-sum-{ring.label}")
    pool = _table_pool(ring, rng, 16)
    small = Caps(max_module=24)
    for m1 in pool:
        for m2 in rng.sample(pool, min(4, len(pool))):
            for summands in (None, (m2, m1, m2)):
                try:
                    want = pairwise_direct_sum(m1, m2, small, summands)
                except ResourceExceededError as exc:
                    with pytest.raises(ResourceExceededError, match=f"^{exc}$"):
                        direct_sum(m1, m2, small, summands=summands)
                    continue
                got = direct_sum(m1, m2, small, summands=summands)
                _same_module(got[0], want[0])
                for g, w in zip(got[1:], want[1:]):
                    _same_hom(g, w)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_all_submodules_matches_pairwise_joins(ring):
    rng = random.Random(f"lattice-{ring.label}")
    for label, module in _modules(ring, rng, 32):
        got = [s.members for s in all_submodules(module)]
        assert got == [s.members for s in pairwise_all_submodules(module)], label


def _lattice_outcome(lattice, module, caps):
    try:
        return [s.members for s in lattice(module, caps)]
    except ResourceExceededError as exc:
        return str(exc)


def test_all_submodules_cap_boundary():
    """Refused iff |L| > max(cap, #cyclics): the cyclic seeds are never
    refused, and each further submodule is checked against the cap."""
    z2 = make_zmod(2)
    reg = regular_module(z2)
    v3 = direct_sum(direct_sum(reg, reg)[0], reg)[0]  # (Z/2)^3
    c4 = cyclic_zmod_module(make_zmod(4), 4)
    c4c4 = direct_sum(c4, c4)[0]
    z12 = regular_module(make_zmod(12))  # every ideal is principal
    for module, size, n_cyclic in ((v3, 16, 8), (c4c4, 15, 10), (z12, 6, 6)):
        assert len(all_submodules(module)) == size
        assert len({cyclic_submodule(module, x).members for x in module.elements()}) == n_cyclic
        for cap in range(2, size + 1):
            caps = Caps(max_lattice=cap)
            got = _lattice_outcome(all_submodules, module, caps)
            assert got == _lattice_outcome(pairwise_all_submodules, module, caps), cap
            assert isinstance(got, str) == (size > max(cap, n_cyclic)), cap
    for module, size in ((v3, 16), (c4c4, 15)):
        with pytest.raises(ResourceExceededError, match="^submodule lattice exceeds cap$"):
            all_submodules(module, Caps(max_lattice=size - 1))
        assert len(all_submodules(module, Caps(max_lattice=size))) == size
    # more cyclic submodules than the cap
    assert len(all_submodules(z12, Caps(max_lattice=2))) == 6
    with pytest.raises(ResourceExceededError, match="^submodule lattice exceeds cap$"):
        all_submodules(v3, Caps(max_lattice=4))


# the corpus ring Z/2 x| (Z/2)^2, whose maximal ideal needs two generators,
# is kept out of RINGS: _ring_cases joins RINGS to the corpus rings, where a
# second copy would change the test ids of the first
@pytest.mark.parametrize(
    "ring",
    RINGS + [build_ring(("trivext", ("zmod", 2), ("dsum", ("regular",), ("regular",))))],
    ids=lambda r: r.label,
)
def test_hom_enumerate_matches_additive_order_candidates(ring):
    """One conductor bucket per generator keeps the same maps in the same
    order as additive-order candidates kept by a checked replay, and the
    same refusals word for word."""
    rng = random.Random(f"hom-narrow-{ring.label}")
    pool = _table_pool(ring, rng, 16)
    for source in pool:
        for target in rng.sample(pool, min(4, len(pool))):
            for cap in (64, 4096):
                try:
                    want = additive_order_hom_enumerate(source, target, cap)
                except ResourceExceededError as exc:
                    with pytest.raises(ResourceExceededError, match=f"^{exc}$"):
                        hom_enumerate(source, target, cap)
                    continue
                got = hom_enumerate(source, target, cap)
                assert [h.map for h in got] == [h.map for h in want]
                for g, w in zip(got, want):
                    _same_hom(g, w)


# ---------------------------------------------------------------------------
# helpers shared by rings and modules


CORPUS_RING_SPECS = _ring_specs(Bounds(max_ring=64, composite_cap=64))


def _same_ring(got, want):
    """Every field, including the label and names equality ignores."""
    assert (got.add, got.mul, got.zero, got.one) == (want.add, want.mul, want.zero, want.one)
    assert (got.label, got.names, got.zmod_n) == (want.label, want.names, want.zmod_n)


def _ring_cases():
    return [build_ring(spec) for spec in CORPUS_RING_SPECS] + RINGS


def test_corpus_ring_specs_cover_every_kind():
    assert len(CORPUS_RING_SPECS) == 147
    assert {spec[0] for spec in CORPUS_RING_SPECS} == {"zmod", "product", "trivext"}


@pytest.mark.parametrize("ring", _ring_cases(), ids=lambda r: r.label)
def test_ideals_and_quotient_rings_match_old_loops(ring):
    ideals = all_ideals(ring)
    assert [i.members for i in ideals] == [i.members for i in found_joins_all_ideals(ring)]
    for ideal in ideals[:-1]:  # the last is the whole ring
        got, got_surj = quotient_ring(ring, ideal)
        want, want_surj = coset_loop_quotient_ring(ring, ideal)
        _same_ring(got, want)
        assert got_surj == want_surj


def _lattice_or_refusal(lattice, add, act, cap):
    try:
        return lattice(add, act, cap)
    except ResourceExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("ring", _ring_cases(), ids=lambda r: r.label)
def test_lattice_coset_joins_match_pairwise_sums(ring):
    """The ideals of every ring, and for the rings of RINGS the lattices of
    the module pool and of M + M for its small modules, uncapped and at the
    caps around each size, whose refusals must fall at the same point."""
    tables = [(ring.add, ring.mul)]
    if ring in RINGS:
        pool = _table_pool(ring, random.Random(f"coset-join-{ring.label}"), 32)
        pool += [direct_sum(m, m)[0] for m in pool if m.size <= 6]
        tables += [(m.add, m.act) for m in pool]
    for add, act in tables:
        want = pairwise_sum_lattice(add, act, None)
        assert _lattice(add, act, None) == want
        for cap in {len(want) - 1, len(want) // 2, 1}:
            got = _lattice_or_refusal(_lattice, add, act, cap)
            assert got == _lattice_or_refusal(pairwise_sum_lattice, add, act, cap), cap


LATTICE_CORPORA = {
    "acceptance-seed-42": (42, Bounds(max_ring=36, max_module=64)),
    "decide-search-seed-0": (0, Bounds(max_ring=48, max_module=96)),
}


@pytest.mark.parametrize("seed, bounds", LATTICE_CORPORA.values(), ids=LATTICE_CORPORA)
def test_lattice_matches_join_closure_on_corpus_modules(seed, bounds):
    """Every distinct module of the corpus, M + M for each of at most 8
    elements and the ideals of every corpus ring, uncapped and at the caps
    size - 1, size // 2 and 2, whose refusals must fall at the same point."""
    specs = dict.fromkeys((inst.ring, inst.module) for inst in generate_corpus(seed, bounds))
    corpus_rings = dict.fromkeys(build_ring(ring) for ring, _ in specs)
    pool = [build_module(build_ring(ring), module) for ring, module in specs]
    pool += [direct_sum(m, m)[0] for m in pool if m.size <= 8]
    tables = [(r.add, r.mul) for r in corpus_rings] + [(m.add, m.act) for m in pool]
    for add, act in tables:
        want = join_closure_lattice(add, act, None)
        assert _lattice(add, act, None) == want
        for cap in {len(want) - 1, len(want) // 2, 2}:
            got = _lattice_or_refusal(_lattice, add, act, cap)
            assert got == _lattice_or_refusal(join_closure_lattice, add, act, cap), cap


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_join_depends_only_on_the_coset_of_the_generator(ring):
    """The lemma behind the closure's skip: X + Rg = X + Rg' when g and g'
    lie in one coset of X (each g checked against its coset's smallest
    member, so every pair agrees), and X + Rg is the OR of the masks of the
    cosets y + X over the members y of Rg."""
    rng = random.Random(f"coset-lemma-{ring.label}")
    for module in _table_pool(ring, rng, 24):  # rotated copies: zero is not element 0
        add = module.add
        for x in all_submodules(module):
            reps, proj = _cosets(add, x.members)
            for g in module.elements():
                rg = cyclic_submodule(module, g)
                joined = sum_submodules(x, rg)
                rep = cyclic_submodule(module, reps[proj[g]])
                assert joined == sum_submodules(x, rep), (module.label, x.members, g)
                cosets = (modules._mask(add[y][z] for z in x.members) for y in rg.members)
                assert modules._mask(joined.members) == reduce(or_, cosets), (module.label, g)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_lattice_joins_once_per_coset_holding_a_generator(ring, monkeypatch):
    """For each member X, one join per coset of X, other than X, that holds
    the kept generator (the first element) of some cyclic submodule."""
    joins = []
    monkeypatch.setattr("usmod.rings.reduce", lambda *args: joins.append(args) or reduce(*args))
    rng = random.Random(f"coset-count-{ring.label}")
    for module in _table_pool(ring, rng, 24):
        generator_of = {}
        for g in module.elements():
            generator_of.setdefault(cyclic_submodule(module, g).members, g)
        want = 0
        for x in all_submodules(module):
            proj = _cosets(module.add, x.members)[1]
            want += len({proj[g] for g in generator_of.values()} - {proj[module.zero]})
        joins.clear()
        _lattice(module.add, module.act, None)
        assert len(joins) == want, module.label


def test_products_match_idx_pairs_tables():
    pairs = [(build_ring(s[1]), build_ring(s[2])) for s in CORPUS_RING_SPECS if s[0] == "product"]
    z2, z3, z4 = make_zmod(2), make_zmod(3), make_zmod(4)
    pairs += [(z2, z2), (z2, z3), (z2, z4), (z4, z3), (z3, z2)]
    for r1, r2 in pairs:
        _same_ring(make_product(r1, r2), idx_make_product(r1, r2))
    small = Caps(max_ring=8)
    with pytest.raises(ResourceExceededError, match="^product ring would have 9 > 8 elements$"):
        make_product(z3, z3, small)
    with pytest.raises(ResourceExceededError, match="^product ring would have 9 > 8 elements$"):
        idx_make_product(z3, z3, small)


def test_trivial_extensions_match_idx_pairs_tables():
    cases = []
    for spec in CORPUS_RING_SPECS:
        if spec[0] == "trivext":
            ring = build_ring(spec[1])
            cases.append((ring, build_module(ring, spec[2])))
    for n in (2, 3, 4, 6, 8):
        ring = make_zmod(n)
        cases += [(ring, cyclic_zmod_module(ring, d)) for d in range(2, n + 1) if n % d == 0]
    rng = random.Random("trivial-extension")
    for ring in RINGS[:6]:
        cases += [(ring, _rotated(m, 1)) for _, m in _modules(ring, rng, 8) if m.size > 1]
    for ring, module in cases:
        if ring.size * module.size <= DEFAULT_CAPS.max_ring:
            _same_ring(make_trivial_extension(ring, module), idx_trivial_extension(ring, module))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_quotient_module_matches_old_coset_loop(ring):
    rng = random.Random(f"quotient-{ring.label}")
    for module in _table_pool(ring, rng, 32):
        for sub in all_submodules(module):
            got, got_eta = quotient_module(module, sub)
            want, want_eta = coset_loop_quotient_module(module, sub)
            _same_module(got, want)
            _same_hom(got_eta, want_eta)


# ---------------------------------------------------------------------------
# table primitives and lattice masks against literal loops


def literal_kernel(f):
    out = []
    for x in range(f.source.size):
        if f.map[x] == f.target.zero:
            out.append(x)
    return tuple(out)


def literal_compose(g, f):
    out = []
    for x in range(f.source.size):
        out.append(g.map[f.map[x]])
    return tuple(out)


def literal_mask(members):
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def _member_lists(module, rng):
    """The empty list, one-element lists (zero among them) and random ones."""
    elements = list(module.elements())
    yield []
    yield [module.zero]
    yield [rng.choice(elements)]
    for _ in range(3):
        yield rng.sample(elements, rng.randint(1, module.size))
    yield elements


def _maps_into(module, rng):
    """Scalar maps, the zero map, the map from the zero module, the
    projections onto quotients and inclusions of submodules: maps with
    one-element kernels and sources among them."""
    maps = [scalar_hom(module, r) for r in module.ring.elements()]
    maps += [zero_hom(module, module), zero_hom(zero_module(module.ring), module)]
    lattice = all_submodules(module)
    for sub in rng.sample(lattice, min(3, len(lattice))):
        maps += [quotient_module(module, sub)[1], submodule_as_module(sub)[1]]
    return maps


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_kernel_kills_and_compose_match_literal_loops(ring):
    rng = random.Random(f"primitives-{ring.label}")
    for module in _table_pool(ring, rng, 24):  # rotated copies: zero is not element 0
        for members in _member_lists(module, rng):
            for s in ring.elements():
                assert kills(module, s, members) == literal_kills(module, s, members)
        maps = _maps_into(module, rng)
        for f in maps:
            assert kernel(f).members == literal_kernel(f), f
            for g in maps:
                if f.target == g.source:
                    assert compose(g, f).map == literal_compose(g, f), (g, f)
                else:
                    with pytest.raises(DomainError, match="^maps do not compose$"):
                        compose(g, f)


def test_compose_accepts_an_equal_copy_of_the_middle_module():
    module = regular_module(make_zmod(6))
    copy = dataclasses.replace(module)
    assert copy == module and copy is not module
    f, g = scalar_hom(module, 2), scalar_hom(copy, 3)
    assert compose(g, f).map == literal_compose(g, f) == (0,) * 6


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_lattice_masks_match_literal_masks(ring):
    rng = random.Random(f"masks-{ring.label}")
    for module in _table_pool(ring, rng, 32):  # rotated copies: zero is not element 0
        fresh = all_submodules.__wrapped__(module)
        assert vars(fresh) == {}  # masks are built on first use, not with the lattice
        for r in ring.elements():
            ker = fresh.kernel_mask(r)
            want = literal_mask(x for x in module.elements() if module.act[r][x] == module.zero)
            assert ker == want, (module.label, r)
            assert fresh.kernel_mask(r) is ker
        assert list(vars(fresh)) == ["_kernels"]  # kernel masks build no member mask
        masks = fresh.masks()
        assert masks == tuple(literal_mask(l.members) for l in fresh), module.label
        assert fresh.masks() is masks
        assert fresh == all_submodules(module)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_lattice_projections_match_quotient_maps(ring):
    rng = random.Random(f"projections-{ring.label}")
    for module in _table_pool(ring, rng, 24):  # rotated copies: zero is not element 0
        fresh = all_submodules.__wrapped__(module)
        assert vars(fresh) == {}  # projections are built on first use, not with the lattice
        for i, l in enumerate(fresh):
            proj = fresh.projection(i)
            assert proj == quotient_module(module, l)[1].map, (module.label, l)
            zero = proj[module.zero]
            assert [p == zero for p in proj] == [x in l.members for x in module.elements()]
            assert fresh.projection(i) is proj
        assert list(vars(fresh)) == ["_projections"]  # projections build no mask


def test_quotient_route_builds_no_module_for_k():
    z12 = make_zmod(12)
    module = dataclasses.replace(regular_module(z12), label="Z/12 (quotient route)")
    mset = mult_set_closure(z12, [5])
    before = submodule_as_module.cache_info().misses, quotient_module.cache_info().misses
    for k in all_submodules(module):
        quotient_characterization(k, module, mset)
    after = submodule_as_module.cache_info().misses, quotient_module.cache_info().misses
    assert after == before


def test_complement_builds_no_quotient_module():
    z12, z6 = make_zmod(12), make_zmod(6)
    cyclic = dataclasses.replace(regular_module(z12), label="Z/12 (complement)")
    noncyclic = direct_sum(regular_module(z6), cyclic_zmod_module(z6, 2))[0]
    noncyclic = dataclasses.replace(noncyclic, label="Z/6(+)Z/2 (complement)")
    cases = [(cyclic, mult_set_closure(z12, [g])) for g in (1, 5, 4, 3)]
    cases += [(noncyclic, mult_set_closure(z6, [g])) for g in (1, 4, 2, 3)]
    before = quotient_module.cache_info().misses
    for module, mset in cases:
        for k in all_submodules(module):
            u_S_complement(k, module, mset)
    assert quotient_module.cache_info().misses == before


def test_essential_mono_law_builds_no_quotient_module():
    z12 = make_zmod(12)
    module = dataclasses.replace(regular_module(z12), label="Z/12 (essential-mono law)")
    mset = mult_set_closure(z12, [5])
    law = LAWS_BY_ID["essential-mono-characterization"]
    before = quotient_module.cache_info().misses
    for k in all_submodules(module):
        assert law.fn(BuiltInstance(None, z12, mset, module, k), DEFAULT_CAPS, {})[0] == HOLDS
    assert quotient_module.cache_info().misses == before


def _fresh_lattice(module, monkeypatch, where):
    """A lattice with nothing built on it yet, which *where* (a module that
    imports ``all_submodules``) then reads in place of the cached one."""
    fresh = all_submodules.__wrapped__(module)
    monkeypatch.setattr(where, "all_submodules", lambda m, caps=DEFAULT_CAPS: fresh)
    return fresh


def _projected(fresh):
    """Which members of *fresh* had their projection built."""
    return [p is not None for p in vars(fresh).get("_projections", [None] * len(fresh))]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_eta_routes_read_eta_only_where_sigma_leaves_l_alive(ring, monkeypatch):
    """The quotient route and the essential-mono law skip every L that sigma
    kills: then eta: M -> M/L is a u-S-mono and the implication holds.  On
    K = M both loops visit every L (the route returns True, the law holds),
    so the projections built are exactly those of the L sigma does not
    kill.  Reading eta before the skip changes no verdict; only this count
    shows it."""
    rng = random.Random(f"eta-skip-{ring.label}")
    msets = list(_msets(ring, rng))
    law = LAWS_BY_ID["essential-mono-characterization"]
    for module in _table_pool(ring, rng, 24):  # rotated copies: zero is not element 0
        whole = Submodule(module, tuple(module.elements()))
        for mset in msets:
            where = (module.label, mset.members)
            alive = [
                not literal_kills(module, mset.sigma, l.members) for l in all_submodules(module)
            ]
            fresh = _fresh_lattice(module, monkeypatch, essential)
            assert quotient_characterization(whole, module, mset) is True, where
            assert _projected(fresh) == alive, where
            fresh = _fresh_lattice(module, monkeypatch, laws)
            built = BuiltInstance(None, ring, mset, module, whole)
            assert law.fn(built, DEFAULT_CAPS, {})[0] == HOLDS, where
            assert _projected(fresh) == alive, where


@pytest.mark.parametrize(
    "ring",
    RINGS + [make_trivial_extension(make_zmod(2), direct_sum(*[regular_module(make_zmod(2))] * 2)[0])],
    ids=lambda r: r.label,
)
def test_first_member_containing_two_masks_is_their_sum(ring):
    """The lemma ``u_S_complement`` reads K+K' by: the lattice is ordered by
    size, so for any members a and b the first member whose mask contains
    both masks is the join sum_submodules(a, b)."""
    rng = random.Random(f"first-join-{ring.label}")
    for module in _table_pool(ring, rng, 32):  # rotated copies: zero is not element 0
        lattice = all_submodules(module)
        masks = lattice.masks()
        for a, am in zip(lattice, masks):
            for b, bm in zip(lattice, masks):
                both = am | bm
                first = next(l for l, lm in zip(lattice, masks) if lm & both == both)
                assert first == sum_submodules(a, b), (module.label, a, b)


# ---------------------------------------------------------------------------
# references: extension questions answered map by map and element by element


def cokernel_epi(f, mset):
    return is_u_S_torsion(cokernel(f)[0], mset)


def scan_baer(module, caps=DEFAULT_CAPS):
    ring = module.ring
    reg = regular_module(ring)
    for ideal in all_ideals(ring):
        sub = Submodule(reg, ideal.members)
        ideal_mod, incl = submodule_as_module(sub)
        for h in hom_enumerate(ideal_mod, module, caps=caps):
            extendable = False
            for m in module.elements():
                if all(
                    module.act[incl.map[j]][m] == h.map[j]
                    for j in ideal_mod.elements()
                ):
                    extendable = True
                    break
            if not extendable:
                return InjectivityReport("not-injective", witness=(ideal, h))
    return InjectivityReport("injective", certificate="injective-baer")


def per_s_endomorphism_condition(f, mset, caps=DEFAULT_CAPS, end_cap=None):
    env = f.target
    for alpha in hom_enumerate(env, env, end_cap, caps):
        for s in mset.members:
            act_s = env.act[s]
            if all(act_s[f.map[x]] == alpha.map[f.map[x]] for x in f.source.elements()):
                if not is_u_S_iso(alpha, mset):
                    return False
                break
    return True


def per_s_split(f, mset, caps=DEFAULT_CAPS):
    src = f.source
    retractions = hom_enumerate(f.target, src, caps=caps)
    for s in mset.members:
        s_id = src.act[s]
        for fp in retractions:
            if all(fp.map[f.map[x]] == s_id[x] for x in src.elements()):
                return True, (s, fp)
    return False, None


def _outcome(decide, *args, **kwargs):
    try:
        return decide(*args, **kwargs)
    except ResourceExceededError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_u_S_epi_matches_cokernel_torsion(ring):
    """Every map between small module pairs, under every sampled S."""
    rng = random.Random(f"epi-{ring.label}")
    msets = list(_msets(ring, rng))
    pool = _table_pool(ring, rng, 12)
    seen = set()
    for source in pool:
        for target in rng.sample(pool, min(4, len(pool))):
            for f in hom_enumerate(source, target, cap=512):
                for mset in msets:
                    got = is_u_S_epi(f, mset)
                    assert got == cokernel_epi(f, mset), (f, mset.members)
                    seen.add(got)
    assert seen == {True, False}


def test_u_S_epi_refuses_a_set_over_another_ring():
    module = regular_module(make_zmod(6))
    other = make_zmod(5)
    with pytest.raises(DomainError, match="different ring"):
        is_u_S_epi(scalar_hom(module, 1), mult_set_closure(other, [other.one]))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_baer_scan_matches_per_map_scan(ring):
    """Same verdict and the same first non-extending (ideal, h)."""
    rng = random.Random(f"baer-{ring.label}")
    seen = set()
    for module in _table_pool(ring, rng, 16):
        got = is_injective_baer.__wrapped__(module)
        assert got == scan_baer(module), module.label
        seen.add(got.verdict)
    assert "injective" in seen
    if ring.zmod_n in (4, 8, 9, 12, 16):  # Z/p over Z/p^2 is in the pool
        assert "not-injective" in seen


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_endomorphism_condition_and_split_match_per_s_loops(ring):
    rng = random.Random(f"endo-{ring.label}")
    hom_256 = Caps(max_hom=256)
    msets = list(_msets(ring, rng))
    pool = _table_pool(ring, rng, 12)
    seen = set()
    for source in pool:
        for env in rng.sample(pool, min(3, len(pool))):
            homs = hom_enumerate(source, env, cap=512)
            for f in rng.sample(homs, min(6, len(homs))):
                for mset in msets:
                    where = (f, mset.members)
                    got = _outcome(endomorphism_condition, f, mset, end_cap=256)
                    assert got == _outcome(per_s_endomorphism_condition, f, mset, end_cap=256), where
                    seen.add(got)
                    if is_u_S_mono(f, mset):
                        got = _outcome(is_u_S_split, f, mset, caps=hom_256)
                        assert got == _outcome(per_s_split, f, mset, caps=hom_256), where
    assert {True, False} <= seen


# ---------------------------------------------------------------------------
# references: the uniform extension questions asked once per member of S


def per_s_bounded_test(module, mset, caps=DEFAULT_CAPS, max_entries=48):
    """(verdict, first refuting f, catalogue size) of the catalogue scan
    that looked, per entry, for one s in S working for every h."""
    catalogue = _default_catalogue(module, (), caps, max_entries)
    for f in catalogue:
        source_homs = hom_enumerate(f.source, module, caps=caps)
        target_homs = hom_enumerate(f.target, module, caps=caps)
        composed = {tuple(g.map[y] for y in f.map) for g in target_homs}
        ok = False
        for s in mset.members:
            act_s = module.act[s]
            if all(tuple(act_s[v] for v in h.map) in composed for h in source_homs):
                ok = True
                break
        if not ok:
            return "refuted", f, len(catalogue)
    return "bounded-pass", None, len(catalogue)


def per_s_factors(left, right_homs, via, mset):
    act = left.target.act
    for s in mset.members:
        want = tuple(act[s][v] for v in left.map)
        for g in right_homs:
            if tuple(g.map[v] for v in via.map) == want and is_u_S_mono(g, mset):
                return True
    return False


@pytest.fixture(scope="module")
def corpus_triples():
    """One built instance per distinct (ring, S, module) of the seed-42
    corpus with rings and modules of at most 16 elements."""
    triples = {}
    for inst in generate_corpus(42, Bounds(max_ring=16, max_module=16)):
        triples.setdefault((inst.ring, inst.mset, inst.module), inst)
    return [build_instance(inst) for inst in triples.values()]


def test_bounded_test_at_sigma_matches_per_s_loop(corpus_triples):
    """Same verdict, refuting f, catalogue size and cap refusal."""
    seen = set()
    for b in corpus_triples:
        got = _outcome(bounded_u_S_injective_test, b.module, b.mset)
        if isinstance(got, InjectivityReport):
            f = got.witness[0] if got.verdict == "refuted" else None
            got = (got.verdict, f, got.catalogue_size)
        assert got == _outcome(per_s_bounded_test, b.module, b.mset), b.instance.key()
        seen.add(got[0])
    assert seen == {"bounded-pass", "refuted", "refused"}


def test_each_refutation_fails_for_every_s(corpus_triples):
    """The one h of a refutation has no g with s.h = g.f, for each s in S
    (a literal scan over Hom(B, E)), and the pair replays."""
    refuted = 0
    for b in corpus_triples:
        try:
            report = bounded_u_S_injective_test(b.module, b.mset)
        except ResourceExceededError:
            continue
        if report.verdict != "refuted":
            continue
        f, h = report.witness
        act = b.module.act
        for s in b.mset.members:
            assert not any(
                all(act[s][h.map[a]] == g.map[f.map[a]] for a in f.source.elements())
                for g in hom_enumerate(f.target, b.module)
            ), (b.instance.key(), s)
        assert replay_refuted(b.module, b.mset, report.witness)
        refuted += 1
    assert refuted


def test_factors_at_sigma_matches_per_s_loop(corpus_triples):
    """Every left map and a sample of via maps among M and R, with right
    maps all of Hom grouped by ``precompose``, as the three-way law passes
    them."""
    rng = random.Random("factors")
    seen = set()
    for b in corpus_triples:
        module, mset = b.module, b.mset
        if module.size > 8:
            continue
        pool = [module, regular_module(module.ring)]
        for q in pool:
            for e in pool:
                try:
                    lefts = hom_enumerate(module, q, cap=256)
                    vias = hom_enumerate(module, e, cap=256)
                    right = hom_enumerate(e, q, cap=256)
                except ResourceExceededError:
                    continue
                for via in rng.sample(vias, min(3, len(vias))):
                    composed = precompose(via, right)
                    for left in lefts:
                        got = _factors(left, composed, mset)
                        assert got == per_s_factors(left, right, via, mset), b.instance.key()
                        seen.add(got)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# build_instance resolves K to the cached lattice's own member, not a re-span

LOOKUP_CORPORA = {
    "decide-search-seed-0": (0, Bounds(max_ring=48, max_module=96)),
    "acceptance-seed-42": (42, Bounds(max_ring=36, max_module=64, max_instances=600)),
}


@pytest.mark.parametrize("seed, bounds", LOOKUP_CORPORA.values(), ids=LOOKUP_CORPORA)
def test_built_submodule_is_the_lattice_member(seed, bounds):
    """On every generated instance K equals the span of its generators and
    is the very object the module's cached lattice holds."""
    looked_up = 0
    for inst in generate_corpus(seed, bounds):
        built = build_instance(inst)
        if inst.submodule is None:
            assert built.submodule is None
            continue
        k, module = built.submodule, built.module
        assert k == Submodule(module, span(module, inst.submodule)), inst.key()
        lattice = all_submodules(module, DEFAULT_CAPS)  # the deciders' cache key
        assert lattice[lattice.index(k)] is k, inst.key()
        looked_up += 1
    assert looked_up


def test_built_submodule_falls_back_to_span():
    """Generators that are not a full member list are spanned, and the span
    is still the lattice's member; a module whose lattice is over the caps
    keeps the span as a fresh Submodule."""
    inst = Instance(("zmod", 6), ("units",), ("regular",), (2,), 0, (6, 6))
    built = build_instance(inst)
    lattice = all_submodules(built.module, DEFAULT_CAPS)
    assert built.submodule == Submodule(built.module, (0, 2, 4))
    assert lattice[lattice.index(built.submodule)] is built.submodule

    v3 = ("dsum", ("dsum", ("regular",), ("regular",)), ("regular",))  # (Z/2)^3, 16 submodules
    caps = Caps(max_lattice=4)
    module = build_module(build_ring(("zmod", 2)), v3, caps)
    with pytest.raises(ResourceExceededError):
        all_submodules(module, caps)
    inst = dataclasses.replace(inst, ring=("zmod", 2), module=v3)
    for member in all_submodules(module, DEFAULT_CAPS):
        for gens in (member.members, member.members[-1:]):
            built = build_instance(dataclasses.replace(inst, submodule=gens), caps)
            assert built.submodule.members == span(module, gens)
            assert built.submodule is not member
