"""Differential tests: the generator-driven closures and the set-based
essential deciders against the pairwise formulations they replaced.

Each reference below is the earlier implementation, kept here verbatim in
substance; the library versions must agree with them on seeded random
instances, down to the counterexample, the witness pair and the refusal
message.
"""
import random

import pytest

from usmod.errors import InvalidMultiplicativeSetError
from usmod.essential import (
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    u_S_complement,
)
from usmod.modules import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    cyclic_zmod_module,
    direct_sum,
    image_of_submodule,
    intersect_submodules,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
    sum_submodules,
)
from usmod.rings import (
    MultiplicativeSet,
    check_mult_set,
    make_product,
    make_trivial_extension,
    make_zmod,
    mult_set_closure,
    unit_mult_set,
)
from usmod.storsion import kills, s_torsion_submodule


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
# intersections built as Submodule tuples


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
        return next((s for s in mset.members if kills(module, s, members)), None)

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


def tuple_complement(k, module, mset):
    """(K', (check1, check2)) with gamma and maximality built from tuples."""
    gamma = [
        n
        for n in all_submodules(module)
        if kills(module, mset.sigma, intersect_submodules(k, n).members)
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
    rng = random.Random(f"span-{ring.label}")
    for label, module in _modules(ring, rng, 64):
        for seed in _seeds(module, rng):
            assert span(module, seed) == pairwise_span(module, seed), (label, seed)
            assert span(module, iter(seed)) == pairwise_span(module, seed), (label, seed)


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
    for label, module in _modules(ring, rng, 24):
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
                assert u_S_complement(k, module, mset) == tuple_complement(k, module, mset), where
