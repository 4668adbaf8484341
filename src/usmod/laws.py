"""The law registry: one executable check per verified statement.

Every law evaluates both sides of its statement independently on a built
instance and returns holds / violated / skipped-resource /
skipped-inapplicable.  Violations carry a self-contained witness payload
that replays from the serialized instance alone; resource exhaustion is
always a skip, never a verdict.

Each statement is written here and nowhere else: ``evaluate`` checks its
hypotheses, each stated once in ``GUARDS``, then its law evaluates both
sides with the deciders and constructions of the library layers.

Law ids are descriptive (what the law checks), listed in docs/laws.md.
Laws whose statements quantify over all modules or all maps are registered
as bounded laws: they state their pool in the result detail and claim
nothing beyond it.
"""
from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .corpus import BuiltInstance, Instance, _fields, build_instance
from .errors import ConfigError, ResourceExceededError
from .essential import (
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    is_u_p_essential,
    quotient_characterization,
    u_S_complement,
)
from .injective import (
    bounded_u_S_injective_test,
    certify_u_S_injective,
    check_u_S_envelope,
    check_u_S_preenvelope,
    construct_u_S_envelope,
    endomorphism_condition,
    injective_envelope_zmod,
    is_injective_baer,
    replay_refuted,
    u_S_injectivity_certificate,
)
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    add_homs,
    all_submodules,
    compose,
    direct_sum,
    direct_sum_many,
    hom_enumerate,
    image,
    image_of_submodule,
    intersect_submodules,
    is_prime_module,
    precompose,
    preimage,
    scalar_hom,
    submodule_as_module,
    sum_submodules,
    zero_divisors_on,
    zero_hom,
)
from .rings import is_regular_set, is_u_S_noetherian, mult_set_closure, spectrum
from .storsion import (
    find_u_S_isomorphism,
    is_u_S_iso,
    is_u_S_mono,
    is_u_S_torsion,
    kills,
    s_torsion_submodule,
    smallest_killer,
)

HOLDS = "holds"
VIOLATED = "violated"
SKIP_RESOURCE = "skipped-resource"
SKIP_INAPPLICABLE = "skipped-inapplicable"

Outcome = tuple[str, Optional[dict], str]  # verdict, witness payload, detail
Fixtures = dict[str, object]  # guard name -> fixture value, None when the guard fails


@dataclass(frozen=True)
class Law:
    law_id: str
    description: str
    bounded: bool  # quantifies over an explicit finite pool rather than everything
    scope: str  # "instance" (needs the submodule) or "module"
    max_module: int  # size budget; larger instances are skipped-resource
    fn: Callable[[BuiltInstance, Caps, Fixtures], Outcome]
    needs: tuple[str, ...] = ()  # guard names, checked in order before fn runs


@dataclass(frozen=True)
class LawResult:
    law_id: str
    instance: Instance
    verdict: str
    witness: Optional[dict]
    wall_time: float
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "law_id": self.law_id,
            "instance": self.instance.to_json(),
            "verdict": self.verdict,
            "witness": self.witness,
            "wall_time": round(self.wall_time, 6),
            "detail": self.detail,
        }


def _members(sub: Submodule) -> list[int]:
    return list(sub.members)


# ---------------------------------------------------------------------------
# derived finite-S lemmas


def law_sigma_shortcut(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, mset = b.module, b.mset
    by_scan = {
        x
        for x in module.elements()
        if any(module.act[s][x] == module.zero for s in mset.members)
    }
    by_sigma = s_torsion_submodule(module, mset).member_set()
    if by_scan != by_sigma:
        return VIOLATED, {"by_scan": sorted(by_scan), "by_sigma": sorted(by_sigma)}, ""
    lattice = all_submodules(module, caps)
    for sub in lattice:
        uniform = smallest_killer(module, mset, sub.members) is not None
        sigma_kills = kills(module, mset.sigma, sub.members)
        if uniform != sigma_kills:
            return VIOLATED, {"submodule": _members(sub)}, ""
    return HOLDS, None, f"lattice of {len(lattice)} checked"


def law_torsion_submodule_uniform(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    tor = s_torsion_submodule(b.module, b.mset)
    if not is_u_S_torsion(tor, b.mset):
        return VIOLATED, {"torsion_submodule": _members(tor)}, ""
    s = smallest_killer(b.module, b.mset, tor.members)
    return HOLDS, None, f"witness {b.ring.name(s)}"


def law_uniform_noetherian(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    ok, s = is_u_S_noetherian(b.ring, b.mset)
    if not ok:
        return VIOLATED, {}, ""
    return HOLDS, None, f"witness {b.ring.name(s)}"


# ---------------------------------------------------------------------------
# essential-submodule laws


def law_definition_via_torsion(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    oracle = is_u_S_essential_oracle(k, module, mset, caps).verdict
    literal = True
    for l in all_submodules(module, caps):
        meet = intersect_submodules(k, l)
        if smallest_killer(module, mset, meet.members) is not None:
            if smallest_killer(module, mset, l.members) is None:
                literal = False
                break
    if oracle != literal:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_element_criterion(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    fast = is_u_S_essential_fast(k, module, mset).verdict
    oracle = is_u_S_essential_oracle(k, module, mset, caps).verdict
    qc = quotient_characterization(k, module, mset, caps)
    if not (fast == oracle == qc):
        return (
            VIOLATED,
            {"submodule": _members(k), "fast": fast, "oracle": oracle, "quotient": qc},
            "",
        )
    return HOLDS, None, f"verdict {fast}"


def law_essential_element_criterion(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    k, module = b.submodule, b.module
    s1 = mult_set_closure(b.ring, [b.ring.one])
    ess = is_essential(k, module, caps).verdict
    via_us = is_u_S_essential_fast(k, module, s1).verdict
    if ess != via_us:
        return VIOLATED, {"submodule": _members(k), "essential": ess, "s1": via_us}, ""
    return HOLDS, None, ""


def law_regular_set_degeneration(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    if is_u_S_essential_fast(k, module, mset).verdict != is_essential(k, module, caps).verdict:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_torsion_ambient(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, mset = b.module, b.mset
    for sub in all_submodules(module, caps):
        if not is_u_S_essential_fast(sub, module, mset).verdict:
            return VIOLATED, {"submodule": _members(sub)}, ""
    return HOLDS, None, ""


def law_max_ideal_upgrade(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    k, module = b.submodule, b.module
    all_max = all(is_u_p_essential(k, module, m) for m in spectrum(b.ring)[1])
    if all_max and not is_essential(k, module, caps).verdict:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, "hypothesis held" if all_max else "vacuous"


def law_prime_upgrade(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, k, mset = b.module, b.submodule, b.mset
    if not is_essential(k, module, caps).verdict:
        return SKIP_INAPPLICABLE, None, "submodule is not essential"
    if not is_u_S_essential_fast(k, module, mset).verdict:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_prime_spectrum_equivalence(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, k = b.module, b.submodule
    primes, maximals = spectrum(b.ring)
    all_max = all(is_u_p_essential(k, module, m) for m in maximals)
    essential = is_essential(k, module, caps).verdict
    all_primes = all(is_u_p_essential(k, module, p) for p in primes)
    if not essential == all_primes == all_max:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_transitivity_meet(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """Chain: K in M iff K in N and N in M, for every N between K and M.
    Meet: H meet K in M iff H and K are, for every H.  The chain does not
    involve H and the meet does not involve N, so each is checked once per
    N or per H; together they cover every (N, H) pair."""
    k, module, mset = b.submodule, b.module, b.mset
    lattice = all_submodules(module, caps)
    kset = set(k.members)
    overs = [n for n in lattice if kset <= set(n.members)]
    k_essential = is_u_S_essential_fast(k, module, mset).verdict
    for n in overs:
        n_mod, incl = submodule_as_module(n)
        k_in_n = preimage(incl, k)
        through_n = (
            is_u_S_essential_fast(k_in_n, n_mod, mset).verdict
            and is_u_S_essential_fast(n, module, mset).verdict
        )
        if k_essential != through_n:
            return VIOLATED, {"K": _members(k), "N": _members(n), "part": "chain"}, ""
    for h in lattice:
        meet_essential = is_u_S_essential_fast(intersect_submodules(h, k), module, mset).verdict
        if meet_essential != (is_u_S_essential_fast(h, module, mset).verdict and k_essential):
            return VIOLATED, {"K": _members(k), "H": _members(h), "part": "meet"}, ""
    return HOLDS, None, f"{len(overs) * len(lattice)} (N,H) pairs"


def law_transport(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """Preimages of u-S-essential submodules along every endomorphism, and
    their images along u-S-monic ones (inside f(M)), are u-S-essential."""
    module, mset = b.module, b.mset
    try:
        endos = hom_enumerate(module, module, cap=96, caps=caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "endomorphism enumeration over budget"
    lattice = all_submodules(module, caps)
    essential_subs = [q for q in lattice if is_u_S_essential_fast(q, module, mset).verdict]
    for f in endos:
        for q in essential_subs:
            if not is_u_S_essential_fast(preimage(f, q), module, mset).verdict:
                return VIOLATED, {"Q": _members(q), "map": list(f.map), "part": "preimage"}, ""
        if is_u_S_mono(f, mset):
            img_mod, incl = submodule_as_module(image(f))
            for k in essential_subs:
                fk = preimage(incl, image_of_submodule(f, k))
                if not is_u_S_essential_fast(fk, img_mod, mset).verdict:
                    return VIOLATED, {"K": _members(k), "map": list(f.map), "part": "image"}, ""
    return HOLDS, None, f"{len(endos)} maps x {len(essential_subs)} essential submodules"


def law_direct_sum_pair(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """K1+K2 is u-S-essential in M+M iff K1 and K2 are in M: the oracle on
    the sum against the fast decider on the components."""
    module, mset, k = b.module, b.mset, b.submodule
    lattice = all_submodules(module, caps)
    partner = lattice[len(lattice) // 2]
    total, i1, i2, _, _ = direct_sum(module, module, caps)
    for k2 in (k, partner):
        ksum = sum_submodules(image_of_submodule(i1, k), image_of_submodule(i2, k2))
        on_sum = is_u_S_essential_oracle(ksum, total, mset, caps).verdict
        on_components = (
            is_u_S_essential_fast(k, module, mset).verdict
            and is_u_S_essential_fast(k2, module, mset).verdict
        )
        if on_sum != on_components:
            return VIOLATED, {"K1": _members(k), "K2": _members(k2)}, ""
    return HOLDS, None, ""


def law_direct_sum_many(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, mset, k = b.module, b.mset, b.submodule
    total, _, projections = direct_sum_many([module, module, module], caps)
    kset = set(k.members)
    members = [x for x in total.elements() if all(proj.map[x] in kset for proj in projections)]
    ksum = Submodule(total, tuple(sorted(members)))
    component = is_u_S_essential_fast(k, module, mset).verdict
    if not component:
        return SKIP_INAPPLICABLE, None, "component is not u-S-essential"
    if not is_u_S_torsion(s_torsion_submodule(total, mset), mset):
        return VIOLATED, {"part": "hypothesis"}, ""
    if not is_u_S_essential_fast(ksum, total, mset).verdict:
        return VIOLATED, {"K": _members(k)}, ""
    return HOLDS, None, "3-fold sum"


def law_complement(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    kp, checks = u_S_complement(b.submodule, b.module, b.mset, caps)
    if checks != (True, True):
        return VIOLATED, {"K": _members(b.submodule), "Kp": _members(kp), "checks": checks}, ""
    return HOLDS, None, f"complement size {kp.size}"


def law_inclusion_characterization(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """K is u-S-essential iff its inclusion is a u-S-essential mono: a
    u-S-monomorphism whose image is u-S-essential in the target."""
    k, module, mset = b.submodule, b.module, b.mset
    oracle = is_u_S_essential_oracle(k, module, mset, caps).verdict
    _, incl = submodule_as_module(k)
    via_mono = is_u_S_mono(incl, mset) and is_u_S_essential_fast(image(incl), module, mset).verdict
    if oracle != via_mono:
        return VIOLATED, {"K": _members(k), "oracle": oracle, "mono": via_mono}, ""
    return HOLDS, None, ""


def law_essential_mono_characterization(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """A u-S-mono f into M is u-S-essential iff, for every L, eta.f being a
    u-S-mono forces eta: M -> M/L to be one.  eta is the lattice's
    ``projection`` of L and sends y to zero iff proj[y] == proj[zero], so
    the kernel of eta.f is read off it, and the kernel of eta is L itself:
    no quotient module is built and eta is composed with no map.  An L that
    sigma kills (one AND of its mask with sigma's kernel mask) makes eta a
    u-S-mono, so it is skipped before its projection is read."""
    module, mset, k = b.module, b.mset, b.submodule
    _, incl = submodule_as_module(k)
    candidates: list[Homomorphism] = [incl]
    for s in mset.members[-1:]:
        f = compose(scalar_hom(module, s), incl)
        if is_u_S_mono(f, mset):
            candidates.append(f)
    lattice = all_submodules(module, caps)
    killed = lattice.kernel_mask(mset.sigma)
    for f in candidates:
        lhs = is_u_S_essential_fast(image(f), module, mset).verdict  # f is a u-S-mono
        rhs = True
        for i, lm in enumerate(lattice.masks()):
            if lm & killed == lm:
                continue  # sigma kills L, so eta is a u-S-mono
            proj = lattice.projection(i)
            zero = proj[module.zero]
            composite_kernel = tuple(x for x, y in enumerate(f.map) if proj[y] == zero)
            if is_u_S_torsion(Submodule(f.source, composite_kernel), mset):
                rhs = False
                break
        if lhs != rhs:
            return VIOLATED, {"map": list(f.map), "lhs": lhs, "rhs": rhs}, ""
    return HOLDS, None, f"{len(candidates)} maps against {len(lattice)} quotients"


def law_mono_composition(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """Composites of u-S-monos r.x are u-S-monos.  Every composite is an
    endomorphism of M, so within one call its map alone fixes the verdict:
    each distinct composite (at most |R| of them) is decided once.  The
    composite of r.x and then t.x is the map of tr (the module axiom
    (tr)x = t(rx)), so it is built once per ring product."""
    module, mset, mul = b.module, b.mset, b.ring.mul
    monos = []
    for r in range(b.ring.size):
        f = scalar_hom(module, r)
        if is_u_S_mono(f, mset):
            monos.append((r, f))
    composite_of: dict[int, Homomorphism] = {}
    decided: dict[tuple[int, ...], bool] = {}
    for r, f in monos:
        for t, g in monos:
            tr = mul[t][r]
            if tr not in composite_of:
                composite_of[tr] = compose(g, f)
            gf = composite_of[tr]
            if gf.map not in decided:
                decided[gf.map] = is_u_S_mono(gf, mset)
            if not decided[gf.map]:
                return VIOLATED, {"f": list(f.map), "g": list(g.map)}, ""
    return HOLDS, None, f"{len(monos)}^2 compositions"


def law_twisted_transfer(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """For the inclusion f of K, a u-S-isomorphism phi of M and g = phi.f a
    u-S-monomorphism: f is a u-S-essential mono iff g is.  phi ranges over
    the scalar maps by members of S."""
    module, mset, k = b.module, b.mset, b.submodule
    _, incl = submodule_as_module(k)
    incl_essential = is_u_S_essential_fast(k, module, mset).verdict  # image(incl) is K
    checked = 0
    for s in mset.members:
        phi = scalar_hom(module, s)
        g = compose(phi, incl)
        if not (is_u_S_iso(phi, mset) and is_u_S_mono(g, mset)):
            continue
        checked += 1
        if incl_essential != is_u_S_essential_fast(image(g), module, mset).verdict:
            return VIOLATED, {"K": _members(k), "s": s}, ""
    if checked == 0:
        return SKIP_INAPPLICABLE, None, "no composable u-S-monomorphism"
    return HOLDS, None, f"{checked} scalar twists"


# ---------------------------------------------------------------------------
# envelope laws (bounded pools)


def law_envelope_essential_image(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    cand = fx["envelope"]
    f = cand.map
    try:
        definitional = endomorphism_condition(f, b.mset, caps, end_cap=2048)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "endomorphism enumeration skipped"
    if definitional != cand.essential_verdict.verdict:
        return VIOLATED, {"map": list(f.map)}, ""
    if not cand.essential_verdict.verdict:
        return VIOLATED, {"map": list(f.map), "part": "constructed-map-not-envelope"}, ""
    return HOLDS, None, f"certificate {cand.e_certificate}"


def law_preenvelope_characterization(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, mset = b.module, b.mset
    env_map = fx["envelope"].map
    env = env_map.target
    pool = [module, env]
    try:
        checked = 0
        for a2 in pool:
            if not u_S_injectivity_certificate(a2, mset, caps):
                continue
            # Hom(i, A): Hom(E, A) -> Hom(M, A) is u-S-epi iff sigma.h is
            # some g . i for every h: M -> A
            homs_e = hom_enumerate(env, a2, cap=512, caps=caps)
            homs_m = hom_enumerate(module, a2, cap=512, caps=caps)
            restricted = precompose(env_map, homs_e)
            act_sigma = a2.act[mset.sigma]
            if not all(tuple(map(act_sigma.__getitem__, h.map)) in restricted for h in homs_m):
                return VIOLATED, {"pool_module": a2.label}, ""
            checked += 1
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "hom module over budget"
    # negative side: unless the module is uniformly killed (which makes every
    # kernel torsion), the zero map into the envelope is not a preenvelope
    if not is_u_S_torsion(module, mset):
        if check_u_S_preenvelope(zero_hom(module, env), mset, caps).holds:
            return VIOLATED, {"part": "zero-map-accepted"}, ""
    return HOLDS, None, f"pool of {checked} certified targets"


def law_envelope_uniqueness(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, mset = b.module, b.mset
    first = fx["envelope"].map
    second: Optional[Homomorphism] = None
    if b.ring.zmod_n is not None:
        try:
            classical = injective_envelope_zmod(module, caps)
            if check_u_S_envelope(classical, mset, caps).essential_verdict.verdict:
                second = classical
        except ResourceExceededError:
            second = None
    if second is None:
        return SKIP_INAPPLICABLE, None, "only one envelope available"
    try:
        iso = find_u_S_isomorphism(first.target, second.target, mset, caps=caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "isomorphism search over budget"
    if iso is None:
        return VIOLATED, {"part": "no-isomorphism"}, ""
    return HOLDS, None, ""


def law_preenvelope_summand(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """For the envelope f: M -> E and the preenvelope g: M -> E + tor_S(E),
    the target of g is u-S-isomorphic to E + B for a submodule B of it."""
    mset = b.mset
    f = fx["envelope"].map
    env = f.target
    tor = s_torsion_submodule(env, mset)
    t_mod, _ = submodule_as_module(tor)
    if env.size * t_mod.size > caps.max_module:
        return SKIP_RESOURCE, None, "preenvelope target exceeds the cap"
    bigger, i1, *_ = direct_sum(env, t_mod, caps)
    g = compose(i1, f)
    if not check_u_S_preenvelope(g, mset, caps).holds:
        return VIOLATED, {"part": "sum-not-preenvelope"}, ""
    try:
        found = _complement_of_summand(env, bigger, mset, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "summand search over budget"
    if found is None:
        return VIOLATED, {"part": "no-summand"}, ""
    return HOLDS, None, f"B of size {found.size}"


def _complement_of_summand(
    env: FiniteModule, over: FiniteModule, mset, caps: Caps
) -> Optional[Submodule]:
    """The first submodule B of *over* with over u-S-isomorphic to env + B,
    or None when every search completed without one.  Size-matching B come
    first: a genuine internal decomposition beats a degenerate one reached
    through a non-bijective u-S-isomorphism."""
    candidates = sorted(
        all_submodules(over, caps),
        key=lambda sub: (env.size * sub.size != over.size, sub.size, sub.members),
    )
    for b_sub in candidates:
        if env.size * b_sub.size > caps.max_module:
            continue
        total, *_ = direct_sum(env, submodule_as_module(b_sub)[0], caps)
        if find_u_S_isomorphism(over, total, mset, caps=caps) is not None:
            return b_sub
    return None


def _factors(
    left: Homomorphism, composed: dict[tuple[int, ...], list[Homomorphism]], mset
) -> bool:
    """Some u-S-monic g and s in S have s.left = g.via, where *composed* is
    ``precompose(via, right_homs)``.

    Asked at sigma = t.s alone: right_homs is all of Hom, so it holds t.g
    along with g, and t.g is u-S-monic too (s'.t kills its kernel when s'
    kills g's)."""
    want = tuple(map(left.target.act[mset.sigma].__getitem__, left.map))
    return any(is_u_S_mono(g, mset) for g in composed.get(want, ()))


def law_envelope_three_way(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """Over a pool of modules, three characterizations of the constructed
    i: M -> E agree: (1) i is an envelope by the essential-image test;
    (2) E is certified, i is a u-S-mono and every u-S-mono into a certified
    pool module factors through i up to some s; (3) i is a u-S-essential
    mono and i factors, up to some s, through every u-S-essential mono out
    of M into a pool module."""
    module, mset = b.module, b.mset
    cand = fx["envelope"]
    i = cand.map
    env = i.target
    pool = [module, env]
    tor = s_torsion_submodule(env, mset)
    if 1 < tor.size < env.size:
        pool.append(submodule_as_module(tor)[0])
    # the construction verified that i is a u-S-mono into a certified
    # u-S-injective E, so (2) starts true and (3) from its essential verdict
    injective_factoring = True
    essential_factoring = cand.essential_verdict.verdict
    try:
        for q in pool:
            if not injective_factoring:
                break
            if not u_S_injectivity_certificate(q, mset, caps):
                continue
            try:
                homs_mq = hom_enumerate(module, q, caps=caps)
                homs_eq = hom_enumerate(env, q, caps=caps)
            except ResourceExceededError:
                continue
            through_i = precompose(i, homs_eq)
            injective_factoring = all(
                _factors(fm, through_i, mset) for fm in homs_mq if is_u_S_mono(fm, mset)
            )
        for n_mod in pool:
            if not essential_factoring:
                break
            try:
                homs_mn = hom_enumerate(module, n_mod, caps=caps)
                homs_ne = hom_enumerate(n_mod, env, caps=caps)
            except ResourceExceededError:
                continue
            essential_factoring = all(
                _factors(i, precompose(fm, homs_ne), mset)
                for fm in homs_mn
                if is_u_S_mono(fm, mset)
                and is_u_S_essential_fast(image(fm), n_mod, mset).verdict
            )
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "pool evaluation over budget"
    if not cand.essential_verdict.verdict == injective_factoring == essential_factoring:
        return (
            VIOLATED,
            {
                "envelope": cand.essential_verdict.verdict,
                "injective_factoring": injective_factoring,
                "essential_factoring": essential_factoring,
            },
            "",
        )
    return HOLDS, None, f"pool of {len(pool)}"


def law_envelope_properties(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """For the constructed envelope E of M: (1) M is u-S-injective iff
    u-S-isomorphic to E, read through the three-tier certification (a
    certificate demands the isomorphism, a refutation forbids it, a bounded
    verdict decides nothing); (2) the envelope of every u-S-essential
    submodule is u-S-isomorphic to E; (3) E, certified by the construction,
    is u-S-isomorphic to E + B for one of its submodules B."""
    module, mset = b.module, b.mset
    env = fx["envelope"].map.target
    certification = certify_u_S_injective(module, mset, caps)
    iso = find_u_S_isomorphism(module, env, mset, caps=caps) is not None
    if (certification.certified and not iso) or (certification.verdict == "refuted" and iso):
        return VIOLATED, {"part": "self-injective-iff-iso"}, ""
    for sub in all_submodules(module, caps):
        if sub.is_whole() or sub.is_zero():
            continue
        if not is_u_S_essential_fast(sub, module, mset).verdict:
            continue
        sub_env = construct_u_S_envelope(submodule_as_module(sub)[0], mset, caps)
        if sub_env is not None and find_u_S_isomorphism(
            sub_env.map.target, env, mset, caps=caps
        ) is None:
            return VIOLATED, {"part": "essential-submodule-envelope"}, ""
    if _complement_of_summand(env, env, mset, caps) is None:
        return VIOLATED, {"part": "overmodule-decomposition"}, ""
    return HOLDS, None, "" if certification.certified else "certificate bounded"


def _sum_map(envelopes: Sequence[Homomorphism], caps: Caps) -> Homomorphism:
    """The direct sum of the maps, from the sum of their sources to the sum
    of their targets."""
    msum, _, src_proj = direct_sum_many([f.source for f in envelopes], caps)
    esum, dst_inj, _ = direct_sum_many([f.target for f in envelopes], caps)
    total = zero_hom(msum, esum)
    for f, proj, inj in zip(envelopes, src_proj, dst_inj):
        total = add_homs(total, compose(inj, compose(f, proj)))
    return total


def law_envelope_direct_sum(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """The sum f+f of the constructed envelope f is an envelope of M+M, and
    its target is u-S-isomorphic to the envelope constructed for M+M."""
    mset = b.mset
    f = fx["envelope"].map
    if f.target.size * f.target.size > caps.max_module:
        return SKIP_RESOURCE, None, "envelope sum exceeds the module cap"
    try:
        total = _sum_map([f, f], caps)
        if not check_u_S_envelope(total, mset, caps).essential_verdict.verdict:
            return VIOLATED, {"part": "sum-map"}, ""
        direct = construct_u_S_envelope(total.source, mset, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "sum evaluation over budget"
    with suppress(ResourceExceededError):  # a search over budget leaves the match open
        if direct is not None and find_u_S_isomorphism(
            direct.map.target, total.target, mset, cap=min(512, caps.max_hom), caps=caps
        ) is None:
            return VIOLATED, {"part": "direct-construction-mismatch"}, ""
    return HOLDS, None, ""


def law_prime_classical_envelope_sum(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    """For a prime module over Z/n, a regular S and a uniformly Noetherian
    ring, the sum i+i of the classical hull i is an envelope of M+M."""
    module, mset = b.module, b.mset
    try:
        i = injective_envelope_zmod(module, caps)
        if i.target.size * i.target.size > caps.max_module:
            return SKIP_RESOURCE, None, "envelope sum exceeds the module cap"
        if not check_u_S_envelope(_sum_map([i, i], caps), mset, caps).essential_verdict.verdict:
            return VIOLATED, {"part": "sum-map"}, ""
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "construction over budget"
    return HOLDS, None, f"noetherian witness {fx['noetherian']}"


def law_uniform_extension_bounded(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    module, mset = b.module, b.mset
    certificate = u_S_injectivity_certificate(module, mset, caps)
    try:
        bounded = bounded_u_S_injective_test(module, mset, caps, max_entries=24)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "catalogue scan over budget"
    if certificate and bounded.verdict == "refuted":
        return VIOLATED, {"certificate": certificate}, ""
    if bounded.verdict == "refuted" and not replay_refuted(module, mset, bounded.witness, caps):
        return VIOLATED, {"part": "refutation-replay"}, ""
    return HOLDS, None, f"catalogue of {bounded.catalogue_size}: {bounded.verdict}"


# ---------------------------------------------------------------------------
# pinned regression anchors


def law_running_example(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    us = is_u_S_essential_oracle(k, module, mset, caps)
    ess = is_essential(k, module, caps)
    ok = (
        us.verdict
        and us.witness_s_pair == (1, 4)
        and not ess.verdict
        and ess.counterexample_L.members == (0, 3)
    )
    if not ok:
        return VIOLATED, {"oracle": us.verdict, "essential": ess.verdict}, ""
    return HOLDS, None, "both pinned verdicts reproduced"


def law_running_example_envelope(b: BuiltInstance, caps: Caps, fx: Fixtures) -> Outcome:
    _, incl = submodule_as_module(b.submodule)
    cand = check_u_S_envelope(incl, b.mset, caps)
    definitional = endomorphism_condition(incl, b.mset, caps)
    baer = is_injective_baer(b.module, caps).verdict == "injective"
    mono = is_u_S_mono(incl, b.mset)
    essential = cand.essential_verdict.verdict
    if not (essential and definitional and baer and mono):
        return (
            VIOLATED,
            {"envelope": essential, "endomorphism": definitional, "baer": baer},
            "",
        )
    return HOLDS, None, "pinned envelope certified"


# ---------------------------------------------------------------------------
# registry: the hypotheses, each stated once and checked in order by evaluate,
# then the laws


@dataclass(frozen=True)
class Guard:
    reason: str
    fixture: Callable[[BuiltInstance, Caps], object]  # what the laws read, None when it fails
    verdict: str = SKIP_INAPPLICABLE  # the law's skip when the fixture is None


PINNED = (("zmod", 6), ("closure", (4,)), ("regular",), (2,))  # the running example: R, S, M, K


def _noetherian_witness(b: BuiltInstance, caps: Caps) -> Optional[int]:
    noetherian, witness = is_u_S_noetherian(b.ring, b.mset)
    return witness if noetherian else None


GUARDS: dict[str, Guard] = {
    "pinned-family": Guard("not the pinned family",
                           lambda b, caps: (b.instance.ring, b.instance.mset) == PINNED[:2] or None),
    "pinned-submodule": Guard("not the pinned submodule",
                              lambda b, caps: (b.instance.module, b.instance.submodule) == PINNED[2:] or None),
    "prime": Guard("module is not prime",
                   lambda b, caps: b.module.size > 1 and is_prime_module(b.module) or None),
    "zmod": Guard("base ring is not Z/n", lambda b, caps: b.ring.zmod_n is not None or None),
    "regular-set": Guard("multiplicative set is not regular",
                         lambda b, caps: is_regular_set(b.ring, b.mset) or None),
    "noetherian": Guard("ring is not uniformly Noetherian for S", _noetherian_witness),
    "uniformly-killed": Guard("module is not uniformly killed",
                              lambda b, caps: is_u_S_torsion(b.module, b.mset) or None),
    "avoids-zero-divisors": Guard("set meets the zero divisors on the module", lambda b, caps: set(
        zero_divisors_on(b.ring, b.module)).isdisjoint(b.mset.members) or None),
    "envelope": Guard("no envelope constructed",
                      lambda b, caps: construct_u_S_envelope(b.module, b.mset, caps)),
    "sum-fits": Guard("sum exceeds the module cap",
                      lambda b, caps: b.module.size**2 <= caps.max_module or None, SKIP_RESOURCE),
    "3-fold-sum-fits": Guard("3-fold sum exceeds the module cap",
                             lambda b, caps: b.module.size**3 <= caps.max_module or None, SKIP_RESOURCE),
}

REGISTRY: list[Law] = [
    Law("sigma-shortcut", "uniform kill by sigma agrees with the existential scan",
        False, "module", 64, law_sigma_shortcut),
    Law("torsion-submodule-uniform", "the torsion submodule is uniformly killed",
        False, "module", 64, law_torsion_submodule_uniform),
    Law("uniform-noetherian", "every ideal squeezes uniformly over a finitely generated sub-ideal",
        False, "module", 64, law_uniform_noetherian),
    Law("definition-via-torsion", "lattice oracle matches the literal torsion-implication form",
        False, "instance", 64, law_definition_via_torsion),
    Law("element-criterion", "fast element test == lattice oracle == quotient-map route",
        False, "instance", 64, law_element_criterion),
    Law("essential-element-criterion", "at S={1} the uniform decider degenerates to essentiality",
        False, "instance", 64, law_essential_element_criterion),
    Law("regular-set-degeneration", "sets avoiding zero divisors make the notions coincide",
        False, "instance", 64, law_regular_set_degeneration, ("avoids-zero-divisors",)),
    Law("torsion-ambient-essential", "in a uniformly killed module every submodule is u-S-essential",
        False, "module", 64, law_torsion_ambient, ("uniformly-killed",)),
    Law("max-ideal-upgrade", "u-m-essential at every maximal ideal forces essential",
        False, "instance", 36, law_max_ideal_upgrade),
    Law("prime-upgrade", "essential submodules of prime modules are u-S-essential",
        False, "instance", 64, law_prime_upgrade, ("prime",)),
    Law("prime-spectrum-equivalence", "for prime modules the three localized notions coincide",
        False, "instance", 36, law_prime_spectrum_equivalence, ("prime",)),
    Law("transitivity-meet", "chain and meet biconditionals for u-S-essential submodules",
        False, "instance", 24, law_transitivity_meet),
    Law("transport", "preimages and monomorphic images preserve u-S-essentiality",
        False, "module", 16, law_transport),
    Law("direct-sum-pair", "two-fold direct sums preserve and reflect u-S-essentiality",
        False, "instance", 8, law_direct_sum_pair, ("sum-fits",)),
    Law("direct-sum-many", "finite direct sums inherit u-S-essentiality componentwise",
        False, "instance", 4, law_direct_sum_many, ("3-fold-sum-fits",)),
    Law("complement", "maximal complements exist and satisfy both essentiality checks",
        False, "instance", 64, law_complement),
    Law("inclusion-characterization", "a submodule is u-S-essential iff its inclusion is a u-S-essential mono",
        False, "instance", 64, law_inclusion_characterization),
    Law("essential-mono-characterization", "u-S-essential monos detected through the quotient-map family",
        True, "instance", 24, law_essential_mono_characterization),
    Law("mono-composition", "compositions of u-S-monomorphisms are u-S-monomorphisms",
        False, "module", 36, law_mono_composition),
    Law("twisted-transfer", "essentiality transfers across u-S-isomorphisms of targets",
        False, "instance", 36, law_twisted_transfer),
    Law("envelope-essential-image", "envelope verdicts by essential image and by endomorphism rigidity agree",
        True, "module", 12, law_envelope_essential_image, ("envelope",)),
    Law("preenvelope-characterization", "preenvelope iff u-S-mono into a u-S-injective target",
        True, "module", 8, law_preenvelope_characterization, ("envelope",)),
    Law("envelope-uniqueness", "any two envelopes of a module are u-S-isomorphic",
        False, "module", 12, law_envelope_uniqueness, ("envelope",)),
    Law("preenvelope-summand", "the envelope target is a uniform direct summand of any preenvelope target",
        False, "module", 8, law_preenvelope_summand, ("envelope",)),
    Law("envelope-three-way", "the three envelope characterizations agree over the pool",
        True, "module", 8, law_envelope_three_way, ("envelope",)),
    Law("envelope-properties", "self-injectivity, essential-submodule and overmodule properties of envelopes",
        True, "module", 8, law_envelope_properties, ("envelope",)),
    Law("envelope-direct-sum", "envelopes of finite direct sums are sums of envelopes",
        False, "module", 6, law_envelope_direct_sum, ("sum-fits", "envelope")),
    Law("prime-classical-envelope-sum", "for prime modules and regular sets the classical hulls sum to the envelope",
        False, "module", 6, law_prime_classical_envelope_sum,
        ("zmod", "prime", "regular-set", "noetherian", "sum-fits")),
    Law("uniform-extension-bounded", "certified modules pass the bounded extension catalogue; refutations replay",
        True, "module", 12, law_uniform_extension_bounded),
    Law("running-example", "pinned verdict pair of the Z/6, S={1,4} running example",
        False, "instance", 64, law_running_example, ("pinned-family", "pinned-submodule")),
    Law("running-example-envelope", "pinned envelope certificate of the running example",
        False, "instance", 64, law_running_example_envelope, ("pinned-family", "pinned-submodule")),
]

LAWS_BY_ID = {law.law_id: law for law in REGISTRY}


def evaluate(
    law: Law, built: BuiltInstance, caps: Caps = DEFAULT_CAPS, fixtures: Optional[Fixtures] = None
) -> Outcome:
    """One law on one built instance.  An instance beyond the law's size
    budget, or a ResourceExceededError, is skipped-resource, never a verdict;
    then the first failing guard, in ``law.needs`` order, is the law's skip.
    A fixture that returns is kept in *fixtures* (run_laws: one per instance)."""
    if built.module.size > law.max_module:
        return SKIP_RESOURCE, None, "beyond the law's size budget"
    fx = {} if fixtures is None else fixtures
    try:
        for name in law.needs:
            guard = GUARDS[name]
            if name not in fx:
                fx[name] = guard.fixture(built, caps)
            if fx[name] is None:
                return guard.verdict, None, guard.reason
        return law.fn(built, caps, fx)
    except ResourceExceededError as exc:
        return SKIP_RESOURCE, None, str(exc)


def run_laws(
    corpus: Sequence[Instance],
    law_filter: Optional[Sequence[str]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[LawResult]:
    """Evaluate every registered law on every applicable instance.

    Module-scoped laws are deduplicated per (ring, mset, module) triple and
    a repeated law id runs once, where it first appears; resource
    exhaustion becomes a skip, never a verdict.  An unknown law id is a
    ConfigError naming every unknown id."""
    unknown = [i for i in law_filter or () if i not in LAWS_BY_ID]
    if unknown:
        raise ConfigError(f"unknown law ids: {', '.join(map(str, unknown))}")
    selected = REGISTRY if law_filter is None else [
        LAWS_BY_ID[i] for i in dict.fromkeys(law_filter)
    ]
    results: list[LawResult] = []
    built_cache: dict[Instance, BuiltInstance] = {}
    fixtures: dict[Instance, Fixtures] = {}  # one per built instance, shared by its laws
    for law in selected:
        seen_module_scope: set[tuple] = set()
        for inst in corpus:
            if law.scope == "instance" and inst.submodule is None:
                continue
            if law.scope == "module":
                key = (inst.ring, inst.mset, inst.module)
                if key in seen_module_scope:
                    continue
                seen_module_scope.add(key)
            if inst not in built_cache:
                built_cache[inst] = build_instance(inst, caps)
            built = built_cache[inst]
            start = time.perf_counter()
            verdict, witness, detail = evaluate(law, built, caps, fixtures.setdefault(inst, {}))
            elapsed = time.perf_counter() - start
            if law.bounded and verdict == HOLDS and "pool" not in detail:
                detail = (detail + " (bounded)").strip()
            results.append(LawResult(law.law_id, inst, verdict, witness, elapsed, detail))
    return results


def replay_result(payload: dict, caps: Caps = DEFAULT_CAPS) -> str:
    """Re-run a law on its serialized instance; returns the fresh verdict."""
    law_id = _fields(payload, {"law_id", "instance"}, "a law result payload")["law_id"]
    law = LAWS_BY_ID.get(law_id) if isinstance(law_id, str) else None
    if law is None:
        raise ConfigError(f"unknown law {law_id!r}")
    inst = Instance.from_json(payload["instance"])
    if law.scope == "instance" and inst.submodule is None:
        raise ConfigError(f"law {law.law_id} needs an instance with a submodule")
    return evaluate(law, build_instance(inst, caps), caps)[0]


def tally(results: Sequence[LawResult]) -> dict[str, dict]:
    """Per law: the count of each verdict, the two skip kinds apart, and
    under "skip_reasons" each skip kind's reason texts with their counts."""
    out: dict[str, dict] = {}
    for r in results:
        bucket = out.setdefault(r.law_id, {
            HOLDS: 0, VIOLATED: 0, SKIP_RESOURCE: 0, SKIP_INAPPLICABLE: 0,
            "skip_reasons": {SKIP_RESOURCE: {}, SKIP_INAPPLICABLE: {}},
        })
        bucket[r.verdict] += 1
        if r.verdict in (SKIP_RESOURCE, SKIP_INAPPLICABLE):
            reasons = bucket["skip_reasons"][r.verdict]
            reasons[r.detail] = reasons.get(r.detail, 0) + 1
    return out
