"""The law registry: one executable check per verified statement.

Every law evaluates both sides of its statement independently on a built
instance and returns holds / violated / skipped-resource /
skipped-inapplicable.  Violations carry a self-contained witness payload
that replays from the serialized instance alone; resource exhaustion is
always a skip, never a verdict.

Law ids are descriptive (what the law checks), listed in docs/laws.md.
Laws whose statements quantify over all modules or all maps are registered
as bounded laws: they state their pool in the result detail and claim
nothing beyond it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .corpus import BuiltInstance, Instance, build_instance
from .errors import ResourceExceededError, UsmodError
from .essential import (
    direct_sum_essential,
    essential_implies_uS_for_prime,
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_mono,
    is_u_S_essential_oracle,
    max_essential_upgrade,
    quotient_characterization,
    regular_set_degeneration,
    transitivity_and_meet,
    transport_image,
    transport_preimage,
    u_S_complement,
)
from .injective import (
    bounded_u_S_injective_test,
    certify_u_S_injective,
    check_u_S_envelope,
    check_u_S_preenvelope,
    construct_u_S_envelope,
    default_catalogue,
    endomorphism_condition,
    envelope_of_direct_sum,
    envelope_properties,
    envelope_three_way,
    envelope_uniqueness,
    injective_envelope_zmod,
    is_injective_baer,
    preenvelope_summand,
    replay_refuted,
    twisted_essential_transfer,
)
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    all_submodules,
    compose,
    direct_sum,
    direct_sum_many,
    hom_enumerate,
    hom_module,
    intersect_submodules,
    is_prime_module,
    quotient_module,
    scalar_hom,
    submodule_as_module,
    zero_hom,
)
from .rings import is_regular_set, is_u_S_noetherian
from .storsion import (
    is_u_S_epi,
    is_u_S_mono,
    is_u_S_torsion,
    kills,
    s_torsion_submodule,
)

HOLDS = "holds"
VIOLATED = "violated"
SKIP_RESOURCE = "skipped-resource"
SKIP_INAPPLICABLE = "skipped-inapplicable"

Outcome = tuple[str, Optional[dict], str]  # verdict, witness payload, detail


@dataclass(frozen=True)
class Law:
    law_id: str
    description: str
    bounded: bool  # quantifies over an explicit finite pool rather than everything
    scope: str  # "instance" (needs the submodule) or "module"
    max_module: int  # size budget; larger instances are skipped-resource
    fn: Callable[[BuiltInstance, Caps], Outcome]


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


def _exists_killer_scan(module: FiniteModule, mset, members) -> Optional[int]:
    """Literal existential scan (no sigma shortcut)."""
    for s in mset.members:
        if all(module.act[s][x] == module.zero for x in members):
            return s
    return None


# ---------------------------------------------------------------------------
# derived finite-S lemmas


def law_sigma_shortcut(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    by_scan = {
        x
        for x in module.elements()
        if any(module.act[s][x] == module.zero for s in mset.members)
    }
    by_sigma = s_torsion_submodule(module, mset).member_set()
    if by_scan != by_sigma:
        return VIOLATED, {"by_scan": sorted(by_scan), "by_sigma": sorted(by_sigma)}, ""
    for sub in all_submodules(module, caps):
        uniform = _exists_killer_scan(module, mset, sub.members) is not None
        sigma_kills = kills(module, mset.sigma, sub.members)
        if uniform != sigma_kills:
            return VIOLATED, {"submodule": _members(sub)}, ""
    return HOLDS, None, f"lattice of {len(all_submodules(module, caps))} checked"


def law_torsion_submodule_uniform(b: BuiltInstance, caps: Caps) -> Outcome:
    tor = s_torsion_submodule(b.module, b.mset)
    ok, w = is_u_S_torsion(tor, b.mset)
    if not ok:
        return VIOLATED, {"torsion_submodule": _members(tor)}, ""
    return HOLDS, None, f"witness {b.ring.name(w.s)}"


def law_uniform_noetherian(b: BuiltInstance, caps: Caps) -> Outcome:
    ok, s, _ = is_u_S_noetherian(b.ring, b.mset)
    if not ok:
        return VIOLATED, {}, ""
    return HOLDS, None, f"witness {b.ring.name(s)}"


# ---------------------------------------------------------------------------
# essential-submodule laws


def law_definition_via_torsion(b: BuiltInstance, caps: Caps) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    oracle = is_u_S_essential_oracle(k, module, mset, caps).verdict
    literal = True
    for l in all_submodules(module, caps):
        meet = intersect_submodules(k, l)
        if _exists_killer_scan(module, mset, meet.members) is not None:
            if _exists_killer_scan(module, mset, l.members) is None:
                literal = False
                break
    if oracle != literal:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_element_criterion(b: BuiltInstance, caps: Caps) -> Outcome:
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


def law_essential_element_criterion(b: BuiltInstance, caps: Caps) -> Outcome:
    from .rings import mult_set_closure

    k, module = b.submodule, b.module
    s1 = mult_set_closure(b.ring, [b.ring.one])
    ess = is_essential(k, module, caps).verdict
    via_us = is_u_S_essential_fast(k, module, s1).verdict
    if ess != via_us:
        return VIOLATED, {"submodule": _members(k), "essential": ess, "s1": via_us}, ""
    return HOLDS, None, ""


def law_regular_set_degeneration(b: BuiltInstance, caps: Caps) -> Outcome:
    verdict = regular_set_degeneration(b.submodule, b.module, b.mset, caps)
    if verdict is None:
        return SKIP_INAPPLICABLE, None, "set meets the zero divisors on the module"
    if not verdict.equivalent:
        return VIOLATED, {"submodule": _members(b.submodule)}, ""
    return HOLDS, None, ""


def law_torsion_ambient(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    if not kills(module, mset.sigma, module.elements()):
        return SKIP_INAPPLICABLE, None, "module is not uniformly killed"
    for sub in all_submodules(module, caps):
        if not is_u_S_essential_fast(sub, module, mset).verdict:
            return VIOLATED, {"submodule": _members(sub)}, ""
    return HOLDS, None, ""


def law_max_ideal_upgrade(b: BuiltInstance, caps: Caps) -> Outcome:
    report = max_essential_upgrade(b.submodule, b.module, caps)
    if not report.implication_holds:
        return VIOLATED, {"submodule": _members(b.submodule)}, ""
    detail = "vacuous" if not report.u_m_essential_for_all_max else "hypothesis held"
    return HOLDS, None, detail


def law_prime_upgrade(b: BuiltInstance, caps: Caps) -> Outcome:
    module, k, mset = b.module, b.submodule, b.mset
    if module.size == 1 or not is_prime_module(module):
        return SKIP_INAPPLICABLE, None, "module is not prime"
    if not is_essential(k, module, caps).verdict:
        return SKIP_INAPPLICABLE, None, "submodule is not essential"
    if not essential_implies_uS_for_prime(module, k, mset, caps).verdict:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_prime_spectrum_equivalence(b: BuiltInstance, caps: Caps) -> Outcome:
    module, k = b.module, b.submodule
    if module.size == 1 or not is_prime_module(module):
        return SKIP_INAPPLICABLE, None, "module is not prime"
    report = max_essential_upgrade(k, module, caps)
    if report.prime_equivalence is not True:
        return VIOLATED, {"submodule": _members(k)}, ""
    return HOLDS, None, ""


def law_transitivity_meet(b: BuiltInstance, caps: Caps) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    lattice = all_submodules(module, caps)
    kset = set(k.members)
    overs = [n for n in lattice if kset <= set(n.members)]
    checked = 0
    for n in overs:
        for h in lattice:
            chain, meet = transitivity_and_meet(k, n, h, mset, caps)
            checked += 1
            if not chain.equivalent:
                return VIOLATED, {"K": _members(k), "N": _members(n), "part": "chain"}, ""
            if not meet.equivalent:
                return VIOLATED, {"K": _members(k), "H": _members(h), "part": "meet"}, ""
    return HOLDS, None, f"{checked} (N,H) pairs"


def law_transport(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    try:
        endos = hom_enumerate(module, module, cap=96, caps=caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "endomorphism enumeration over budget"
    lattice = all_submodules(module, caps)
    essential_subs = [q for q in lattice if is_u_S_essential_fast(q, module, mset).verdict]
    for f in endos:
        for q in essential_subs:
            _, verdict = transport_preimage(q, f, mset)
            if not verdict.verdict:
                return VIOLATED, {"Q": _members(q), "map": list(f.map), "part": "preimage"}, ""
        if is_u_S_mono(f, mset)[0]:
            for k in essential_subs:
                _, verdict = transport_image(k, f, mset)
                if not verdict.verdict:
                    return VIOLATED, {"K": _members(k), "map": list(f.map), "part": "image"}, ""
    return HOLDS, None, f"{len(endos)} maps x {len(essential_subs)} essential submodules"


def law_direct_sum_pair(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset, k = b.module, b.mset, b.submodule
    if module.size * module.size > caps.max_module:
        return SKIP_RESOURCE, None, "sum exceeds the module cap"
    lattice = all_submodules(module, caps)
    partner = lattice[len(lattice) // 2]
    for k2 in (k, partner):
        verdict = direct_sum_essential(k, k2, mset, caps)
        if not verdict.equivalent:
            return VIOLATED, {"K1": _members(k), "K2": _members(k2)}, ""
    return HOLDS, None, ""


def law_direct_sum_many(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset, k = b.module, b.mset, b.submodule
    if module.size**3 > caps.max_module:
        return SKIP_RESOURCE, None, "3-fold sum exceeds the module cap"
    total, _, projections = direct_sum_many([module, module, module], caps)
    members = [
        x
        for x in total.elements()
        if all(proj.map[x] in set(k.members) for proj in projections)
    ]
    ksum = Submodule(total, tuple(sorted(members)))
    component = is_u_S_essential_fast(k, module, mset).verdict
    if not component:
        return SKIP_INAPPLICABLE, None, "component is not u-S-essential"
    tor_ok, _ = is_u_S_torsion(s_torsion_submodule(total, mset), mset)
    if not tor_ok:
        return VIOLATED, {"part": "hypothesis"}, ""
    if not is_u_S_essential_fast(ksum, total, mset).verdict:
        return VIOLATED, {"K": _members(k)}, ""
    return HOLDS, None, "3-fold sum"


def law_complement(b: BuiltInstance, caps: Caps) -> Outcome:
    kp, checks = u_S_complement(b.submodule, b.module, b.mset, caps)
    if checks != (True, True):
        return VIOLATED, {"K": _members(b.submodule), "Kp": _members(kp), "checks": checks}, ""
    return HOLDS, None, f"complement size {kp.size}"


def law_inclusion_characterization(b: BuiltInstance, caps: Caps) -> Outcome:
    k, module, mset = b.submodule, b.module, b.mset
    oracle = is_u_S_essential_oracle(k, module, mset, caps).verdict
    _, incl = submodule_as_module(k)
    via_mono = is_u_S_essential_mono(incl, mset)  # inclusions are monomorphisms
    if oracle != via_mono:
        return VIOLATED, {"K": _members(k), "oracle": oracle, "mono": via_mono}, ""
    return HOLDS, None, ""


def law_essential_mono_characterization(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset, k = b.module, b.mset, b.submodule
    _, incl = submodule_as_module(k)
    candidates: list[Homomorphism] = [incl]
    for s in mset.members[-1:]:
        f = compose(scalar_hom(module, s), incl)
        if is_u_S_mono(f, mset)[0]:
            candidates.append(f)
    lattice = all_submodules(module, caps)
    for f in candidates:
        lhs = is_u_S_essential_mono(f, mset)
        rhs = True
        for j in lattice:
            _, eta = quotient_module(module, j)
            if is_u_S_mono(compose(eta, f), mset)[0] and not is_u_S_mono(eta, mset)[0]:
                rhs = False
                break
        if lhs != rhs:
            return VIOLATED, {"map": list(f.map), "lhs": lhs, "rhs": rhs}, ""
    return HOLDS, None, f"{len(candidates)} maps against {len(lattice)} quotients"


def law_mono_composition(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    monos = []
    for r in range(b.ring.size):
        f = scalar_hom(module, r)
        if is_u_S_mono(f, mset)[0]:
            monos.append(f)
    for f in monos:
        for g in monos:
            if not is_u_S_mono(compose(g, f), mset)[0]:
                return VIOLATED, {"f": list(f.map), "g": list(g.map)}, ""
    return HOLDS, None, f"{len(monos)}^2 compositions"


def law_twisted_transfer(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset, k = b.module, b.mset, b.submodule
    _, incl = submodule_as_module(k)
    checked = 0
    for s in mset.members:
        phi = scalar_hom(module, s)  # scalar maps by members are u-S-isomorphisms
        g = compose(phi, incl)
        if not is_u_S_mono(g, mset)[0]:
            continue
        verdict = twisted_essential_transfer(incl, g, phi, mset)
        checked += 1
        if not verdict.equivalent:
            return VIOLATED, {"K": _members(k), "s": s}, ""
    if checked == 0:
        return SKIP_INAPPLICABLE, None, "no composable u-S-monomorphism"
    return HOLDS, None, f"{checked} scalar twists"


# ---------------------------------------------------------------------------
# envelope laws (bounded pools)


def law_envelope_essential_image(b: BuiltInstance, caps: Caps) -> Outcome:
    out = construct_u_S_envelope(b.module, b.mset, caps)
    if out is None:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    f, _ = out
    try:
        cand = check_u_S_envelope(f, b.mset, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "endomorphism enumeration over budget"
    try:
        definitional = endomorphism_condition(f, b.mset, caps, end_cap=2048)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "endomorphism enumeration skipped"
    if definitional != cand.is_envelope:
        return VIOLATED, {"map": list(f.map)}, ""
    if not cand.is_envelope:
        return VIOLATED, {"map": list(f.map), "part": "constructed-map-not-envelope"}, ""
    return HOLDS, None, f"certificate {cand.e_certificate}"


def law_preenvelope_characterization(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    out = construct_u_S_envelope(module, mset, caps)
    if out is None:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    env_map = out[0]
    env = env_map.target
    pool = [module, env]
    try:
        checked = 0
        for a2 in pool:
            if not certify_u_S_injective(a2, mset, caps, fallback=False).certified:
                continue
            hom_e, homs_e = hom_module(env, a2, cap=512, caps=caps)
            hom_m, homs_m = hom_module(module, a2, cap=512, caps=caps)
            index_m = {h.map: i for i, h in enumerate(homs_m)}
            induced = Homomorphism(
                hom_e,
                hom_m,
                tuple(
                    index_m[tuple(h.map[v] for v in env_map.map)] for h in homs_e
                ),
            )
            epi, _ = is_u_S_epi(induced, mset)
            if not epi:
                return VIOLATED, {"pool_module": a2.label}, ""
            checked += 1
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "hom module over budget"
    # negative side: unless the module is uniformly killed (which makes every
    # kernel torsion), the zero map into the envelope is not a preenvelope
    if not kills(module, mset.sigma, module.elements()):
        if check_u_S_preenvelope(zero_hom(module, env), mset, caps).holds:
            return VIOLATED, {"part": "zero-map-accepted"}, ""
    return HOLDS, None, f"pool of {checked} certified targets"


def law_envelope_uniqueness(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    out = construct_u_S_envelope(module, mset, caps)
    if out is None:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    first = out[0]
    second: Optional[Homomorphism] = None
    if b.ring.zmod_n is not None:
        try:
            _, classical = injective_envelope_zmod(module, caps)
            if check_u_S_envelope(classical, mset, caps).is_envelope:
                second = classical
        except ResourceExceededError:
            second = None
    if second is None:
        return SKIP_INAPPLICABLE, None, "only one envelope available"
    try:
        envelope_uniqueness(first, second, mset, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "isomorphism search over budget"
    except UsmodError as exc:
        return VIOLATED, {"error": str(exc)}, ""
    return HOLDS, None, ""


def law_preenvelope_summand(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    out = construct_u_S_envelope(module, mset, caps)
    if out is None:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    f = out[0]
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
        found = preenvelope_summand(f, g, mset, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "summand search over budget"
    if found is None:
        return VIOLATED, {"part": "no-summand"}, ""
    return HOLDS, None, f"B of size {found[0].size}"


def law_envelope_three_way(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    out = construct_u_S_envelope(module, mset, caps)
    if out is None:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    i = out[0]
    pool = [module, i.target]
    tor = s_torsion_submodule(i.target, mset)
    if 1 < tor.size < i.target.size:
        pool.append(submodule_as_module(tor)[0])
    try:
        report = envelope_three_way(i, mset, pool, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "pool evaluation over budget"
    if not report.equivalent:
        return (
            VIOLATED,
            {
                "envelope": report.envelope,
                "injective_factoring": report.injective_factoring,
                "essential_factoring": report.essential_factoring,
            },
            "",
        )
    return HOLDS, None, f"pool of {report.pool_size}"


def law_envelope_properties(b: BuiltInstance, caps: Caps) -> Outcome:
    try:
        report = envelope_properties(b.module, b.mset, caps)
    except ResourceExceededError:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    if not report.self_injective_consistent:
        return VIOLATED, {"part": "self-injective-iff-iso"}, ""
    if report.essential_submodule_envelopes_isomorphic is False:
        return VIOLATED, {"part": "essential-submodule-envelope"}, ""
    if report.injective_overmodule_decomposes is False:
        return VIOLATED, {"part": "overmodule-decomposition"}, ""
    detail = "" if report.certification.certified else "certificate bounded"
    return HOLDS, None, detail


def law_envelope_direct_sum(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    if module.size * module.size > caps.max_module:
        return SKIP_RESOURCE, None, "sum exceeds the module cap"
    out = construct_u_S_envelope(module, mset, caps)
    if out is None:
        return SKIP_INAPPLICABLE, None, "no envelope constructed"
    f = out[0]
    if f.target.size * f.target.size > caps.max_module:
        return SKIP_RESOURCE, None, "envelope sum exceeds the module cap"
    try:
        report = envelope_of_direct_sum([f, f], mset, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "sum evaluation over budget"
    if not report.sum_map_is_envelope:
        return VIOLATED, {"part": "sum-map"}, ""
    if report.matches_direct_construction is False:
        return VIOLATED, {"part": "direct-construction-mismatch"}, ""
    return HOLDS, None, ""


def law_prime_classical_envelope_sum(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    if b.ring.zmod_n is None:
        return SKIP_INAPPLICABLE, None, "base ring is not Z/n"
    if module.size == 1 or not is_prime_module(module):
        return SKIP_INAPPLICABLE, None, "module is not prime"
    if not is_regular_set(b.ring, mset):
        return SKIP_INAPPLICABLE, None, "multiplicative set is not regular"
    if module.size * module.size > caps.max_module:
        return SKIP_RESOURCE, None, "sum exceeds the module cap"
    try:
        _, i = injective_envelope_zmod(module, caps)
        if i.target.size * i.target.size > caps.max_module:
            return SKIP_RESOURCE, None, "envelope sum exceeds the module cap"
        report = envelope_of_direct_sum([i, i], mset, caps, require_prime_regular=True)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "construction over budget"
    if not report.sum_map_is_envelope:
        return VIOLATED, {"part": "sum-map"}, ""
    return HOLDS, None, f"noetherian witness {report.noetherian_witness}"


def law_uniform_extension_bounded(b: BuiltInstance, caps: Caps) -> Outcome:
    module, mset = b.module, b.mset
    report = certify_u_S_injective(module, mset, caps, fallback=False)
    catalogue = default_catalogue(module, mset, (), caps, max_entries=24)
    try:
        bounded = bounded_u_S_injective_test(module, mset, catalogue, caps)
    except ResourceExceededError:
        return SKIP_RESOURCE, None, "catalogue scan over budget"
    if report.certified and bounded.verdict == "refuted":
        return VIOLATED, {"certificate": report.certificate}, ""
    if bounded.verdict == "refuted" and not replay_refuted(module, mset, bounded.witness, caps):
        return VIOLATED, {"part": "refutation-replay"}, ""
    return HOLDS, None, f"catalogue of {bounded.catalogue_size}: {bounded.verdict}"


# ---------------------------------------------------------------------------
# pinned regression anchors


def law_running_example(b: BuiltInstance, caps: Caps) -> Outcome:
    if b.instance.ring != ("zmod", 6) or b.instance.mset != ("closure", (4,)):
        return SKIP_INAPPLICABLE, None, "not the pinned family"
    if b.instance.module != ("regular",) or b.instance.submodule != (2,):
        return SKIP_INAPPLICABLE, None, "not the pinned submodule"
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


def law_running_example_envelope(b: BuiltInstance, caps: Caps) -> Outcome:
    if b.instance.ring != ("zmod", 6) or b.instance.mset != ("closure", (4,)):
        return SKIP_INAPPLICABLE, None, "not the pinned family"
    if b.instance.module != ("regular",) or b.instance.submodule != (2,):
        return SKIP_INAPPLICABLE, None, "not the pinned submodule"
    _, incl = submodule_as_module(b.submodule)
    cand = check_u_S_envelope(incl, b.mset, caps)
    definitional = endomorphism_condition(incl, b.mset, caps)
    baer = is_injective_baer(b.module, caps).verdict == "injective"
    mono = is_u_S_mono(incl, b.mset)[0]
    essential = cand.essential_verdict.verdict
    if not (cand.is_envelope and definitional and baer and mono and essential):
        return (
            VIOLATED,
            {"envelope": cand.is_envelope, "endomorphism": definitional, "baer": baer},
            "",
        )
    return HOLDS, None, "pinned envelope certified"


# ---------------------------------------------------------------------------
# registry


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
        False, "instance", 64, law_regular_set_degeneration),
    Law("torsion-ambient-essential", "in a uniformly killed module every submodule is u-S-essential",
        False, "module", 64, law_torsion_ambient),
    Law("max-ideal-upgrade", "u-m-essential at every maximal ideal forces essential",
        False, "instance", 36, law_max_ideal_upgrade),
    Law("prime-upgrade", "essential submodules of prime modules are u-S-essential",
        False, "instance", 64, law_prime_upgrade),
    Law("prime-spectrum-equivalence", "for prime modules the three localized notions coincide",
        False, "instance", 36, law_prime_spectrum_equivalence),
    Law("transitivity-meet", "chain and meet biconditionals for u-S-essential submodules",
        False, "instance", 24, law_transitivity_meet),
    Law("transport", "preimages and monomorphic images preserve u-S-essentiality",
        False, "module", 16, law_transport),
    Law("direct-sum-pair", "two-fold direct sums preserve and reflect u-S-essentiality",
        False, "instance", 8, law_direct_sum_pair),
    Law("direct-sum-many", "finite direct sums inherit u-S-essentiality componentwise",
        False, "instance", 4, law_direct_sum_many),
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
        True, "module", 12, law_envelope_essential_image),
    Law("preenvelope-characterization", "preenvelope iff u-S-mono into a u-S-injective target",
        True, "module", 8, law_preenvelope_characterization),
    Law("envelope-uniqueness", "any two envelopes of a module are u-S-isomorphic",
        False, "module", 12, law_envelope_uniqueness),
    Law("preenvelope-summand", "the envelope target is a uniform direct summand of any preenvelope target",
        False, "module", 8, law_preenvelope_summand),
    Law("envelope-three-way", "the three envelope characterizations agree over the pool",
        True, "module", 8, law_envelope_three_way),
    Law("envelope-properties", "self-injectivity, essential-submodule and overmodule properties of envelopes",
        True, "module", 8, law_envelope_properties),
    Law("envelope-direct-sum", "envelopes of finite direct sums are sums of envelopes",
        False, "module", 6, law_envelope_direct_sum),
    Law("prime-classical-envelope-sum", "for prime modules and regular sets the classical hulls sum to the envelope",
        False, "module", 6, law_prime_classical_envelope_sum),
    Law("uniform-extension-bounded", "certified modules pass the bounded extension catalogue; refutations replay",
        True, "module", 12, law_uniform_extension_bounded),
    Law("running-example", "pinned verdict pair of the Z/6, S={1,4} running example",
        False, "instance", 64, law_running_example),
    Law("running-example-envelope", "pinned envelope certificate of the running example",
        False, "instance", 64, law_running_example_envelope),
]

LAWS_BY_ID = {law.law_id: law for law in REGISTRY}


def evaluate(law: Law, built: BuiltInstance, caps: Caps = DEFAULT_CAPS) -> Outcome:
    """One law on one built instance.  An instance beyond the law's size
    budget, or a ResourceExceededError, is skipped-resource, never a verdict."""
    if built.module.size > law.max_module:
        return SKIP_RESOURCE, None, "beyond the law's size budget"
    try:
        return law.fn(built, caps)
    except ResourceExceededError as exc:
        return SKIP_RESOURCE, None, str(exc)


def run_laws(
    corpus: Sequence[Instance],
    law_filter: Optional[Sequence[str]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[LawResult]:
    """Evaluate every registered law on every applicable instance.

    Module-scoped laws are deduplicated per (ring, mset, module) triple;
    resource exhaustion becomes a skip, never a verdict."""
    selected = REGISTRY if law_filter is None else [
        LAWS_BY_ID[i] for i in law_filter
    ]
    results: list[LawResult] = []
    built_cache: dict[str, BuiltInstance] = {}
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
            cache_key = inst.key()
            if cache_key not in built_cache:
                built_cache[cache_key] = build_instance(inst, caps)
            built = built_cache[cache_key]
            start = time.perf_counter()
            verdict, witness, detail = evaluate(law, built, caps)
            elapsed = time.perf_counter() - start
            if law.bounded and verdict == HOLDS and "pool" not in detail:
                detail = (detail + " (bounded)").strip()
            results.append(LawResult(law.law_id, inst, verdict, witness, elapsed, detail))
    return results


def replay_result(payload: dict, caps: Caps = DEFAULT_CAPS) -> str:
    """Re-run a law on its serialized instance; returns the fresh verdict."""
    law = LAWS_BY_ID[payload["law_id"]]
    inst = Instance.from_json(payload["instance"])
    return evaluate(law, build_instance(inst, caps), caps)[0]


def tally(results: Sequence[LawResult]) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for r in results:
        bucket = out.setdefault(
            r.law_id, {"holds": 0, "violated": 0, "skipped": 0}
        )
        if r.verdict == HOLDS:
            bucket["holds"] += 1
        elif r.verdict == VIOLATED:
            bucket["violated"] += 1
        else:
            bucket["skipped"] += 1
    return out
