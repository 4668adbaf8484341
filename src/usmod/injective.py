"""Injectivity and uniform S-relative injectivity: Baer test, certification
tiers, and verification of u-S-injective u-S-(pre)envelopes.

Over Z/n everything classical reads off the p-socles M[p] = {x : p.x = 0}
(Matlis): M is injective iff each p-component has |M[p]|^k elements, p^k
exactly dividing n, and the injective envelope is the sum of dim M[p]
copies of Z/p^k, one character M -> Z/p^k per copy.  The structural test
stays independent of the Baer scan, which tests compare it against.

u-S-injectivity is not decided exactly yet, so verdicts are three-tiered:
"certified" (injective by exhaustive Baer scan, uniformly killed, or a
finite sum of certified modules), "bounded-pass" (survived a catalogue of
extension problems, which proves nothing), and "refuted" (a witness
extension problem failed; always sound).  ``u_S_injectivity_certificate``
names the certificate that lands, or None; ``certify_u_S_injective`` is
that certificate or else the catalogue test, so only a catalogue reports
bounded-pass, and it is never upgraded to certified.  Every extension
question is a lookup: the Baer scan collects the restrictions once per
ideal, and the others group Hom by composite with ``modules.precompose``
(g.f for the catalogue, alpha.f for End(E)).  A uniform one is asked at
sigma alone: each s in S divides sigma = t.s, so s.h = g.f gives
sigma.h = (t.g).f, and an h with sigma.h outside {g.f} fails for every s
at once.  A refutation is one pair (f, h), as a Baer witness is (ideal, h).

``injective_envelope_zmod`` returns the embedding M -> E(M), and
``construct_u_S_envelope`` one checked ``EnvelopeCandidate`` or None.  The
paper's statements about envelopes (uniqueness, summands of preenvelopes,
the three characterizations, direct sums) are written once, in their laws;
this module keeps the deciders and the construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    InternalError,
    PreconditionViolatedError,
    ResourceExceededError,
    UnsupportedRingError,
)
from .essential import EssentialVerdict, is_u_S_essential_fast
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    all_submodules,
    cyclic_zmod_module,
    direct_sum,
    direct_sum_many,
    hom_enumerate,
    identity_hom,
    image,
    kernel,
    make_hom,
    precompose,
    quotient_module,
    regular_module,
    submodule_as_module,
    zero_hom,
    zero_module,
)
from .rings import MultiplicativeSet, all_ideals, mult_set_closure
from .storsion import (
    _require_mset,
    is_u_S_iso,
    is_u_S_mono,
    is_u_S_torsion,
    s_torsion_submodule,
)


@dataclass(frozen=True)
class InjectivityReport:
    verdict: str  # injective | not-injective | u-S-injective-certified | bounded-pass | refuted
    certificate: Optional[str] = None  # injective-baer | u-S-torsion | closure | bounded-pass
    witness: object = None  # (Ideal, h) for not-injective, (f, h) for refuted
    catalogue_size: Optional[int] = None

    @property
    def certified(self) -> bool:
        return self.verdict in ("injective", "u-S-injective-certified")


@dataclass(frozen=True)
class EnvelopeCandidate:
    map: Homomorphism
    e_certificate: str  # injective-baer | u-S-torsion | closure | bounded-pass
    essential_verdict: EssentialVerdict  # its verdict is "is an envelope"

    @property
    def preenvelope_level(self) -> str:  # check_u_S_preenvelope's level for the map
        return "bounded" if self.e_certificate == "bounded-pass" else "certified"


# ---------------------------------------------------------------------------
# Baer criterion


@lru_cache(maxsize=None)
def is_injective_baer(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> InjectivityReport:
    """Exhaustive Baer scan: every map from every ideal into the module must
    extend to the whole ring.  Exact for finite rings.  A map R -> M is
    r -> r.m, so h: I -> M extends iff h is the restriction i -> i.m of
    some m; the restrictions are collected once per ideal."""
    reg = regular_module(module.ring)
    for ideal in all_ideals(module.ring):
        ideal_mod, incl = submodule_as_module(Submodule(reg, ideal.members))
        restrictions = set(zip(*map(module.act.__getitem__, incl.map)))
        for h in hom_enumerate(ideal_mod, module, caps=caps):
            if h.map not in restrictions:
                return InjectivityReport("not-injective", witness=(ideal, h))
    return InjectivityReport("injective", certificate="injective-baer")


# ---------------------------------------------------------------------------
# p-socles over Z/n: the structural test and the classical hull


def prime_power_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_component_members(module: FiniteModule, p: int, k: int) -> tuple[int, ...]:
    """Elements killed by p^k additions; at k = 1 the p-socle M[p]."""
    q = p**k
    return tuple(x for x in module.elements() if module.int_mul(q, x) == module.zero)


def classify_injective_zmod(module: FiniteModule) -> bool:
    """Structure-theorem classification, independent of the Baer scan and of
    the hull: injective over Z/n iff, for each p^k exactly dividing n, the
    p-component is free over Z/p^k, that is, has |M[p]|^k elements."""
    n = module.ring.zmod_n
    if n is None:
        raise UnsupportedRingError("classification needs a Z/n base ring")
    return all(
        len(p_component_members(module, p, k)) == len(p_component_members(module, p, 1)) ** k
        for p, k in prime_power_factorization(n).items()
    )


def injective_envelope_zmod(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> Homomorphism:
    """Classical injective envelope over Z/n from p-socles (Matlis):
    E(M) is the sum, over each p^k exactly dividing n, of r_p copies of
    Z/p^k, where p^r_p = |M[p]|.  Copy j receives a character M -> Z/p^k,
    taken in ``hom_enumerate`` order when it is nonzero on the part of M[p]
    that the characters taken so far all kill.  On M[p] a character is an
    F_p-linear functional, and every functional extends because Z/p^k is
    injective over Z/n, so exactly r_p characters are taken and together
    they are injective on every socle.  The embedding M -> E(M) it returns
    is re-verified: monomorphism, Baer-injective target, essential image."""
    ring = module.ring
    n = ring.zmod_n
    if n is None:
        raise UnsupportedRingError("envelope construction only supports Z/n base rings")

    socles = []
    hull_mods: list[FiniteModule] = []
    for p, k in sorted(prime_power_factorization(n).items()):
        cyclic = cyclic_zmod_module(ring, p**k)
        socle = p_component_members(module, p, 1)
        socles.append((cyclic, socle))
        hull_mods += [cyclic] * prime_power_factorization(len(socle)).get(p, 0)

    if not hull_mods:
        return zero_hom(module, zero_module(ring))

    total_size = prod(m.size for m in hull_mods)
    if total_size > caps.max_module:
        raise ResourceExceededError(f"envelope would have {total_size} elements")
    env, injections, _ = direct_sum_many(hull_mods, caps)

    characters: list[Homomorphism] = []
    for cyclic, socle in socles:
        unseparated = [x for x in socle if x != module.zero]
        for chi in hom_enumerate(module, cyclic, caps=caps):
            if not unseparated:
                break
            if any(chi.map[x] != cyclic.zero for x in unseparated):
                characters.append(chi)
                unseparated = [x for x in unseparated if chi.map[x] == cyclic.zero]

    mapping = []
    for x in module.elements():
        acc = env.zero
        for chi, inj in zip(characters, injections):
            acc = env.add[acc][inj.map[chi.map[x]]]
        mapping.append(acc)
    i = make_hom(module, env, mapping)

    if kernel(i).size != 1:
        raise InternalError("envelope embedding is not injective")
    if is_injective_baer(env, caps).verdict != "injective":
        raise InternalError("constructed envelope failed the Baer scan")
    # essential is u-S-essential at S={1}; the element criterion needs no lattice
    if not is_u_S_essential_fast(image(i), env, mult_set_closure(ring, [ring.one])).verdict:
        raise InternalError("envelope image is not essential")
    return i


# ---------------------------------------------------------------------------
# u-S-injectivity certification


def u_S_injectivity_certificate(
    module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> Optional[str]:
    """The first certificate that lands, cheapest first: "u-S-torsion"
    (uniformly killed by sigma), "closure" (every summand certified; each
    is asked, so a cap refusal on any of them surfaces), "injective-baer";
    None when none does."""
    _require_mset(module, mset)
    if is_u_S_torsion(module, mset):
        return "u-S-torsion"
    if module.summands is not None and all(
        [u_S_injectivity_certificate(part, mset, caps) for part in module.summands]
    ):
        return "closure"
    if is_injective_baer(module, caps).verdict == "injective":
        return "injective-baer"
    return None


def certify_u_S_injective(
    module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS,
    extra_modules: Sequence[FiniteModule] = (),
) -> InjectivityReport:
    """The certificate that lands, else the bounded catalogue test."""
    certificate = u_S_injectivity_certificate(module, mset, caps)
    if certificate is None:
        return bounded_u_S_injective_test(module, mset, caps, extra_modules)
    return InjectivityReport("u-S-injective-certified", certificate=certificate)


def _default_catalogue(
    module: FiniteModule, extra_modules: Sequence[FiniteModule], caps: Caps, max_entries: int
) -> list[Homomorphism]:
    """Submodule inclusions of a small pool: the regular module, the module
    under test, the supplied extras, their pairwise direct sums, and the
    quotients of each pool member.  These are the maps the extension
    arguments actually instantiate (ideal inclusions and natural maps)."""
    pool: list[FiniteModule] = []
    seen: set[tuple] = set()

    def admit(m: FiniteModule) -> None:
        # one member per table triple: a copy under other names or another
        # label adds the same maps again
        key = (m.add, m.zero, m.act)
        if m.size <= 36 and key not in seen:
            seen.add(key)
            pool.append(m)

    admit(regular_module(module.ring))
    admit(module)
    for m in extra_modules:
        admit(m)
    base = list(pool)
    for a in base:
        for b in base:
            if a.size * b.size <= 16:
                admit(direct_sum(a, b, caps)[0])
    for m in base:
        try:
            for sub in all_submodules(m, caps):
                if not sub.is_zero() and not sub.is_whole():
                    admit(quotient_module(m, sub)[0])
        except ResourceExceededError:
            continue

    entries: list[Homomorphism] = []
    for m in pool:
        try:
            subs = all_submodules(m, caps)
        except ResourceExceededError:
            continue
        for sub in subs:
            _, incl = submodule_as_module(sub)
            entries.append(incl)
            if len(entries) >= max_entries:
                return entries
    return entries


def bounded_u_S_injective_test(
    module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS,
    extra_modules: Sequence[FiniteModule] = (), max_entries: int = 48,
) -> InjectivityReport:
    """Each inclusion f: A -> B of a catalogue built from a small pool (R,
    the module E under test, *extra_modules*, their sums and quotients; at
    most *max_entries* maps) must give every h: A -> E some g: B -> E with
    sigma.h = g.f.  Hom(B, E) is enumerated once per pool module B, {g.f}
    grouped once per f and Hom(A, E) scanned once: the first h outside it
    fails for every s in S, so (f, h) refutes u-S-injectivity (sound).
    Passing everything is only "bounded-pass"."""
    catalogue = _default_catalogue(module, extra_modules, caps, max_entries)
    size = len(catalogue)
    if not all(is_u_S_mono(f, mset) for f in catalogue):
        raise InternalError("catalogue inclusion is not a u-S-monomorphism")
    act_sigma = module.act[mset.sigma]
    homs_from: dict[FiniteModule, list[Homomorphism]] = {}  # Hom(B, E) per pool module B
    for f in catalogue:
        source_homs = hom_enumerate(f.source, module, caps=caps)
        if f.target not in homs_from:
            homs_from[f.target] = hom_enumerate(f.target, module, caps=caps)
        composed = precompose(f, homs_from[f.target])
        for h in source_homs:
            if tuple(map(act_sigma.__getitem__, h.map)) not in composed:
                return InjectivityReport("refuted", witness=(f, h), catalogue_size=size)
    return InjectivityReport("bounded-pass", certificate="bounded-pass", catalogue_size=size)


def replay_refuted(module: FiniteModule, mset: MultiplicativeSet,
                   witness: tuple[Homomorphism, Homomorphism], caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-verify a refutation (f, h) by definition: for every s in S, no
    g: B -> E has s.h = g.f (exhaustive g-scan).  f must be a
    u-S-monomorphism, or it poses no extension problem at all."""
    f, h = witness
    if not is_u_S_mono(f, mset):
        return False
    composed = precompose(f, hom_enumerate(f.target, module, caps=caps))
    return all(
        tuple(map(module.act[s].__getitem__, h.map)) not in composed for s in mset.members
    )


# ---------------------------------------------------------------------------
# preenvelopes and envelopes


@dataclass(frozen=True)
class PreenvelopeReport:
    holds: bool
    level: str  # certified | bounded | refuted | not-mono
    injectivity: Optional[InjectivityReport]  # None at not-mono: E is not asked


def check_u_S_preenvelope(
    f: Homomorphism, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> PreenvelopeReport:
    """A u-S-monomorphism into a u-S-injective module; the target is
    certified only once f is known to be a u-S-mono."""
    if not is_u_S_mono(f, mset):
        return PreenvelopeReport(False, "not-mono", None)
    report = certify_u_S_injective(f.target, mset, caps, extra_modules=(f.source,))
    if report.certified:
        return PreenvelopeReport(True, "certified", report)
    if report.verdict == "bounded-pass":
        return PreenvelopeReport(True, "bounded", report)
    return PreenvelopeReport(False, "refuted", report)


def check_u_S_envelope(
    f: Homomorphism, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> EnvelopeCandidate:
    """Envelope verdict via the essential-image characterization: a
    u-S-preenvelope is a u-S-envelope iff its image is u-S-essential.  The
    ``envelope-essential-image`` law compares it with the definitional
    endomorphism condition (``endomorphism_condition``)."""
    pre = check_u_S_preenvelope(f, mset, caps)
    if not pre.holds:
        raise PreconditionViolatedError(f"not a u-S-preenvelope ({pre.level})")
    essential = is_u_S_essential_fast(image(f), f.target, mset)
    return EnvelopeCandidate(f, pre.injectivity.certificate, essential)


def endomorphism_condition(
    f: Homomorphism, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS, end_cap: int | None = None
) -> bool:
    """The definitional envelope condition on f: M -> E: every endomorphism
    alpha of E with s.f = alpha.f for some s in S is a u-S-isomorphism.

    Scans End(E), which raises ResourceExceededError past ``end_cap``."""
    env = f.target
    composed = precompose(f, hom_enumerate(env, env, end_cap, caps))
    scaled = {tuple(map(env.act[s].__getitem__, f.map)) for s in mset.members}
    return all(is_u_S_iso(alpha, mset) for k in scaled for alpha in composed.get(k, ()))


def construct_u_S_envelope(
    module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> Optional[EnvelopeCandidate]:
    """Best-effort construction.  Candidates in order: the identity when the
    module itself is certified u-S-injective (covers the uniformly-killed
    case), the classical injective envelope when the base ring is Z/n (a
    Baer-injective target with an essential image is always a u-S-envelope),
    and otherwise a bounded search over certified pool targets.  Every
    target returned is certified u-S-injective.  Returns None (unknown)
    rather than guessing."""
    if u_S_injectivity_certificate(module, mset, caps):
        return check_u_S_envelope(identity_hom(module), mset, caps)
    if module.ring.zmod_n is not None:
        cand = check_u_S_envelope(injective_envelope_zmod(module, caps), mset, caps)
        if not cand.essential_verdict.verdict:
            raise InternalError("the Z/n injective envelope is not a u-S-envelope")
        return cand
    # bounded pool search over certified targets built from the module
    reg = regular_module(module.ring)
    pool: list[FiniteModule] = [reg]
    tor = s_torsion_submodule(module, mset)
    if 1 < tor.size:
        pool.append(submodule_as_module(tor)[0])
    for base in list(pool):
        if base.size * module.size <= caps.max_module:
            pool.append(direct_sum(base, module, caps)[0])
    for target in pool:
        if not u_S_injectivity_certificate(target, mset, caps):
            continue
        try:
            for f in hom_enumerate(module, target, cap=min(2048, caps.max_hom), caps=caps):
                if not is_u_S_mono(f, mset):
                    continue
                cand = check_u_S_envelope(f, mset, caps)
                if cand.essential_verdict.verdict:
                    return cand
        except ResourceExceededError:
            continue
    return None
