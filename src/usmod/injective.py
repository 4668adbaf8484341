"""Injectivity and uniform S-relative injectivity: Baer test, classical
injective envelopes over Z/n, certification tiers, and verification of
u-S-injective u-S-(pre)envelopes.

u-S-injectivity has no exact finite decision procedure here, so verdicts are
three-tiered: "certified" (injective by exhaustive Baer scan, uniformly
killed, or a finite sum of certified modules), "bounded-pass" (survived a
catalogue of extension problems, which proves nothing), and "refuted"
(a witness extension problem failed; always sound).  bounded-pass is never
upgraded to certified.

The paper's statements about envelopes (uniqueness, summands of
preenvelopes, the three characterizations, direct sums) are written once,
in their laws; this module keeps the deciders and the construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    DomainError,
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
    quotient_module,
    regular_module,
    submodule_as_module,
    zero_hom,
    zero_module,
)
from .rings import MultiplicativeSet, all_ideals, mult_set_closure
from .storsion import (
    is_u_S_iso,
    is_u_S_mono,
    kills,
    s_torsion_submodule,
)


@dataclass(frozen=True)
class RefutedWitness:
    """One catalogue map plus, for every s in S, a source map with no
    s-uniform extension.  Re-checkable by exhaustive g-scan per entry."""

    f: Homomorphism
    failures: tuple[tuple[int, Homomorphism], ...]  # (s, h) pairs covering all of S


@dataclass(frozen=True)
class InjectivityReport:
    verdict: str  # injective | not-injective | u-S-injective-certified | bounded-pass | refuted
    certificate: Optional[str] = None  # injective-baer | u-S-torsion | closure | bounded-pass
    witness: object = None  # (Ideal, Homomorphism) for not-injective, RefutedWitness for refuted
    catalogue_size: Optional[int] = None

    @property
    def certified(self) -> bool:
        return self.verdict in ("injective", "u-S-injective-certified")


@dataclass(frozen=True)
class EnvelopeCandidate:
    map: Homomorphism
    e_certificate: str  # injective-baer | u-S-torsion | closure | bounded-pass
    essential_verdict: EssentialVerdict
    is_envelope: bool
    preenvelope_level: str  # certified | bounded


# ---------------------------------------------------------------------------
# Baer criterion


@lru_cache(maxsize=None)
def is_injective_baer(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> InjectivityReport:
    """Exhaustive Baer scan: every map from every ideal into the module must
    extend to the whole ring.  Exact for finite rings."""
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


# ---------------------------------------------------------------------------
# abelian-group structure over Z/n


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
    """Elements of p-power order: those killed by p^k additions."""
    q = p**k
    return tuple(x for x in module.elements() if module.int_mul(q, x) == module.zero)


def abelian_p_basis(module: FiniteModule, members: Sequence[int]) -> list[tuple[int, int]]:
    """Internal direct-sum basis of a finite abelian p-group given as a
    subset of the module: returns (generator, order) pairs, orders
    non-increasing.

    Splitting is by explicit retraction onto a maximal-order cyclic: the
    partial identity on <a> is extended one element at a time (into a cyclic
    group of exponent order this always succeeds), and the kernel of the
    retraction is the complement to recurse on.
    """
    basis: list[tuple[int, int]] = []
    current = sorted(members)
    while len(current) > 1:
        orders = {x: module.additive_order(x) for x in current}
        e = max(orders.values())
        a = min(x for x in current if orders[x] == e)
        cyc = [module.int_mul(t, a) for t in range(e)]
        h: dict[int, int] = {c: c for c in cyc}
        rest = [x for x in current if x not in h]
        while rest:
            x = rest[0]
            acc, ep = x, 1
            while acc not in h:
                acc = module.add[acc][x]
                ep += 1
            z = h[acc]
            y = next(yy for yy in cyc if module.int_mul(ep, yy) == z)
            snapshot = list(h.items())
            for t in range(1, ep):
                tx = module.int_mul(t, x)
                ty = module.int_mul(t, y)
                for v, hv in snapshot:
                    h[module.add[v][tx]] = module.add[hv][ty]
            rest = [u for u in current if u not in h]
        basis.append((a, e))
        current = sorted(x for x in current if h[x] == module.zero)
    return basis


def cyclic_invariants(module: FiniteModule) -> dict[int, list[int]]:
    """Per-prime multiset of cyclic orders, from the subgroup-size ranks of
    p^i M -- an invariant-theoretic route fully independent of the basis
    algorithm and of the Baer scan."""
    n = module.ring.zmod_n
    if n is None:
        raise UnsupportedRingError("cyclic invariants need a Z/n base ring")
    out: dict[int, list[int]] = {}
    for p, k in prime_power_factorization(n).items():
        comp = set(p_component_members(module, p, k))
        sizes = []
        layer = comp
        while True:
            sizes.append(len(layer))
            layer = {module.int_mul(p, x) for x in layer}
            if len(layer) == sizes[-1]:
                sizes.append(len(layer))
                break
        ranks = []
        for i in range(len(sizes) - 1):
            quot = sizes[i] // sizes[i + 1]
            d = 0
            while quot > 1:
                quot //= p
                d += 1
            ranks.append(d)
        factors = []
        for i in range(len(ranks)):
            upper = ranks[i + 1] if i + 1 < len(ranks) else 0
            factors.extend([i + 1] * (ranks[i] - upper))
        out[p] = sorted(factors, reverse=True)
    return out


def classify_injective_zmod(module: FiniteModule) -> bool:
    """Structure-theorem classification: injective over Z/n iff every cyclic
    invariant of each p-component has the full exponent of n's p-part."""
    n = module.ring.zmod_n
    if n is None:
        raise UnsupportedRingError("classification needs a Z/n base ring")
    invariants = cyclic_invariants(module)
    for p, k in prime_power_factorization(n).items():
        if any(e != k for e in invariants.get(p, [])):
            return False
    return True


def _crt_coefficients(n: int) -> dict[int, int]:
    """c_p = 1 mod p^k and 0 mod the rest, for each prime power of n."""
    out = {}
    for p, k in prime_power_factorization(n).items():
        q = p**k
        m = n // q
        out[p] = (m * pow(m, -1, q)) % n
    return out


def injective_envelope_zmod(
    module: FiniteModule, caps: Caps = DEFAULT_CAPS
) -> tuple[FiniteModule, Homomorphism]:
    """Classical injective envelope over Z/n by p-primary decomposition:
    each cyclic p-factor Z/p^j embeds in Z/p^k (the p-part of n) by the
    multiplier p^(k-j).  The returned map is re-verified three ways:
    monomorphism, Baer-injective target, essential image."""
    ring = module.ring
    n = ring.zmod_n
    if n is None:
        raise UnsupportedRingError("envelope construction only supports Z/n base rings")

    factorization = prime_power_factorization(n)
    coeffs = _crt_coefficients(n)

    per_prime: list[tuple[int, int, list[tuple[int, int]], dict[int, tuple[int, ...]]]] = []
    hull_mods: list[FiniteModule] = []
    for p, k in sorted(factorization.items()):
        comp = p_component_members(module, p, k)
        basis = abelian_p_basis(module, comp)
        if len(comp) != prod(order for _, order in basis):
            raise InternalError("p-basis does not span the component")
        coords: dict[int, tuple[int, ...]] = {}
        for tup in product(*(range(order) for _, order in basis)):
            elem = module.zero
            for (g, _), t in zip(basis, tup):
                elem = module.add[elem][module.int_mul(t, g)]
            if elem in coords:
                raise InternalError("p-basis is not independent")
            coords[elem] = tup
        per_prime.append((p, k, basis, coords))
        hull_mods.extend(cyclic_zmod_module(ring, p**k) for _ in basis)

    if not hull_mods:
        env = zero_module(ring)
        return env, zero_hom(module, env)

    total_size = prod(m.size for m in hull_mods)
    if total_size > caps.max_module:
        raise ResourceExceededError(f"envelope would have {total_size} elements")
    env, injections, _ = direct_sum_many(hull_mods, caps)

    mapping = []
    for x in module.elements():
        acc = env.zero
        slot = 0
        for p, k, basis, coords in per_prime:
            xp = module.int_mul(coeffs[p] if len(per_prime) > 1 else 1, x)
            tup = coords[xp]
            q = p**k
            for (g, order), t in zip(basis, tup):
                val = (t * (q // order)) % q
                acc = env.add[acc][injections[slot].map[val]]
                slot += 1
        mapping.append(acc)
    i = make_hom(module, env, mapping)

    if kernel(i).size != 1:
        raise InternalError("envelope embedding is not injective")
    if is_injective_baer(env, caps).verdict != "injective":
        raise InternalError("constructed envelope failed the Baer scan")
    # essential is u-S-essential at S={1}; the element criterion needs no lattice
    if not is_u_S_essential_fast(image(i), env, mult_set_closure(ring, [ring.one])).verdict:
        raise InternalError("envelope image is not essential")
    return env, i


# ---------------------------------------------------------------------------
# u-S-injectivity certification


def certify_u_S_injective(
    module: FiniteModule,
    mset: MultiplicativeSet,
    caps: Caps = DEFAULT_CAPS,
    fallback: bool = True,
    extra_modules: Sequence[FiniteModule] = (),
) -> InjectivityReport:
    """Three certification routes, cheapest first: uniformly killed by sigma;
    finite direct sum of certified modules; Baer-injective.  If none lands
    and *fallback* is set, falls through to the bounded catalogue test."""
    if module.ring != mset.ring:
        raise DomainError("multiplicative set over a different ring")
    if kills(module, mset.sigma, module.elements()):
        return InjectivityReport("u-S-injective-certified", certificate="u-S-torsion")
    if module.summands is not None:
        parts = [
            certify_u_S_injective(part, mset, caps, fallback=False)
            for part in module.summands
        ]
        if all(p.certified for p in parts):
            return InjectivityReport("u-S-injective-certified", certificate="closure")
    if is_injective_baer(module, caps).verdict == "injective":
        return InjectivityReport("u-S-injective-certified", certificate="injective-baer")
    if not fallback:
        return InjectivityReport("bounded-pass", certificate=None, catalogue_size=0)
    catalogue = default_catalogue(module, mset, extra_modules, caps)
    return bounded_u_S_injective_test(module, mset, catalogue, caps)


def default_catalogue(
    module: FiniteModule,
    mset: MultiplicativeSet,
    extra_modules: Sequence[FiniteModule] = (),
    caps: Caps = DEFAULT_CAPS,
    max_entries: int = 48,
) -> list[Homomorphism]:
    """Submodule inclusions of a small pool: the regular module, the module
    under test, the supplied extras, their pairwise direct sums, and the
    quotients of each pool member.  These are the maps the extension
    arguments actually instantiate (ideal inclusions and natural maps)."""
    ring = module.ring
    pool: list[FiniteModule] = []
    seen: set[tuple] = set()

    def admit(m: FiniteModule) -> None:
        # one member per table triple: a copy under other names or another
        # label adds the same maps again
        key = (m.add, m.zero, m.act)
        if m.size <= 36 and key not in seen:
            seen.add(key)
            pool.append(m)

    admit(regular_module(ring))
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
    module: FiniteModule,
    mset: MultiplicativeSet,
    catalogue: Sequence[Homomorphism],
    caps: Caps = DEFAULT_CAPS,
) -> InjectivityReport:
    """For each catalogue monomorphism f: A -> B, search an s in S such that
    every h: A -> E extends to g: B -> E with s.h = g.f.  Any f with no such
    s refutes u-S-injectivity (sound); passing everything is only
    "bounded-pass"."""
    for f in catalogue:
        mono, _ = is_u_S_mono(f, mset)
        if not mono:
            raise PreconditionViolatedError("catalogue entry is not a u-S-monomorphism")
    for f in catalogue:
        source_homs = hom_enumerate(f.source, module, caps=caps)
        target_homs = hom_enumerate(f.target, module, caps=caps)
        composed = [tuple(g.map[y] for y in f.map) for g in target_homs]
        failures: list[tuple[int, Homomorphism]] = []
        ok = False
        for s in mset.members:
            act_s = module.act[s]
            bad = None
            for h in source_homs:
                sh = tuple(act_s[v] for v in h.map)
                if sh not in composed:
                    bad = h
                    break
            if bad is None:
                ok = True
                break
            failures.append((s, bad))
        if not ok:
            return InjectivityReport(
                "refuted",
                witness=RefutedWitness(f, tuple(failures)),
                catalogue_size=len(catalogue),
            )
    return InjectivityReport(
        "bounded-pass", certificate="bounded-pass", catalogue_size=len(catalogue)
    )


def replay_refuted(module: FiniteModule, mset: MultiplicativeSet, witness: RefutedWitness,
                   caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-verify a refutation: every s in S has its recorded h with no
    extension g satisfying s.h = g.f (exhaustive g-scan)."""
    f = witness.f
    target_homs = hom_enumerate(f.target, module, caps=caps)
    composed = {tuple(g.map[y] for y in f.map) for g in target_homs}
    seen = {s for s, _ in witness.failures}
    if seen != set(mset.members):
        return False
    for s, h in witness.failures:
        act_s = module.act[s]
        sh = tuple(act_s[v] for v in h.map)
        if sh in composed:
            return False
    return True


# ---------------------------------------------------------------------------
# preenvelopes and envelopes


@dataclass(frozen=True)
class PreenvelopeReport:
    holds: bool
    level: str  # certified | bounded | refuted | not-mono
    injectivity: InjectivityReport


def check_u_S_preenvelope(
    f: Homomorphism, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> PreenvelopeReport:
    """A u-S-monomorphism into a u-S-injective module."""
    mono, _ = is_u_S_mono(f, mset)
    report = certify_u_S_injective(f.target, mset, caps, extra_modules=(f.source,))
    if not mono:
        return PreenvelopeReport(False, "not-mono", report)
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
    essential_verdict = is_u_S_essential_fast(image(f), f.target, mset)
    return EnvelopeCandidate(
        map=f,
        e_certificate=pre.injectivity.certificate or "bounded-pass",
        essential_verdict=essential_verdict,
        is_envelope=essential_verdict.verdict,
        preenvelope_level=pre.level,
    )


def endomorphism_condition(
    f: Homomorphism, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS, end_cap: int | None = None
) -> bool:
    """The definitional envelope condition on f: M -> E: every endomorphism
    alpha of E with s.f = alpha.f for some s in S is a u-S-isomorphism.

    Scans End(E), which raises ResourceExceededError past ``end_cap``."""
    env = f.target
    for alpha in hom_enumerate(env, env, end_cap, caps):
        for s in mset.members:
            act_s = env.act[s]
            if all(act_s[f.map[x]] == alpha.map[f.map[x]] for x in f.source.elements()):
                if not is_u_S_iso(alpha, mset)[0]:
                    return False
                break
    return True


def construct_u_S_envelope(
    module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> Optional[tuple[Homomorphism, EnvelopeCandidate]]:
    """Best-effort construction.  Candidates in order: the identity when the
    module itself is certified u-S-injective (covers the uniformly-killed
    case), the classical injective envelope when the base ring is Z/n, and a
    bounded search over certified pool targets.  Returns None (unknown)
    rather than guessing."""
    cert = certify_u_S_injective(module, mset, caps, fallback=False)
    if cert.certified:
        ident = identity_hom(module)
        return ident, check_u_S_envelope(ident, mset, caps)
    if module.ring.zmod_n is not None:
        env, i = injective_envelope_zmod(module, caps)
        cand = check_u_S_envelope(i, mset, caps)
        if cand.is_envelope:
            return i, cand
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
        if not certify_u_S_injective(target, mset, caps, fallback=False).certified:
            continue
        try:
            for f in hom_enumerate(module, target, cap=min(2048, caps.max_hom), caps=caps):
                mono, _ = is_u_S_mono(f, mset)
                if not mono:
                    continue
                cand = check_u_S_envelope(f, mset, caps)
                if cand.is_envelope:
                    return f, cand
        except ResourceExceededError:
            continue
    return None
