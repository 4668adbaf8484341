"""Deciders for essential and uniformly-S-essential submodules.

Two independent routes are implemented for the u-S notion:

* a lattice oracle that quantifies literally over every submodule L and
  checks "K meet L uniformly killed implies L uniformly killed", and
* a fast element criterion: for every x outside tor_S(M) and every s in S
  there is r with r.x in K and s.r.x nonzero.

The element criterion is the complexity payoff: it forms Rx meet K once per
x (|R| lookups) and tests each s in S on that meet, so it costs
O(|M|.(|R| + |S|.|K|)) table lookups instead of a lattice scan.  Its
hypothesis -- tor_S(M) is uniformly killed -- holds for finite S because
tor_S(M) is the kernel of sigma.  Each decider runs one route; the law
registry compares the routes on every corpus instance (``element-criterion``
for fast, oracle and quotient routes, ``essential-element-criterion`` for
the lattice scan of ``is_essential`` against the fast route at S={1}, and
``torsion-submodule-uniform`` for the hypothesis).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, NotPrimeError, PreconditionViolatedError
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    all_submodules,
    compose,
    cyclic_submodule,
    direct_sum,
    image,
    image_of_submodule,
    intersect_submodules,
    is_prime_module,
    preimage,
    quotient_module,
    submodule_as_module,
    sum_submodules,
    zero_divisors_on,
)
from .rings import Ideal, MultiplicativeSet, complement_of_prime, is_prime_ideal, spectrum
from .storsion import is_u_S_mono, kills, s_torsion_submodule


@dataclass(frozen=True)
class EssentialVerdict:
    verdict: bool
    counterexample_L: Optional[Submodule]
    witness_s_pair: Optional[tuple[Optional[int], Optional[int]]]
    method: str  # lattice-oracle | element-criterion | lattice-scan

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class BiconditionalVerdict:
    left: bool
    right: bool

    @property
    def equivalent(self) -> bool:
        return self.left == self.right


def _require_submodule(k: Submodule, module: FiniteModule) -> None:
    if k.parent != module:
        raise DomainError("submodule belongs to a different module")


def _smallest_killer(module: FiniteModule, mset: MultiplicativeSet, members) -> Optional[int]:
    for s in mset.members:
        if kills(module, s, members):
            return s
    return None


# ---------------------------------------------------------------------------
# classical essentiality


def is_essential(k: Submodule, module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> EssentialVerdict:
    """K meets every nonzero submodule nontrivially.

    Decided by a scan of the submodule lattice; a false verdict carries the
    first nonzero L (in lattice order) that meets K trivially.  The
    ``essential-element-criterion`` law checks it against the element
    criterion, i.e. the fast u-S decider at S={1}.
    """
    _require_submodule(k, module)
    nonzero_k = k.member_set() - {module.zero}
    for l in all_submodules(module, caps):
        if not l.is_zero() and nonzero_k.isdisjoint(l.members):
            return EssentialVerdict(False, l, None, "lattice-scan")
    return EssentialVerdict(True, None, None, "lattice-scan")


# ---------------------------------------------------------------------------
# u-S-essentiality: oracle and fast routes


@lru_cache(maxsize=None)
def is_u_S_essential_oracle(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> EssentialVerdict:
    """Literal quantification over the submodule lattice.

    A false verdict carries the offending L plus the pair (s1, None): s1
    kills K meet L while no member of S kills L.  A true verdict carries,
    for the largest uniformly-killed L encountered, the pair (s1, s2).
    """
    _require_submodule(k, module)
    if module.ring != mset.ring:
        raise DomainError("multiplicative set over a different ring")
    kset = k.member_set()
    best_pair: Optional[tuple[Optional[int], Optional[int]]] = None
    best_size = -1
    for l in all_submodules(module, caps):
        s1 = _smallest_killer(module, mset, kset.intersection(l.members))
        if s1 is None:
            continue
        s2 = _smallest_killer(module, mset, l.members)
        if s2 is None:
            return EssentialVerdict(False, l, (s1, None), "lattice-oracle")
        if l.size > best_size:
            best_size = l.size
            best_pair = (s1, s2)
    return EssentialVerdict(True, None, best_pair, "lattice-oracle")


@lru_cache(maxsize=None)
def is_u_S_essential_fast(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet
) -> EssentialVerdict:
    """Element criterion: for each x outside tor_S(M) and each s in S there
    is r with r.x in K and s.r.x != 0.

    The criterion's hypothesis (tor_S(M) uniformly killed) holds for finite
    S, since tor_S(M) is the kernel of sigma.  A false verdict exhibits the
    cyclic counterexample Rx together with (s, None).
    """
    _require_submodule(k, module)
    torset = s_torsion_submodule(module, mset).member_set()
    kset = k.member_set()
    zero = module.zero
    act = module.act
    ring_elements = module.ring.elements()
    for x in module.elements():
        if x in torset:
            continue
        meet = kset.intersection(act[r][x] for r in ring_elements)  # Rx meet K
        for s in mset.members:
            act_s = act[s]
            if all(act_s[y] == zero for y in meet):
                # r.x in K forces s.r.x = 0, so s kills Rx meet K while Rx
                # is not uniformly killed (x survives every member of S)
                return EssentialVerdict(
                    False, cyclic_submodule(module, x), (s, None), "element-criterion"
                )
    return EssentialVerdict(True, None, None, "element-criterion")


@lru_cache(maxsize=None)
def quotient_characterization(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> bool:
    """Inclusion-map characterization, restricted to natural quotient maps.

    K is u-S-essential iff for every L the composition (M -> M/L) after
    (K -> M) being a u-S-monomorphism forces M -> M/L to be one.  The maps
    are materialized and tested through the torsion deciders rather than by
    set bookkeeping, so this is an independent third route.
    """
    _require_submodule(k, module)
    k_mod, incl = submodule_as_module(k)
    for l in all_submodules(module, caps):
        quot, eta = quotient_module(module, l)
        restricted = compose(eta, incl)
        mono_restricted, _ = is_u_S_mono(restricted, mset)
        if mono_restricted:
            mono_full, _ = is_u_S_mono(eta, mset)
            if not mono_full:
                return False
    return True


# ---------------------------------------------------------------------------
# complements


def u_S_complement(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> tuple[Submodule, tuple[bool, bool]]:
    """A maximal K' with K meet K' uniformly killed, plus the two checks:
    K+K' is u-S-essential in M, and (K+K')/K' is u-S-essential in M/K'.

    Maximality is under inclusion; ties are broken by canonical lattice
    order (the abstract choice is non-canonical, tests need determinism).
    """
    _require_submodule(k, module)
    kset = k.member_set()
    gamma = [
        n
        for n in all_submodules(module, caps)
        if kills(module, mset.sigma, kset.intersection(n.members))
    ]
    member_sets = [n.member_set() for n in gamma]
    # the first maximal member, in the canonical order inherited from the lattice
    kp = next(
        n for n, ns in zip(gamma, member_sets) if not any(ns < ms for ms in member_sets)
    )

    total = sum_submodules(k, kp)
    check1 = is_u_S_essential_fast(total, module, mset).verdict

    quot, eta = quotient_module(module, kp)
    total_in_quot = image_of_submodule(eta, total)
    check2 = is_u_S_essential_fast(total_in_quot, quot, mset).verdict
    return kp, (check1, check2)


# ---------------------------------------------------------------------------
# transport along maps


def transport_preimage(
    q: Submodule, f: Homomorphism, mset: MultiplicativeSet
) -> tuple[Submodule, EssentialVerdict]:
    """Pull a u-S-essential submodule of the target back along f and certify
    the preimage u-S-essential in the source."""
    if q.parent != f.target:
        raise DomainError("submodule not in the target of the map")
    pre = preimage(f, q)
    return pre, is_u_S_essential_fast(pre, f.source, mset)


def transport_image(
    k: Submodule, f: Homomorphism, mset: MultiplicativeSet
) -> tuple[Submodule, EssentialVerdict]:
    """Push a u-S-essential submodule forward along a u-S-monomorphism and
    certify f(K) u-S-essential in f(M)."""
    if k.parent != f.source:
        raise DomainError("submodule not in the source of the map")
    mono, _ = is_u_S_mono(f, mset)
    if not mono:
        raise PreconditionViolatedError("transport_image needs a u-S-monomorphism")
    img_mod, incl = submodule_as_module(image(f))
    incl_index = {m: i for i, m in enumerate(incl.map)}
    fk_members = tuple(sorted({incl_index[f.map[x]] for x in k.members}))
    fk = Submodule(img_mod, fk_members)
    return fk, is_u_S_essential_fast(fk, img_mod, mset)


def direct_sum_essential(
    k1: Submodule,
    k2: Submodule,
    mset: MultiplicativeSet,
    caps: Caps = DEFAULT_CAPS,
) -> BiconditionalVerdict:
    """K1+K2 u-S-essential in M1+M2 iff both components are; both sides are
    evaluated independently (oracle on the sum, deciders on components)."""
    m1, m2 = k1.parent, k2.parent
    total, i1, i2, _, _ = direct_sum(m1, m2, caps)
    members = sorted(
        total.add[i1.map[x]][i2.map[y]] for x in k1.members for y in k2.members
    )
    ksum = Submodule(total, tuple(members))
    left = is_u_S_essential_oracle(ksum, total, mset, caps).verdict
    right = (
        is_u_S_essential_fast(k1, m1, mset).verdict
        and is_u_S_essential_fast(k2, m2, mset).verdict
    )
    return BiconditionalVerdict(left, right)


# ---------------------------------------------------------------------------
# u-S-essential monomorphisms


def is_u_S_essential_mono(f: Homomorphism, mset: MultiplicativeSet) -> bool:
    """A u-S-monomorphism whose image is u-S-essential in the target."""
    mono, _ = is_u_S_mono(f, mset)
    if not mono:
        raise PreconditionViolatedError("map is not a u-S-monomorphism")
    return is_u_S_essential_fast(image(f), f.target, mset).verdict


# ---------------------------------------------------------------------------
# prime ideals: localized essentiality


def is_u_p_essential(k: Submodule, module: FiniteModule, p: Ideal) -> bool:
    """u-S-essential for S the complement of the prime ideal p."""
    if not is_prime_ideal(p):
        raise NotPrimeError("complement decider needs a prime ideal")
    mset = complement_of_prime(module.ring, p)
    return is_u_S_essential_fast(k, module, mset).verdict


@dataclass(frozen=True)
class MaxEssentialReport:
    u_m_essential_for_all_max: bool
    essential: bool
    implication_holds: bool
    prime_equivalence: Optional[bool]  # three-way equivalence; None if not prime


def max_essential_upgrade(
    k: Submodule, module: FiniteModule, caps: Caps = DEFAULT_CAPS
) -> MaxEssentialReport:
    """u-m-essential at every maximal ideal forces essential; for prime
    modules the three conditions (essential, u-p-essential at every prime,
    u-m-essential at every maximal) are all equivalent."""
    ring = module.ring
    primes, maximals = spectrum(ring)
    all_max = all(is_u_p_essential(k, module, m) for m in maximals)
    ess = is_essential(k, module, caps).verdict
    implication = (not all_max) or ess
    prime_equiv: Optional[bool] = None
    if module.size > 1 and is_prime_module(module):
        all_primes = all(is_u_p_essential(k, module, p) for p in primes)
        prime_equiv = (ess == all_primes == all_max)
    return MaxEssentialReport(all_max, ess, implication, prime_equiv)


def essential_implies_uS_for_prime(
    module: FiniteModule, k: Submodule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> EssentialVerdict:
    """For a prime module, an essential submodule is u-S-essential."""
    if module.size == 1 or not is_prime_module(module):
        raise PreconditionViolatedError("module is not prime")
    if not is_essential(k, module, caps).verdict:
        raise PreconditionViolatedError("submodule is not essential")
    return is_u_S_essential_fast(k, module, mset)


# ---------------------------------------------------------------------------
# transitivity / meet laws


def transitivity_and_meet(
    k: Submodule,
    n: Submodule,
    h: Submodule,
    mset: MultiplicativeSet,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[BiconditionalVerdict, BiconditionalVerdict]:
    """For K <= N <= M and H <= M:

    (1) K u-S-essential in M  iff  K u-S-essential in N and N in M;
    (2) H meet K u-S-essential in M  iff  both H and K are.
    Both sides of each biconditional are evaluated independently.
    """
    module = n.parent
    if k.parent != module or h.parent != module:
        raise DomainError("submodules live in different modules")
    if not set(k.members) <= set(n.members):
        raise DomainError("K must be contained in N")

    n_mod, incl = submodule_as_module(n)
    incl_index = {m: i for i, m in enumerate(incl.map)}
    k_in_n = Submodule(n_mod, tuple(sorted(incl_index[x] for x in k.members)))

    chain_left = is_u_S_essential_fast(k, module, mset).verdict
    chain_right = (
        is_u_S_essential_fast(k_in_n, n_mod, mset).verdict
        and is_u_S_essential_fast(n, module, mset).verdict
    )

    meet = intersect_submodules(h, k)
    meet_left = is_u_S_essential_fast(meet, module, mset).verdict
    meet_right = (
        is_u_S_essential_fast(h, module, mset).verdict
        and is_u_S_essential_fast(k, module, mset).verdict
    )
    return (
        BiconditionalVerdict(chain_left, chain_right),
        BiconditionalVerdict(meet_left, meet_right),
    )


# ---------------------------------------------------------------------------
# degenerations


def regular_set_degeneration(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> Optional[BiconditionalVerdict]:
    """When S avoids the zero divisors on M, u-S-essential iff essential.
    Returns None when the hypothesis does not apply."""
    zdiv = set(zero_divisors_on(module.ring, module))
    if any(s in zdiv for s in mset.members):
        return None
    return BiconditionalVerdict(
        is_u_S_essential_fast(k, module, mset).verdict,
        is_essential(k, module, caps).verdict,
    )
