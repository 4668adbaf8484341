"""Deciders for essential and uniformly-S-essential submodules.

Two independent routes are implemented for the u-S notion:

* a lattice oracle that quantifies literally over every submodule L and
  checks "K meet L uniformly killed implies L uniformly killed", and
* a fast element criterion: for every x outside tor_S(M) and every s in S
  there is r with r.x in K and s.r.x nonzero.

The element criterion is the complexity payoff.  Some s in S kills Rx meet K
iff sigma does, so it marks the members of K outside tor_S(M) once (|K|
lookups) and then asks, for each x outside tor_S(M), whether the column Rx of
the action table meets them (|R| lookups).  That is O(|M|.|R| + |K|) table
lookups instead of a lattice scan; only a false verdict pays |S|.|K| more to
name the first member of S that kills Rx meet K.  Its hypothesis --
tor_S(M) is uniformly killed -- holds for finite S because tor_S(M) is the
kernel of sigma.  Each decider runs one route; the law registry compares
the routes on every corpus instance (``element-criterion`` for fast, oracle
and quotient routes, ``essential-element-criterion`` for the lattice scan
of ``is_essential`` against the fast route at S={1}, and
``torsion-submodule-uniform`` for the hypothesis).  The paper's statements
about these notions (transport, direct sums, chains and meets, localized
upgrades) are written once, in their laws.

The lattice scans (``is_essential``, the oracle and ``u_S_complement``) run
on the bitmasks the cached lattice carries, bit x set for each member x.
K's mask is built once per call; the kernel mask of each s in S is the
lattice's ``kernel_mask(s)``, built once per module (|M| lookups) and shared
by every call on it.  Then a meet is one AND and "s kills X" is
X & ker_s == X, so each submodule costs a few integer operations instead of
a set intersection and a pass over its members.  The quotient route stays
independent of the other two: for each L it reads the natural map
eta: M -> M/L, the lattice's ``projection`` of L (built once per module and
shared like the kernel masks), and asks the torsion deciders about the
kernel of eta restricted to K and about the kernel of eta, which is L,
O(|lattice|.(|K| + |L|)) lookups; no module is built for K or for M/L and
no map is composed.

``u_S_complement`` reads only the cached lattice too.  Its maximal K' comes
from one reverse pass over the masks, and its check in M/K' is decided on
the lattice masks by the correspondence theorem, with sigma^-1(K') as one
more mask: O(|lattice| + |Gamma|.#maximal) mask operations, and neither
M/K' nor the image of K+K' is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError
from .modules import (
    FiniteModule,
    Submodule,
    _mask,
    all_submodules,
    cyclic_submodule,
    sum_submodules,
)
from .rings import Ideal, MultiplicativeSet, complement_of_prime
from .storsion import _require_mset, is_u_S_torsion, smallest_killer


@dataclass(frozen=True)
class EssentialVerdict:
    verdict: bool
    counterexample_L: Optional[Submodule]
    witness_s_pair: Optional[tuple[Optional[int], Optional[int]]]
    method: str  # lattice-oracle | element-criterion | lattice-scan

    def __bool__(self) -> bool:
        return self.verdict


def _require_submodule(k: Submodule, module: FiniteModule) -> None:
    if k.parent is not module and k.parent != module:
        raise DomainError("submodule belongs to a different module")


# ---------------------------------------------------------------------------
# classical essentiality


def is_essential(k: Submodule, module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> EssentialVerdict:
    """K meets every nonzero submodule nontrivially.

    Decided by a scan of the lattice masks, one AND per submodule; a false
    verdict carries the first nonzero L (in lattice order) that meets K
    trivially.  The ``essential-element-criterion`` law checks it against
    the element criterion, i.e. the fast u-S decider at S={1}.
    """
    _require_submodule(k, module)
    lattice = all_submodules(module, caps)
    zero_bit = 1 << module.zero
    nonzero_k = _mask(k.members) & ~zero_bit
    for l, lm in zip(lattice, lattice.masks()):
        if lm != zero_bit and not lm & nonzero_k:
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

    The scan runs on the lattice masks: with the lattice's kernel mask of
    each s in S (|M| lookups on the module's first call), "s kills X" is
    X & ker_s == X, and S is tried in its own order, so s1 and s2 are
    ``smallest_killer``'s.  That is at most 2|S| integer operations per
    submodule.
    """
    _require_submodule(k, module)
    _require_mset(module, mset)
    lattice = all_submodules(module, caps)
    kernels = [(s, lattice.kernel_mask(s)) for s in mset.members]

    def first_killer(x: int) -> Optional[int]:
        for s, ker in kernels:
            if x & ker == x:
                return s
        return None

    kmask = _mask(k.members)
    best_pair: Optional[tuple[Optional[int], Optional[int]]] = None
    best_size = -1
    for l, lm in zip(lattice, lattice.masks()):
        s1 = first_killer(kmask & lm)
        if s1 is None:
            continue
        s2 = first_killer(lm)
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

    Some s in S kills Rx meet K iff sigma does, so the criterion reads: for
    each x with sigma.x != 0, Rx meets K outside tor_S(M).  One pass over
    the columns Rx of the action table decides it.  The criterion's
    hypothesis (tor_S(M) uniformly killed) holds for finite S, since
    tor_S(M) is the kernel of sigma.  A false verdict exhibits the cyclic
    counterexample Rx together with (s, None), s the first member of S that
    kills Rx meet K.
    """
    _require_submodule(k, module)
    _require_mset(module, mset)
    zero = module.zero
    act_sigma = module.act[mset.sigma]
    alive = {y for y in k.members if act_sigma[y] != zero}  # K minus tor_S(M)
    for x, column in enumerate(zip(*module.act)):  # column x is Rx
        if act_sigma[x] == zero or not alive.isdisjoint(column):
            continue
        # sigma kills Rx meet K while Rx is not uniformly killed (sigma.x != 0)
        s = smallest_killer(module, mset, k.member_set().intersection(column))
        return EssentialVerdict(False, cyclic_submodule(module, x), (s, None), "element-criterion")
    return EssentialVerdict(True, None, None, "element-criterion")


def quotient_characterization(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> bool:
    """Inclusion-map characterization, restricted to natural quotient maps.

    K is u-S-essential iff for every L the composition (M -> M/L) after
    (K -> M) being a u-S-monomorphism forces M -> M/L to be one.  eta is
    the lattice's ``projection`` of L, and it sends x to zero iff
    proj[x] == proj[zero].  The composite's kernel is the members of K it
    sends to zero, read through eta; eta's kernel is L itself, the
    lattice's member.  So neither K nor M/L is built as a module and no map
    is composed.  Both kernels go through the torsion deciders rather than
    set bookkeeping, so this is an independent third route:
    O(|lattice|.(|K| + |L|)) lookups, plus the projections (|M| each, on
    the module's first call).
    """
    _require_submodule(k, module)
    _require_mset(module, mset)
    lattice = all_submodules(module, caps)
    for i in range(len(lattice)):
        proj = lattice.projection(i)
        zero = proj[module.zero]
        restricted_kernel = Submodule(module, tuple(x for x in k.members if proj[x] == zero))
        if is_u_S_torsion(restricted_kernel, mset) and not is_u_S_torsion(lattice[i], mset):
            return False
    return True


# ---------------------------------------------------------------------------
# complements


def _essential_in_quotient(
    masks: tuple[int, ...], tm: int, kpm: int, act_sigma: tuple[int, ...]
) -> bool:
    """T/K' is u-S-essential in M/K', for submodules K' <= T of M given by
    their masks, decided on the lattice *masks* of M with no quotient built.

    The submodules of M/K' are L/K' for L containing K' (the correspondence
    theorem), (T/K') meet (L/K') = (T meet L)/K', and sigma kills L/K' iff
    L lies in pre = sigma^-1(K'), |M| lookups in *act_sigma*.  So it holds
    iff every L containing K' with T meet L inside pre lies inside pre:
    one pass over the masks, a few operations each.
    """
    pre = _mask(x for x, y in enumerate(act_sigma) if kpm >> y & 1)
    return all(
        lm & pre == lm for lm in masks if lm & kpm == kpm and tm & lm & pre == tm & lm
    )


def u_S_complement(
    k: Submodule, module: FiniteModule, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> tuple[Submodule, tuple[bool, bool]]:
    """A maximal K' with K meet K' uniformly killed, plus the two checks:
    K+K' is u-S-essential in M, and (K+K')/K' is u-S-essential in M/K'.

    Maximality is under inclusion; ties are broken by canonical lattice
    order (the abstract choice is non-canonical, tests need determinism).

    sigma kills K meet N iff N misses alive = K minus ker(sigma), so the
    candidates Gamma are the lattice masks N with N & alive == 0: one AND
    each.
    The lattice is ordered by size, so a proper superset of a candidate
    comes after it, and one reverse pass keeps each candidate that lies in
    no candidate already kept: those are the maximal ones, and the last
    kept is the first maximal one in lattice order.

    The first check is the fast decider on K+K', the second
    ``_essential_in_quotient`` on the lattice masks, so no module is built:
    O(|lattice| + |Gamma|.#maximal) mask operations and |M| lookups.
    """
    _require_submodule(k, module)
    _require_mset(module, mset)
    lattice = all_submodules(module, caps)
    masks = lattice.masks()
    alive = _mask(k.members) & ~lattice.kernel_mask(mset.sigma)
    maximal: list[int] = []
    for i in range(len(lattice) - 1, -1, -1):
        nm = masks[i]
        if not nm & alive and all(nm | m != m for m in maximal):
            maximal.append(nm)
            first = i
    kp, kpm = lattice[first], masks[first]

    total = sum_submodules(k, kp)
    check1 = is_u_S_essential_fast(total, module, mset).verdict
    check2 = _essential_in_quotient(masks, _mask(total.members), kpm, module.act[mset.sigma])
    return kp, (check1, check2)


# ---------------------------------------------------------------------------
# prime ideals: localized essentiality


def is_u_p_essential(k: Submodule, module: FiniteModule, p: Ideal) -> bool:
    """u-S-essential for S the complement of the prime ideal p; raises
    NotPrimeError, through ``complement_of_prime``, for any other p."""
    return is_u_S_essential_fast(k, module, complement_of_prime(module.ring, p)).verdict
