"""Uniform S-relative notions: torsion, monos/epis/isos, exactness, splitting.

The uniform witness trick: for a finite multiplicative set S with product
sigma, some s in S kills a set of elements iff sigma does, because sigma
factors through every member.  Every decider here uses the sigma shortcut
alone; the ``sigma-shortcut`` law compares it with the definitional
existential scan on every corpus instance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, InternalError, PreconditionViolatedError
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    hom_enumerate,
    image,
    kernel,
    quotient_module,
)
from .rings import MultiplicativeSet


@dataclass(frozen=True)
class USWitness:
    s: int
    role: str  # kills-kernel | kills-cokernel | splits | exactness


def _members_of(target: Submodule | FiniteModule) -> tuple[FiniteModule, Sequence[int]]:
    if isinstance(target, Submodule):
        return target.parent, target.members
    return target, range(target.size)


def kills(module: FiniteModule, s: int, members: Iterable[int]) -> bool:
    act_s = module.act[s]
    zero = module.zero
    return all(act_s[x] == zero for x in members)


def smallest_killer(
    module: FiniteModule, mset: MultiplicativeSet, members: Collection[int]
) -> Optional[int]:
    """The first member of S, in S's order, that kills *members*, or None."""
    return next((s for s in mset.members if kills(module, s, members)), None)


def s_torsion_submodule(module: FiniteModule, mset: MultiplicativeSet) -> Submodule:
    """tor_S(M): elements killed by some member of S, computed as the
    kernel of sigma (the ``sigma-shortcut`` law checks it against the
    existential scan)."""
    if module.ring != mset.ring:
        raise DomainError("multiplicative set is over a different ring")
    act_sigma = module.act[mset.sigma]
    killed = tuple(x for x in module.elements() if act_sigma[x] == module.zero)
    return Submodule(module, killed)


def is_u_S_torsion(
    target: Submodule | FiniteModule, mset: MultiplicativeSet
) -> tuple[bool, Optional[USWitness]]:
    """True iff a single member of S kills all of the target.

    The verdict comes from sigma; the reported witness is the smallest
    member that works (sigma itself in the worst case).
    """
    module, members = _members_of(target)
    if module.ring != mset.ring:
        raise DomainError("multiplicative set is over a different ring")
    if not kills(module, mset.sigma, members):
        return False, None
    return True, USWitness(smallest_killer(module, mset, members), "kills-kernel")


def cokernel(f: Homomorphism) -> tuple[FiniteModule, Homomorphism]:
    """target/Im(f), materialized as an actual quotient module."""
    return quotient_module(f.target, image(f))


def is_u_S_mono(f: Homomorphism, mset: MultiplicativeSet) -> tuple[bool, Optional[USWitness]]:
    ok, w = is_u_S_torsion(kernel(f), mset)
    return ok, (USWitness(w.s, "kills-kernel") if ok and w else None)


def is_u_S_epi(f: Homomorphism, mset: MultiplicativeSet) -> tuple[bool, Optional[USWitness]]:
    coker, _ = cokernel(f)
    ok, w = is_u_S_torsion(coker, mset)
    return ok, (USWitness(w.s, "kills-cokernel") if ok and w else None)


def is_u_S_iso(
    f: Homomorphism, mset: MultiplicativeSet
) -> tuple[bool, Optional[tuple[USWitness, USWitness]]]:
    mono, wm = is_u_S_mono(f, mset)
    if not mono:
        return False, None
    epi, we = is_u_S_epi(f, mset)
    if not epi:
        return False, None
    if wm is None or we is None:
        raise InternalError("u-S-iso verdict without both witnesses")
    return True, (wm, we)


def is_u_S_exact(
    f: Homomorphism, g: Homomorphism, mset: MultiplicativeSet
) -> tuple[bool, Optional[USWitness]]:
    """Some s in S has s.Ker(g) inside Im(f) and s.Im(f) inside Ker(g)."""
    if f.target != g.source:
        raise DomainError("sequence does not compose")
    mid = f.target
    ker_g = set(kernel(g).members)
    im_f = set(image(f).members)
    for s in mset.members:
        act_s = mid.act[s]
        if all(act_s[x] in im_f for x in ker_g) and all(act_s[x] in ker_g for x in im_f):
            return True, USWitness(s, "exactness")
    return False, None


def is_u_S_split(
    f: Homomorphism, mset: MultiplicativeSet, cap: int | None = None, caps: Caps = DEFAULT_CAPS
) -> tuple[bool, Optional[tuple[int, Homomorphism]]]:
    """Search a retraction f' with f' . f = s identity for some s in S."""
    mono, _ = is_u_S_mono(f, mset)
    if not mono:
        raise PreconditionViolatedError("splitting is only defined for u-S-monomorphisms")
    src = f.source
    retractions = hom_enumerate(f.target, src, cap, caps)
    for s in mset.members:
        s_id = src.act[s]
        for fp in retractions:
            if all(fp.map[f.map[x]] == s_id[x] for x in src.elements()):
                return True, (s, fp)
    return False, None


def find_u_S_isomorphism(
    source: FiniteModule,
    target: FiniteModule,
    mset: MultiplicativeSet,
    cap: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> Optional[Homomorphism]:
    """First enumerated u-S-isomorphism source -> target, or None.

    None means the enumeration COMPLETED without finding one; an incomplete
    enumeration raises ResourceExceededError instead, so uniqueness laws
    never assert on partial searches.
    """
    for f in hom_enumerate(source, target, cap, caps):
        ok, _ = is_u_S_iso(f, mset)
        if ok:
            return f
    return None
