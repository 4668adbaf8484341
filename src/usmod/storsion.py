"""Uniform S-relative notions: torsion, monos/epis/isos, splitting.

The uniform witness trick: for a finite multiplicative set S with product
sigma, some s in S kills a set of elements iff sigma does, because sigma
factors through every member.  Every decider here uses the sigma shortcut
alone; the ``sigma-shortcut`` law compares it with the definitional
existential scan on every corpus instance.
"""
from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, PreconditionViolatedError
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    hom_enumerate,
    image,
    kernel,
    precompose,
    quotient_module,
)
from .rings import MultiplicativeSet


def members_of(target: Submodule | FiniteModule) -> tuple[FiniteModule, Sequence[int]]:
    """The ambient module of *target* and the elements it consists of."""
    if isinstance(target, Submodule):
        return target.parent, target.members
    return target, range(target.size)


def _require_mset(module: FiniteModule, mset: MultiplicativeSet) -> None:
    """Refuse a multiplicative set over another ring than *module*'s, before
    any of its members indexes the action table."""
    if module.ring is not mset.ring and module.ring != mset.ring:
        raise DomainError("multiplicative set is over a different ring")


def kills(module: FiniteModule, s: int, members: Iterable[int]) -> bool:
    return all(map(module.zero.__eq__, map(module.act[s].__getitem__, members)))


def smallest_killer(
    module: FiniteModule, mset: MultiplicativeSet, members: Collection[int]
) -> Optional[int]:
    """The first member of S, in S's order, that kills *members*, or None."""
    return next((s for s in mset.members if kills(module, s, members)), None)


def s_torsion_submodule(module: FiniteModule, mset: MultiplicativeSet) -> Submodule:
    """tor_S(M): elements killed by some member of S, computed as the
    kernel of sigma (the ``sigma-shortcut`` law checks it against the
    existential scan)."""
    _require_mset(module, mset)
    act_sigma = module.act[mset.sigma]
    killed = tuple(x for x in module.elements() if act_sigma[x] == module.zero)
    return Submodule(module, killed)


def is_u_S_torsion(target: Submodule | FiniteModule, mset: MultiplicativeSet) -> bool:
    """True iff a single member of S kills all of the target, decided by
    sigma; ``smallest_killer`` names the first member that does."""
    module, members = members_of(target)
    _require_mset(module, mset)
    return kills(module, mset.sigma, members)


def cokernel(f: Homomorphism) -> tuple[FiniteModule, Homomorphism]:
    """target/Im(f), materialized as an actual quotient module."""
    return quotient_module(f.target, image(f))


def is_u_S_mono(f: Homomorphism, mset: MultiplicativeSet) -> bool:
    return is_u_S_torsion(kernel(f), mset)


def is_u_S_epi(f: Homomorphism, mset: MultiplicativeSet) -> bool:
    """True iff sigma.target lies in f(M), that is, sigma kills the
    cokernel; ``cokernel`` builds it only where a witness is shown."""
    target = f.target
    _require_mset(target, mset)
    return set(target.act[mset.sigma]) <= set(f.map)


def is_u_S_iso(f: Homomorphism, mset: MultiplicativeSet) -> bool:
    return is_u_S_mono(f, mset) and is_u_S_epi(f, mset)


def is_u_S_split(
    f: Homomorphism, mset: MultiplicativeSet, caps: Caps = DEFAULT_CAPS
) -> tuple[bool, Optional[tuple[int, Homomorphism]]]:
    """Search a retraction f' with f' . f = s identity for some s in S:
    the maps f' are grouped by composite f' . f, the s identities are
    looked up in S's order, and the first f' of a group is returned."""
    if not is_u_S_mono(f, mset):
        raise PreconditionViolatedError("splitting is only defined for u-S-monomorphisms")
    composed = precompose(f, hom_enumerate(f.target, f.source, caps=caps))
    for s in mset.members:
        retractions = composed.get(f.source.act[s])
        if retractions:
            return True, (s, retractions[0])
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
        if is_u_S_iso(f, mset):
            return f
    return None
