"""Deterministic instance generation for the law harness.

An Instance is a fully serializable recipe: ring spec, multiplicative-set
spec, module spec and an optional submodule-generator spec, all relative to
each other.  Building an instance never consults global state, so a witness
serialized from a report replays bit-identically anywhere.

One private generator walks the corpus and yields each instance with the
ring, set, module and lattice member it names, all of which it has in hand.
``generate_corpus`` keeps the instances as a list; ``corpus_stream`` hands
them over built, generating each as it is consumed, so a scan that stops
early generates no further.  ``build_instance`` builds an instance from its
recipe alone (JSON, CLI, DSL, replay, shrink candidates) and returns the
same cached objects.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from typing import Iterator, Optional

from .caps import DEFAULT_CAPS, Caps
from .errors import ConfigError, InternalError, InvalidMultiplicativeSetError, ResourceExceededError
from .modules import (
    FiniteModule,
    Submodule,
    all_submodules,
    direct_sum,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
)
from .rings import (
    FiniteRing,
    Ideal,
    MultiplicativeSet,
    all_ideals,
    complement_of_prime,
    make_product,
    make_trivial_extension,
    make_zmod,
    mult_set_closure,
    spectrum,
    unit_mult_set,
)

import random

Spec = tuple  # nested tuples of strings and ints

# per-ring and per-module sampling widths of the generated corpus
MSETS_PER_RING = 6
MODULES_PER_RING = 6
SUBMODULES_PER_MODULE = 6


@dataclass(frozen=True)
class Bounds:
    max_ring: int = 36
    max_module: int = 64
    composite_cap: int = 16  # elements in product/extension rings
    max_instances: int = 0   # 0 = no limit

    def check(self, caps: Caps) -> None:
        if self.max_ring > caps.max_ring or self.max_module > caps.max_module:
            raise ConfigError("bounds exceed the global caps")
        if self.max_ring < 2 or self.max_module < 2:
            # every corpus ring and module has at least 2 elements
            raise ConfigError("max_ring and max_module must be at least 2")
        if self.max_instances < 0:
            raise ConfigError("max_instances must be 0 (no limit) or positive")


@dataclass(frozen=True)
class Instance:
    ring: Spec
    mset: Spec
    module: Spec
    submodule: Optional[tuple[int, ...]]  # generator elements, or None
    seed: int
    size_profile: tuple[int, int]  # (max_ring, max_module)

    def key(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_json(self) -> dict:
        return {
            "ring": self.ring,
            "mset": self.mset,
            "module": self.module,
            "submodule": self.submodule,
            "seed": self.seed,
            "size_profile": self.size_profile,
        }

    @staticmethod
    def from_json(payload: dict) -> "Instance":
        """The instance a ``to_json`` payload describes.  A payload of any
        other shape is refused with ConfigError; element indices and ring
        sizes are checked when the instance is built."""
        sub = _fields(payload, _INSTANCE_FIELDS, "an instance payload")["submodule"]
        return Instance(
            ring=_tuplize(payload["ring"]),
            mset=_tuplize(payload["mset"]),
            module=_tuplize(payload["module"]),
            submodule=None if sub is None else _ints(sub, 1, "submodule", ConfigError),
            seed=_ints(payload["seed"], 0, "seed", ConfigError),
            size_profile=_ints(payload["size_profile"], 1, "size_profile", ConfigError),
        )


_INSTANCE_FIELDS = {"ring", "mset", "module", "submodule", "seed", "size_profile"}


def _fields(payload, names: set, what: str) -> dict:
    """*payload* itself when it is a dict holding every field in *names*.
    Any other payload is refused with ConfigError before a field is read,
    so a replayer never leaks a KeyError or TypeError."""
    if not isinstance(payload, dict) or not names <= payload.keys():
        raise ConfigError(f"{what} needs the fields {sorted(names)}")
    return payload


def _tuplize(x):
    if isinstance(x, (list, tuple)):
        return tuple(_tuplize(y) for y in x)
    if type(x) not in (int, str):
        raise ConfigError(f"spec entry {x!r} is not a list, string or integer")
    return x


_INT_ONLY = frozenset({int})


def _ints(value, depth: int, where: str, error: type[Exception]):
    """*value* as tuples of ints nested *depth* deep (depth 0: one int).

    Anything else is refused with *error*, floats and bools included: JSON
    gives them, and they compare equal to indices (3.0 == 3, True == 1).
    Payload values pass through here before any object is built from them,
    so the range checks of the built objects only ever see ints.
    """
    if depth == 0:
        if type(value) is not int:
            raise error(f"non-integer value {value!r} in {where}")
        return value
    if not isinstance(value, (list, tuple)):
        raise error(f"{where} is not a list")
    if depth == 1 and _INT_ONLY.issuperset(map(type, value)):
        return tuple(value)  # a flat list of ints, checked in one pass
    return tuple(_ints(v, depth - 1, where, error) for v in value)


def _elements(module: FiniteModule, gens, where: str) -> tuple[int, ...]:
    """*gens* as a tuple of ints, refused with ConfigError unless they are
    elements of *module*."""
    gens = _ints(gens, 1, where, ConfigError)
    if gens and (min(gens) < 0 or max(gens) >= module.size):
        raise ConfigError(f"{where} names an element outside {module.label}")
    return gens


def _submodule(module: FiniteModule, gens, where: str) -> Submodule:
    """The submodule spanned by *gens*, refused with ConfigError unless they
    are elements of *module*."""
    return Submodule(module, span(module, _elements(module, gens, where)))


# ---------------------------------------------------------------------------
# spec builders


@lru_cache(maxsize=None)
def build_ring(spec: Spec, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    match spec:
        case ("zmod", n):
            return make_zmod(_ints(n, 0, "zmod spec", ConfigError), caps)
        case ("product", left, right):
            return make_product(build_ring(left, caps), build_ring(right, caps), caps)
        case ("trivext", base_spec, module_spec):
            ring = build_ring(base_spec, caps)
            return make_trivial_extension(ring, build_module(ring, module_spec, caps), caps)
    raise ConfigError(f"unknown ring spec {spec!r}")


@lru_cache(maxsize=None)
def build_module(ring: FiniteRing, spec: Spec, caps: Caps = DEFAULT_CAPS) -> FiniteModule:
    match spec:
        case ("regular",):
            return regular_module(ring)
        case ("dsum", left, right):
            return direct_sum(
                build_module(ring, left, caps), build_module(ring, right, caps), caps
            )[0]
        case ("quot", base_spec, gens):
            base = build_module(ring, base_spec, caps)
            return quotient_module(base, _submodule(base, gens, "quot generators"))[0]
        case ("asmod", base_spec, gens):
            base = build_module(ring, base_spec, caps)
            return submodule_as_module(_submodule(base, gens, "asmod generators"))[0]
    raise ConfigError(f"unknown module spec {spec!r}")


@lru_cache(maxsize=None)
def build_mset(ring: FiniteRing, spec: Spec) -> MultiplicativeSet:
    match spec:
        case ("closure", gens):
            return mult_set_closure(ring, _ints(gens, 1, "closure generators", ConfigError))
        case ("units",):
            return unit_mult_set(ring)
        case ("complement_prime", members):
            ideal = Ideal(ring, _ints(members, 1, "prime ideal", ConfigError))
            return complement_of_prime(ring, ideal)
    raise ConfigError(f"unknown mset spec {spec!r}")


@dataclass(frozen=True)
class BuiltInstance:
    instance: Instance
    ring: FiniteRing
    mset: MultiplicativeSet
    module: FiniteModule
    submodule: Optional[Submodule]


def _lattice_submodule(module: FiniteModule, gens: tuple[int, ...], caps: Caps) -> Submodule:
    """The member of the cached lattice all_submodules(module, caps) that
    *gens* span: found by *gens* itself when they list its members, as the
    generated instances' do (bar three Z/6 anchors), else by their ``span``.
    A lattice over *caps* leaves the span as a fresh Submodule."""
    try:
        lattice = all_submodules(module, caps)
    except ResourceExceededError:
        return Submodule(module, span(module, gens))
    sub = lattice.member(gens) or lattice.member(span(module, gens))
    if sub is None:
        raise InternalError(f"the span of {gens} is missing from the lattice of {module.label}")
    return sub


def build_instance(inst: Instance, caps: Caps = DEFAULT_CAPS) -> BuiltInstance:
    """The ring, set, module and submodule K that *inst* names, under *caps*.

    K's generators are checked first: ints naming elements of the module.
    A lattice key compares as a tuple, so an unchecked (False,) would find
    the entry of (0,).  K is then the lattice's own Submodule object (see
    ``_lattice_submodule``), the one the deciders scan anyway, so their
    parent checks and cache keys match by identity and a full member list
    is never re-spanned.
    """
    ring = build_ring(inst.ring, caps)
    mset = build_mset(ring, inst.mset)
    module = build_module(ring, inst.module, caps)
    sub = None
    if inst.submodule is not None:
        sub = _lattice_submodule(module, _elements(module, inst.submodule, "submodule"), caps)
    return BuiltInstance(inst, ring, mset, module, sub)


# ---------------------------------------------------------------------------
# generation


def _ring_specs(bounds: Bounds) -> list[Spec]:
    specs: list[Spec] = [("zmod", n) for n in range(2, bounds.max_ring + 1)]
    cap = bounds.composite_cap
    for a in range(2, cap + 1):
        for b in range(a, cap + 1):
            if a * b <= cap:
                specs.append(("product", ("zmod", a), ("zmod", b)))
    for n in (2, 3, 4):
        if n * n <= cap:
            specs.append(("trivext", ("zmod", n), ("regular",)))
    if 2 * 2 * 2 * 2 <= cap:
        specs.append(
            ("trivext", ("zmod", 2), ("dsum", ("regular",), ("regular",)))
        )
    return specs


def _mset_specs(ring: FiniteRing) -> list[tuple[Spec, MultiplicativeSet]]:
    """Up to MSETS_PER_RING (spec, set) pairs with distinct sets."""
    chosen: list[tuple[Spec, MultiplicativeSet]] = []
    seen: set[tuple[int, ...]] = set()

    def admit(spec: Spec) -> None:
        try:
            mset = build_mset(ring, spec)
        except InvalidMultiplicativeSetError:
            return
        if mset.members in seen or len(chosen) >= MSETS_PER_RING:
            return
        seen.add(mset.members)
        chosen.append((spec, mset))

    admit(("closure", (ring.one,)))
    admit(("units",))
    for a in ring.elements():
        if a in (ring.zero, ring.one):
            continue
        admit(("closure", (a,)))
    for p in spectrum(ring)[0]:
        admit(("complement_prime", p.members))
    return chosen


def _module_specs(ring: FiniteRing, bounds: Bounds, rng: random.Random, caps: Caps) -> list[Spec]:
    chosen: list[Spec] = []
    seen: set[tuple] = set()

    def admit(spec: Spec) -> bool:
        if len(chosen) >= MODULES_PER_RING:
            return False
        try:
            module = build_module(ring, spec, caps)
            if module.size > bounds.max_module:
                return False
            all_submodules(module, caps)  # lattice must be computable
        except ResourceExceededError:
            return False
        sig = (module.size, module.add)
        if sig in seen:
            return False
        seen.add(sig)
        chosen.append(spec)
        return True

    admit(("regular",))
    ideals = [i for i in all_ideals(ring) if 1 < i.size < ring.size]
    for ideal in ideals[:2]:
        admit(("quot", ("regular",), ideal.members))
    for ideal in ideals[-2:]:
        admit(("asmod", ("regular",), ideal.members))
    admit(("dsum", ("regular",), ("regular",)))
    # one random chain: quotient of a direct sum by a random cyclic submodule
    if ring.size * ring.size <= bounds.max_module:
        x = rng.randrange(ring.size * ring.size)
        admit(("quot", ("dsum", ("regular",), ("regular",)), (x,)))
    return chosen


def _submodule_picks(module: FiniteModule, rng: random.Random, caps: Caps) -> list[Optional[Submodule]]:
    """Up to SUBMODULES_PER_MODULE distinct members of the cached lattice:
    all of them, or the bottom, the top and a seeded shuffle of the rest.
    [None] where the lattice exceeds *caps*."""
    try:
        lattice = all_submodules(module, caps)
    except ResourceExceededError:
        return [None]
    if len(lattice) <= SUBMODULES_PER_MODULE:
        return list(lattice)
    picks = [lattice[0], lattice[-1]]
    middle = list(lattice[1:-1])
    rng.shuffle(middle)
    picks.extend(middle[: SUBMODULES_PER_MODULE - 2])
    return picks


# the running example's whole lattice, pinned at the front of the corpus
_ANCHOR_GENS = ((0,), (3,), (2,), (1,))


def _anchor_gens(bounds: Bounds) -> tuple[tuple[int, ...], ...]:
    return _ANCHOR_GENS if min(bounds.max_ring, bounds.max_module) >= 6 else ()


def _rows(seed: int, bounds: Bounds, caps: Caps) -> Iterator[tuple]:
    """Every corpus instance in order, before any sampling, as (instance,
    ring, set, module, submodule), each object the one ``build_instance``
    gives the instance.

    Only the pinned anchors can repeat: within one ring the module specs,
    the sets and the lattice members are each distinct, so an instance is
    compared with the anchors on its ring alone.
    """
    rng = random.Random(seed)
    profile = (bounds.max_ring, bounds.max_module)
    anchors = [
        Instance(("zmod", 6), ("closure", (4,)), ("regular",), gens, seed, profile)
        for gens in _anchor_gens(bounds)
    ]
    for inst in anchors:
        ring = build_ring(inst.ring, caps)
        module = build_module(ring, inst.module, caps)
        sub = _lattice_submodule(module, inst.submodule, caps)
        yield inst, ring, build_mset(ring, inst.mset), module, sub

    for ring_spec in _ring_specs(bounds):
        try:
            ring = build_ring(ring_spec, caps)
        except ResourceExceededError:
            continue
        if ring.size > bounds.max_ring:
            continue
        pinned = [inst for inst in anchors if inst.ring == ring_spec]
        msets = _mset_specs(ring)
        for module_spec in _module_specs(ring, bounds, rng, caps):
            module = build_module(ring, module_spec, caps)
            picks = _submodule_picks(module, rng, caps)
            for mset_spec, mset in msets:
                for sub in picks:
                    gens = None if sub is None else sub.members
                    inst = Instance(ring_spec, mset_spec, module_spec, gens, seed, profile)
                    if inst not in pinned:
                        yield inst, ring, mset, module, sub


def _stride_sample(items: list, bounds: Bounds) -> list:
    """At most ``bounds.max_instances`` of *items* (0: all of them): the
    pinned anchors first, as far as the limit allows, then a stride sample
    of the rest for variety."""
    limit = bounds.max_instances
    if not limit or len(items) <= limit:
        return items
    anchors = len(_anchor_gens(bounds))
    pinned = items[: min(anchors, limit)]
    rest = items[anchors:]
    budget = limit - len(pinned)
    step = len(rest) / max(budget, 1)
    return pinned + [rest[int(i * step)] for i in range(min(budget, len(rest)))]


def generate_corpus(
    seed: int, bounds: Bounds = Bounds(), caps: Caps = DEFAULT_CAPS
) -> list[Instance]:
    """Deterministic corpus: same (seed, bounds) gives a byte-identical list
    of at most ``bounds.max_instances`` instances (0: no limit).

    The (Z/6, {1,4}) family is pinned at the front as the regression anchor
    when Z/6 fits the bounds, and kept by the stride sample that enforces
    ``max_instances`` as far as that limit allows.
    """
    bounds.check(caps)
    return _stride_sample([row[0] for row in _rows(seed, bounds, caps)], bounds)


def corpus_stream(
    seed: int, bounds: Bounds = Bounds(), caps: Caps = DEFAULT_CAPS
) -> Iterator[BuiltInstance]:
    """The instances of ``generate_corpus(seed, bounds, caps)`` in order,
    each built as ``build_instance`` builds it, down to the identical ring,
    set, module and submodule objects.

    The bounds are checked at the call.  With no ``max_instances`` limit
    the stream is generated as it is consumed, and a consumer that stops
    early generates nothing further; a limit needs the whole corpus for its
    stride sample, so the rows are generated first and sampled.
    """
    bounds.check(caps)
    rows = _rows(seed, bounds, caps)
    if bounds.max_instances:
        rows = iter(_stride_sample(list(rows), bounds))
    return starmap(BuiltInstance, rows)
