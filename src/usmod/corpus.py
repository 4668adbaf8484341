"""Deterministic instance generation for the law harness.

An Instance is a fully serializable recipe: ring spec, multiplicative-set
spec, module spec and an optional submodule-generator spec, all relative to
each other.  Building an instance never consults global state, so a witness
serialized from a report replays bit-identically anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

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


def _mset_specs(ring: FiniteRing) -> list[Spec]:
    chosen: list[Spec] = []
    seen: set[tuple[int, ...]] = set()

    def admit(spec: Spec) -> None:
        try:
            mset = build_mset(ring, spec)
        except InvalidMultiplicativeSetError:
            return
        if mset.members in seen or len(chosen) >= MSETS_PER_RING:
            return
        seen.add(mset.members)
        chosen.append(spec)

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


def _submodule_gens(module: FiniteModule, rng: random.Random, caps: Caps) -> list[Optional[tuple[int, ...]]]:
    try:
        lattice = all_submodules(module, caps)
    except ResourceExceededError:
        return [None]
    if len(lattice) <= SUBMODULES_PER_MODULE:
        picks = list(lattice)
    else:
        picks = [lattice[0], lattice[-1]]
        middle = list(lattice[1:-1])
        rng.shuffle(middle)
        picks.extend(middle[: SUBMODULES_PER_MODULE - 2])
    return [sub.members for sub in picks]


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
    rng = random.Random(seed)
    profile = (bounds.max_ring, bounds.max_module)
    out: list[Instance] = []
    seen: set[Instance] = set()

    def emit(ring_spec: Spec, mset_spec: Spec, module_spec: Spec, gens) -> None:
        inst = Instance(ring_spec, mset_spec, module_spec, gens, seed, profile)
        if inst not in seen:
            seen.add(inst)
            out.append(inst)

    # pinned anchors: the running example and its whole lattice
    anchors = ((0,), (3,), (2,), (1,)) if min(bounds.max_ring, bounds.max_module) >= 6 else ()
    for gens in anchors:
        emit(("zmod", 6), ("closure", (4,)), ("regular",), gens)

    for ring_spec in _ring_specs(bounds):
        try:
            ring = build_ring(ring_spec, caps)
        except ResourceExceededError:
            continue
        if ring.size > bounds.max_ring:
            continue
        mset_specs = _mset_specs(ring)
        module_specs = _module_specs(ring, bounds, rng, caps)
        for module_spec in module_specs:
            module = build_module(ring, module_spec, caps)
            gens_list = _submodule_gens(module, rng, caps)
            for mset_spec in mset_specs:
                for gens in gens_list:
                    emit(ring_spec, mset_spec, module_spec, gens)

    if bounds.max_instances and len(out) > bounds.max_instances:
        # stride-sample for variety but keep the pinned anchors first
        pinned = out[: min(len(anchors), bounds.max_instances)]
        rest = out[len(anchors):]
        budget = bounds.max_instances - len(pinned)
        step = len(rest) / max(budget, 1)
        out = pinned + [rest[int(i * step)] for i in range(min(budget, len(rest)))]
    return out
