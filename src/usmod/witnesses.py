"""Serialization and replay of negative verdicts.

Refutations and false essentiality verdicts are only trusted because they
replay: each payload is self-contained (instance recipe plus explicit member
lists or tables) and the replayers re-run the definitional checks from the
payload alone, sharing no state with the original run.
"""
from __future__ import annotations

from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .corpus import Instance, _fields, _ints, build_instance
from .errors import ConfigError, DomainError, InvalidModuleError, ResourceExceededError
from .essential import is_essential, is_u_S_essential_fast, is_u_S_essential_oracle
from .injective import certify_u_S_injective, replay_refuted
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    check_homomorphism,
    check_module_axioms,
    check_submodule,
)


def serialize_module(module: FiniteModule) -> dict:
    return {
        "add": [list(row) for row in module.add],
        "act": [list(row) for row in module.act],
        "zero": module.zero,
        "label": module.label,
    }


def deserialize_module(ring, payload: dict) -> FiniteModule:
    payload = _fields(payload, {"add", "act", "zero", "label"}, "a module payload")
    add = _ints(payload["add"], 2, "add", InvalidModuleError)
    if not isinstance(payload["label"], str):
        raise InvalidModuleError(f"non-string label {payload['label']!r}")
    module = FiniteModule(
        ring=ring,
        add=add,
        zero=_ints(payload["zero"], 0, "zero", InvalidModuleError),
        act=_ints(payload["act"], 2, "act", InvalidModuleError),
        label=payload["label"],
        names=tuple(str(i) for i in range(len(add))),
    )
    check_module_axioms(module)
    return module


# ---------------------------------------------------------------------------
# false essentiality verdicts


def collect_false_essential_witnesses(
    corpus: Sequence[Instance], caps: Caps = DEFAULT_CAPS, limit: int = 0
) -> list[dict]:
    """Every false verdict the deciders produce on the corpus, as a
    self-contained payload.

    The oracle and the fast route are both u-S-essential deciders; the fast
    route's payload is kept only when its witness differs from the oracle's,
    so no payload is collected twice.
    """
    out: list[dict] = []
    for inst in corpus:
        if inst.submodule is None:
            continue
        if limit and len(out) >= limit:
            break
        try:
            b = build_instance(inst, caps)
        except ResourceExceededError:
            continue
        k = b.submodule
        us_payloads: list[dict] = []
        for verdict in (
            is_u_S_essential_oracle(k, b.module, b.mset, caps),
            is_u_S_essential_fast(k, b.module, b.mset),
        ):
            if verdict.verdict:
                continue
            payload = {
                "kind": "u-S-essential-false",
                "instance": inst.to_json(),
                "counterexample_L": list(verdict.counterexample_L.members),
                "s1": verdict.witness_s_pair[0],
            }
            if payload not in us_payloads:
                us_payloads.append(payload)
        out.extend(us_payloads)
        ess = is_essential(k, b.module, caps)
        if not ess.verdict:
            out.append(
                {
                    "kind": "essential-false",
                    "instance": inst.to_json(),
                    "counterexample_L": list(ess.counterexample_L.members),
                }
            )
    return out


def replay_essential_witness(payload: dict, caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-check a false verdict from the payload alone.  K is the
    instance's submodule, rebuilt from its generators.  A payload of another
    kind, or missing a field its kind needs, is refused with ConfigError."""
    kind = _fields(payload, {"kind"}, "an essentiality witness")["kind"]
    if kind not in ("essential-false", "u-S-essential-false"):
        raise ConfigError(f"an essentiality witness cannot have kind {kind!r}")
    needed = {"instance", "counterexample_L"} | ({"s1"} if kind == "u-S-essential-false" else set())
    _fields(payload, needed, f"a {kind} witness")
    inst = Instance.from_json(payload["instance"])
    if inst.submodule is None:
        raise ConfigError("an essentiality witness needs an instance with a submodule")
    b = build_instance(inst, caps)
    module = b.module
    kset = b.submodule.member_set()
    lset = set(_ints(payload["counterexample_L"], 1, "counterexample_L", DomainError))
    if not lset <= set(module.elements()):
        return False
    # the counterexample must be a genuine submodule
    try:
        check_submodule(Submodule(module, tuple(sorted(lset))))
    except DomainError:
        return False
    meet = kset & lset
    if kind == "essential-false":
        return meet == {module.zero} and lset != {module.zero}
    s1 = _ints(payload["s1"], 0, "s1", DomainError)
    if s1 not in set(b.mset.members):
        return False
    meet_killed = all(module.act[s1][x] == module.zero for x in meet)
    l_unkilled = all(
        any(module.act[s][x] != module.zero for x in lset) for s in b.mset.members
    )
    return meet_killed and l_unkilled


# ---------------------------------------------------------------------------
# refuted injectivity reports


def collect_refuted_reports(
    corpus: Sequence[Instance],
    caps: Caps = DEFAULT_CAPS,
    limit: int = 0,
    max_module: int = 12,
) -> list[dict]:
    """Run the certification pipeline over the corpus modules and serialize
    every refutation the bounded test produces."""
    out: list[dict] = []
    seen: set[tuple] = set()
    for inst in corpus:
        key = (inst.ring, inst.mset, inst.module)
        if key in seen:
            continue
        seen.add(key)
        if limit and len(out) >= limit:
            break
        try:
            b = build_instance(inst, caps)
        except ResourceExceededError:
            continue
        if b.module.size > max_module:
            continue
        try:
            report = certify_u_S_injective(b.module, b.mset, caps)
        except ResourceExceededError:
            continue
        if report.verdict != "refuted":
            continue
        f, h = report.witness
        out.append(
            {
                "kind": "u-S-injectivity-refuted",
                "instance": inst.to_json(),
                "f": {
                    "source": serialize_module(f.source),
                    "target": serialize_module(f.target),
                    "map": list(f.map),
                },
                "h": list(h.map),
            }
        )
    return out


def replay_refuted_payload(payload: dict, caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-verify a refutation (f, h) from the payload alone: for every member
    s of the set, h: A -> E admits no g: B -> E with s.h = g.f (exhaustive
    g-scan on freshly rebuilt modules).  A payload of another kind, or
    missing a field, is refused with ConfigError."""
    kind = _fields(payload, {"kind", "instance", "f", "h"}, "a refutation")["kind"]
    if kind != "u-S-injectivity-refuted":
        raise ConfigError(f"a refutation cannot have kind {kind!r}")
    fpayload = _fields(payload["f"], {"source", "target", "map"}, "a refuted map")
    fmap = _ints(fpayload["map"], 1, "map", DomainError)
    hmap = _ints(payload["h"], 1, "h", DomainError)
    b = build_instance(Instance.from_json(payload["instance"]), caps)
    source = deserialize_module(b.ring, fpayload["source"])
    target = deserialize_module(b.ring, fpayload["target"])
    f, h = Homomorphism(source, target, fmap), Homomorphism(source, b.module, hmap)
    check_homomorphism(f)
    check_homomorphism(h)
    try:
        return replay_refuted(b.module, b.mset, (f, h), caps)
    except ResourceExceededError:
        return False
