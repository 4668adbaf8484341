"""Counterexample search with greedy shrinking.

Registered claims cover the converses the statements leave open (an
instance that is uniformly-S-essential but not essential is expected and
archived as an artifact) and violation hunts for every registered law
(expected to come back empty).  Shrinking never leaves the ring family:
a Z/n witness shrinks through the divisors of n, then through smaller
multiplicative sets, ambient modules and submodules, re-verifying the
claim after every step.  The hits of one search call often shrink through
the same candidates, so the call keeps a memo of each candidate's size and
claim result, and of each variant's candidates, that all its shrinks share;
it lives no longer than the call, and ``replay_hit`` never shares it, since
it rebuilds a hit from the serialized instance alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .caps import DEFAULT_CAPS, Caps
from .corpus import Bounds, BuiltInstance, Instance, _fields, build_instance, generate_corpus
from .errors import (
    ConfigError,
    InternalError,
    InvalidMultiplicativeSetError,
    ResourceExceededError,
)
from .essential import is_essential, is_u_S_essential_fast
from .laws import LAWS_BY_ID, VIOLATED, evaluate
from .modules import all_submodules

CheckFn = Callable[[BuiltInstance, Caps], Optional[dict]]

# What building a shrink candidate may raise: its multiplicative set's
# closure contains 0, or it exceeds a cap.  Anything else is a fault.
_CANDIDATE_ERRORS = (InvalidMultiplicativeSetError, ResourceExceededError)


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    expect_witnesses: bool  # False for claims whose searches must come back empty
    fn: CheckFn


def _check_us_not_essential(b: BuiltInstance, caps: Caps) -> Optional[dict]:
    if b.submodule is None:
        return None
    try:
        us = is_u_S_essential_fast(b.submodule, b.module, b.mset)
        ess = is_essential(b.submodule, b.module, caps)
    except ResourceExceededError:
        return None
    if us.verdict and not ess.verdict:
        return {
            "submodule": list(b.submodule.members),
            "essential_counterexample_L": list(ess.counterexample_L.members),
        }
    return None


def _check_essential_not_us(b: BuiltInstance, caps: Caps) -> Optional[dict]:
    """Open search target: provably empty for finite multiplicative sets
    (some power of sigma is a nonzero idempotent in S, and idempotent
    witnesses force essential submodules to be uniformly essential), but the
    bounded confirmation runs anyway."""
    if b.submodule is None:
        return None
    try:
        ess = is_essential(b.submodule, b.module, caps)
        us = is_u_S_essential_fast(b.submodule, b.module, b.mset)
    except ResourceExceededError:
        return None
    if ess.verdict and not us.verdict:
        return {"submodule": list(b.submodule.members)}
    return None


def _law_violation_check(law_id: str) -> CheckFn:
    law = LAWS_BY_ID[law_id]

    def check(b: BuiltInstance, caps: Caps) -> Optional[dict]:
        if law.scope == "instance" and b.submodule is None:
            return None
        verdict, witness, _ = evaluate(law, b, caps)
        if verdict == VIOLATED:
            return {"law_id": law_id, "law_witness": witness}
        return None

    return check


def claim_registry() -> dict[str, Claim]:
    claims = {
        "u-S-essential-not-essential": Claim(
            "u-S-essential-not-essential",
            "uniformly-S-essential submodule that is not essential",
            True,
            _check_us_not_essential,
        ),
        "essential-not-u-S-essential": Claim(
            "essential-not-u-S-essential",
            "essential submodule that is not uniformly-S-essential "
            "(provably empty for finite sets; bounded confirmation)",
            False,
            _check_essential_not_us,
        ),
    }
    for law_id in LAWS_BY_ID:
        cid = f"paper-law-{law_id}"
        claims[cid] = Claim(
            cid, f"violation hunt for law {law_id}", False, _law_violation_check(law_id)
        )
    return claims


CLAIMS = claim_registry()


# ---------------------------------------------------------------------------
# shrinking


def _size_key(b: BuiltInstance) -> tuple[int, int, int, int]:
    ksize = b.submodule.size if b.submodule else 0
    return (b.ring.size, b.module.size, b.mset.size, ksize)


def _variants(inst: Instance, b: BuiltInstance, caps: Caps) -> list[Instance]:
    """Candidate shrinks, strictly smaller in the size key, same ring family."""
    out: list[Instance] = []

    # smaller ring within the zmod family: divisors of n
    if inst.ring[0] == "zmod":
        n = inst.ring[1]
        for d in range(2, n):
            if n % d != 0:
                continue
            small = ("zmod", d)
            for mset_spec in _candidate_msets(d):
                out.append(
                    Instance(small, mset_spec, ("regular",), None, inst.seed, inst.size_profile)
                )

    # smaller multiplicative set: closures of single members
    if b.mset.size > 1:
        for g in b.mset.members:
            out.append(
                Instance(inst.ring, ("closure", (g,)), inst.module,
                         inst.submodule, inst.seed, inst.size_profile)
            )

    # smaller ambient module: proper submodules containing K, re-indexed
    if b.submodule is not None:
        kset = set(b.submodule.members)
        try:
            lattice = all_submodules(b.module, caps)
        except ResourceExceededError:
            lattice = ()
        for n_sub in lattice:
            if n_sub.is_whole() or not kset <= set(n_sub.members):
                continue
            index_of = {x: i for i, x in enumerate(n_sub.members)}
            gens = tuple(sorted(index_of[x] for x in b.submodule.members))
            out.append(
                Instance(
                    inst.ring,
                    inst.mset,
                    ("asmod", inst.module, n_sub.members),
                    gens,
                    inst.seed,
                    inst.size_profile,
                )
            )

        # smaller witness submodule
        for k_sub in lattice:
            if set(k_sub.members) < kset:
                out.append(
                    Instance(inst.ring, inst.mset, inst.module, k_sub.members,
                             inst.seed, inst.size_profile)
                )
    return out


def _candidate_msets(n: int) -> list[tuple]:
    out: list[tuple] = [("closure", (1 % n,))]
    for g in range(2, n):
        out.append(("closure", (g,)))
    return out


# A shrink memo lives for one search call and is shared by every hit it
# shrinks.  ``candidates`` maps each candidate to its (size key, JSON key,
# claim result), or to None when building the candidate raised one of
# _CANDIDATE_ERRORS; the claim result is _UNCHECKED until the claim is first
# evaluated there.  ``expansions`` maps each variant to its candidates.  It
# holds no built instance: a candidate is rebuilt to evaluate the claim.
_UNCHECKED = object()


@dataclass
class _Memo:
    candidates: dict[Instance, Optional[tuple]] = field(default_factory=dict)
    expansions: dict[Instance, list[Instance]] = field(default_factory=dict)
    # where the greedy shrink from an instance ends, as (instance, payload),
    # for every instance on a finished shrink path
    finished: dict[Instance, tuple[Instance, dict]] = field(default_factory=dict)


def _expand_submodules(memo: _Memo, inst: Instance, caps: Caps) -> list[Instance]:
    """For ring-shrink candidates (emitted without a submodule), instantiate
    every lattice member of the module as a candidate witness."""
    if inst.submodule is not None:
        return [inst]
    if inst not in memo.expansions:
        try:
            built = build_instance(inst, caps)
            lattice = all_submodules(built.module, caps)
        except _CANDIDATE_ERRORS:
            lattice = ()
        memo.expansions[inst] = [
            Instance(inst.ring, inst.mset, inst.module, sub.members, inst.seed, inst.size_profile)
            for sub in lattice
        ]
    return memo.expansions[inst]


def _memo_entry(memo: _Memo, cand: Instance, caps: Caps) -> Optional[tuple]:
    if cand not in memo.candidates:
        try:
            cb = build_instance(cand, caps)
        except _CANDIDATE_ERRORS:
            memo.candidates[cand] = None
        else:
            memo.candidates[cand] = (_size_key(cb), cand.key(), _UNCHECKED)
    return memo.candidates[cand]


def _claim_result(memo: _Memo, cand: Instance, claim: Claim, caps: Caps) -> Optional[dict]:
    size_key, json_key, found = memo.candidates[cand]
    if found is _UNCHECKED:
        found = claim.fn(build_instance(cand, caps), caps)
        memo.candidates[cand] = (size_key, json_key, found)
    return found


def shrink(
    inst: Instance,
    claim: Claim,
    caps: Caps = DEFAULT_CAPS,
    memo: Optional[_Memo] = None,
    payload: Optional[dict] = None,
) -> tuple[Instance, dict]:
    """Greedy shrink of a witness *inst*: keep applying the first strictly
    smaller variant that still witnesses the claim, re-verifying after every
    step.  *payload* is the claim's result on *inst* where the caller has it;
    otherwise the claim is evaluated there, and a non-witness is refused.

    *memo* is shared by every shrink of one search call (a fresh one by
    default).  The shrink from an instance depends on that instance alone,
    so a path that reaches an instance of a finished path stops there and
    ends where that path ended."""
    if payload is None:
        payload = claim.fn(build_instance(inst, caps), caps)
        if payload is None:
            raise InternalError("shrink called on a non-witness")
    memo = _Memo() if memo is None else memo
    current, current_payload = inst, payload
    path = []
    while current not in memo.finished:
        path.append(current)
        current_built = build_instance(current, caps)
        base_key = _size_key(current_built)
        scored = []
        for variant in _variants(current, current_built, caps):
            for cand in _expand_submodules(memo, variant, caps):
                entry = _memo_entry(memo, cand, caps)
                if entry is not None and entry[0] < base_key:
                    scored.append((entry[0], entry[1], cand))
        # deterministic order: smallest candidate first
        scored.sort(key=lambda t: t[:2])
        for _, _, cand in scored:
            found = _claim_result(memo, cand, claim, caps)
            if found is not None:
                current, current_payload = cand, found
                break
        else:
            memo.finished[current] = (current, current_payload)
    end = memo.finished[current]
    for visited in path:
        memo.finished[visited] = end
    return end


# ---------------------------------------------------------------------------
# the search driver


@dataclass(frozen=True)
class SearchHit:
    claim_id: str
    instance: Instance
    payload: dict

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "instance": self.instance.to_json(),
            "payload": self.payload,
        }


def search_counterexamples(
    claim_id: str,
    bounds: Bounds = Bounds(max_ring=12),
    seed: int = 0,
    limit: int = 5,
    caps: Caps = DEFAULT_CAPS,
    time_budget: float = 120.0,
) -> list[SearchHit]:
    """Scan a seeded instance stream for claim witnesses, shrink each one,
    and return up to *limit* distinct minimized hits.  A *limit* below 1 or a
    *time_budget* that is not positive is refused with ConfigError: either
    would scan nothing and pass for an empty hunt."""
    if claim_id not in CLAIMS:
        raise ConfigError(f"unknown claim {claim_id!r}")
    if limit < 1:
        raise ConfigError(f"limit must be at least 1, not {limit}")
    if not time_budget > 0:
        raise ConfigError(f"time_budget must be positive, not {time_budget}")
    claim = CLAIMS[claim_id]
    hits: list[SearchHit] = []
    seen: set[Instance] = set()
    memo = _Memo()
    started = time.monotonic()
    for inst in generate_corpus(seed, bounds, caps):
        if time.monotonic() - started > time_budget:
            break
        if len(hits) >= limit:
            break
        try:
            built = build_instance(inst, caps)
        except ResourceExceededError:
            continue
        payload = claim.fn(built, caps)
        if payload is None:
            continue
        small, small_payload = shrink(inst, claim, caps, memo, payload)
        if small in seen:
            continue
        seen.add(small)
        hits.append(SearchHit(claim_id, small, small_payload))
    return hits


def replay_hit(hit_json: dict, caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-verify a serialized search hit from its instance alone."""
    claim_id = _fields(hit_json, {"claim_id", "instance"}, "a search hit payload")["claim_id"]
    claim = CLAIMS.get(claim_id) if isinstance(claim_id, str) else None
    if claim is None:
        raise ConfigError(f"unknown claim {claim_id!r}")
    inst = Instance.from_json(hit_json["instance"])
    built = build_instance(inst, caps)
    return claim.fn(built, caps) is not None
