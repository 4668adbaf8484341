"""Counterexample search with greedy shrinking.

Registered claims cover the converses the statements leave open (an
instance that is uniformly-S-essential but not essential is expected and
archived as an artifact) and violation hunts for every registered law
(expected to come back empty).  Shrinking never leaves the ring family:
a Z/n witness shrinks through the divisors of n, then through smaller
multiplicative sets, ambient modules and submodules, re-verifying the
claim after every step.  The hits of one search call often shrink through
the same candidates, so the call keeps a memo that all its shrinks share:
each candidate's size, built instance and claim result, each variant's
candidates, and for each ring the first witness on a smaller ring, which
every round on that ring tries first, since smaller rings sort first.  The
memo lives no longer than the call, and ``replay_hit`` never shares it,
since it rebuilds a hit from the serialized instance alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
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
        if not is_u_S_essential_fast(b.submodule, b.module, b.mset).verdict:
            return None
        ess = is_essential(b.submodule, b.module, caps)
    except ResourceExceededError:
        return None
    if not ess.verdict:
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
        if not is_essential(b.submodule, b.module, caps).verdict:
            return None
        us = is_u_S_essential_fast(b.submodule, b.module, b.mset)
    except ResourceExceededError:
        return None
    if not us.verdict:
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


def _smaller_ring_variants(inst: Instance) -> list[Instance]:
    """Ring shrinks within the zmod family: Z/d over itself for each proper
    divisor d of n, with each single-generator closure as the set and no
    submodule yet.  They depend on the ring, seed and size profile alone."""
    if inst.ring[0] != "zmod":
        return []
    n = inst.ring[1]
    return [
        Instance(("zmod", d), ("closure", (g,)), ("regular",), None, inst.seed, inst.size_profile)
        for d in range(2, n)
        if n % d == 0
        for g in range(1, d)
    ]


def _variants(inst: Instance, b: BuiltInstance, caps: Caps) -> list[Instance]:
    """Candidate shrinks on the same ring, to be kept only where strictly
    smaller in the size key."""
    out: list[Instance] = []

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


# A shrink memo lives for one search call and is shared by every hit it
# shrinks.  ``candidates`` maps each candidate to its (size key, built
# instance, claim result), or to None when building the candidate raised one
# of _CANDIDATE_ERRORS; the claim result is _UNCHECKED until the claim is
# first evaluated on the kept built instance.  ``expansions`` maps each
# variant without a submodule to its candidates.  ``smaller_rings`` maps each
# (ring, seed, size profile) to the first witness among the candidates on a
# smaller ring, as (instance, payload), or to None where there is none.
_UNCHECKED = object()


@dataclass
class _Memo:
    candidates: dict[Instance, Optional[tuple]] = field(default_factory=dict)
    expansions: dict[Instance, list[Instance]] = field(default_factory=dict)
    smaller_rings: dict[tuple, Optional[tuple[Instance, dict]]] = field(default_factory=dict)
    # where the greedy shrink from an instance ends, as (instance, payload),
    # for every instance on a finished shrink path
    finished: dict[Instance, tuple[Instance, dict]] = field(default_factory=dict)

    def record(self, inst: Instance, built: BuiltInstance, found=_UNCHECKED) -> None:
        self.candidates[inst] = (_size_key(built), built, found)

    def claim_result(self, inst: Instance, claim: Claim, caps: Caps) -> Optional[dict]:
        """The claim's result on the recorded *inst*, evaluated on first use
        on the built instance kept there."""
        _, built, found = self.candidates[inst]
        if found is _UNCHECKED:
            found = claim.fn(built, caps)
            self.record(inst, built, found)
        return found


def _expand_submodules(memo: _Memo, inst: Instance, caps: Caps) -> list[Instance]:
    """For variants emitted without a submodule, instantiate every lattice
    member of the module as a candidate witness."""
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


def _first_witness(
    memo: _Memo, variants: list[Instance], claim: Claim, caps: Caps, below: Optional[tuple] = None
) -> Optional[tuple[Instance, dict]]:
    """The first candidate of *variants* that witnesses *claim*, as
    (instance, payload), or None.  Candidates are tried smallest size key
    first, among those below *below* (all of them where it is None); the
    JSON key breaks ties, and is computed only inside a group of equal size
    keys that the scan reaches."""
    scored = []
    candidates = memo.candidates
    for variant in variants:
        for cand in _expand_submodules(memo, variant, caps):
            entry = candidates.get(cand, _UNCHECKED)
            if entry is _UNCHECKED:
                try:
                    memo.record(cand, build_instance(cand, caps))
                except _CANDIDATE_ERRORS:
                    candidates[cand] = None
                entry = candidates[cand]
            if entry is not None and (below is None or entry[0] < below):
                scored.append((entry[0], cand))
    scored.sort(key=itemgetter(0))
    for _, group in groupby(scored, key=itemgetter(0)):
        tied = [cand for _, cand in group]
        if len(tied) > 1:
            tied.sort(key=Instance.key)
        for cand in tied:
            found = memo.claim_result(cand, claim, caps)
            if found is not None:
                return cand, found
    return None


def _shrink_step(
    memo: _Memo, inst: Instance, built: BuiltInstance, claim: Claim, caps: Caps
) -> Optional[tuple[Instance, dict]]:
    """One greedy round: the smallest strictly smaller witness of *claim*
    reachable from *inst*, or None.  Every candidate on a smaller ring sorts
    before every candidate on *inst*'s own ring, and those candidates depend
    on (ring, seed, size profile) alone, so their first witness is scored
    once per search call; the same-ring candidates are scored only when
    there is none."""
    ring_key = (inst.ring, inst.seed, inst.size_profile)
    hit = memo.smaller_rings.get(ring_key, _UNCHECKED)
    if hit is _UNCHECKED:
        hit = memo.smaller_rings[ring_key] = _first_witness(
            memo, _smaller_ring_variants(inst), claim, caps
        )
    if hit is not None:
        return hit
    return _first_witness(memo, _variants(inst, built, caps), claim, caps, _size_key(built))


def shrink(
    inst: Instance,
    claim: Claim,
    caps: Caps = DEFAULT_CAPS,
    memo: Optional[_Memo] = None,
) -> tuple[Instance, dict]:
    """Greedy shrink of a witness *inst*: keep applying the first strictly
    smaller variant that still witnesses the claim, re-verifying after every
    step.  The claim is evaluated on *inst* unless *memo* already records
    its result there, as the search does for the witness it has just built;
    a non-witness is refused.

    *memo* is shared by every shrink of one search call (a fresh one by
    default).  The shrink from an instance depends on that instance alone,
    so a path that reaches an instance of a finished path stops there and
    ends where that path ended.

    A round costs one dict lookup for the first witness on a smaller ring,
    scored in the first round on each ring.  Only where there is none does
    it list the same-ring variants (a scan of M's lattice) and look each
    candidate up in the memo, building it on first sight; it then evaluates
    the claim, once per search call, on the kept build of each strictly
    smaller candidate in order up to the first witness.  The first round
    scoring a ring costs the same over the candidates on its proper
    divisors' rings."""
    memo = _Memo() if memo is None else memo
    if memo.candidates.get(inst) is None:
        memo.record(inst, build_instance(inst, caps))
    if memo.claim_result(inst, claim, caps) is None:
        raise InternalError("shrink called on a non-witness")
    current, path = inst, []
    while current not in memo.finished:
        path.append(current)
        _, built, payload = memo.candidates[current]
        step = _shrink_step(memo, current, built, claim, caps)
        if step is None:
            memo.finished[current] = (current, payload)
        else:
            current = step[0]
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
        memo.record(inst, built, payload)
        small, small_payload = shrink(inst, claim, caps, memo)
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
