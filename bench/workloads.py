"""The benchmark's two workloads.

Each workload has three steps, run once per fresh interpreter:

* ``setup(seed, out_dir)`` builds the inputs (timed as part of ``setup_s``);
* ``run(inputs)`` produces every verdict (timed as ``wall_s``) and times
  each item;
* ``check(inputs, outputs, seed)`` verifies the outputs against known
  answers and digests them, outside the timed region.

Workloads call the package only through module attributes
(``laws.run_laws``, not a name imported from it), so a traced run sees
every call.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field

from usmod import corpus, essential, laws, report, search, storsion
from usmod.caps import DEFAULT_CAPS

BUDGET_SKIP = "beyond the law's size budget"


@dataclass
class Outcome:
    """What ``check`` reports about one pass."""

    item_times: list[float]  # seconds per timed item, in the same order on every pass
    attempted: int
    decided: int  # items that reached a verdict
    failed: int  # items whose output failed a known-answer check
    problems: list[str]  # first few failure descriptions
    digest: str  # hash of every output, with time excluded
    layer_metrics: dict[str, float] = field(default_factory=dict)


def digest_of(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fail(problems: list[str], message: str) -> None:
    if len(problems) < 10:
        problems.append(message)


def _pinned(problems: list[str], what: str, got, expected) -> int:
    """1 (one failure) unless *got* is the known answer *expected*."""
    if got == expected:
        return 0
    _fail(problems, f"{what} is {got!r}, the known answer is {expected!r}")
    return 1


# ---------------------------------------------------------------------------
# laws-acceptance: the law registry over the acceptance corpus (seed 42)

LAWS_CORPUS_SEED = 42
LAWS_BOUNDS = corpus.Bounds(max_ring=36, max_module=64, max_instances=75)
LAWS_REPLAYS = 12
# known answers: the result count and the digest of every
# (law_id, instance, verdict, detail, witness) tuple
LAWS_RESULTS = 2280
LAWS_DIGEST = "70acdc744930c9cee619d436353429e9732dee08d09264625b7d180f6c75582c"
# the five laws with the largest summed wall time in the baseline run
SLOW_LAWS = (
    "uniform-extension-bounded",
    "envelope-essential-image",
    "envelope-properties",
    "envelope-three-way",
    "preenvelope-summand",
)


def law_metrics(results) -> dict[str, float]:
    """Summed wall time of the slowest laws and the count of resource skips
    (all zero for a workload that runs no laws)."""
    per_law = dict.fromkeys(SLOW_LAWS, 0.0)
    for r in results:
        if r.law_id in per_law:
            per_law[r.law_id] += r.wall_time
    out = {f"laws.{law_id}.s": s for law_id, s in per_law.items()}
    out["laws.skipped_resource"] = sum(1 for r in results if r.verdict == laws.SKIP_RESOURCE)
    return out


def laws_setup(seed: int, out_dir: str):
    instances = corpus.generate_corpus(LAWS_CORPUS_SEED, LAWS_BOUNDS)
    return instances, os.path.join(out_dir, f"laws-report-{os.getpid()}.json")


def laws_run(inputs):
    instances, report_path = inputs
    results = laws.run_laws(instances)
    report.emit_report(results, "json", report_path, seed=LAWS_CORPUS_SEED, caps=DEFAULT_CAPS)
    return results


def laws_check(inputs, results, seed: int) -> Outcome:
    _, report_path = inputs
    problems: list[str] = []
    failed = 0
    for r in results:
        if r.verdict == laws.VIOLATED:
            failed += 1
            _fail(problems, f"{r.law_id} violated on {r.instance.key()}")
    missing = {law.law_id for law in laws.REGISTRY} - {r.law_id for r in results}
    if missing:
        failed += 1
        _fail(problems, f"laws never evaluated: {sorted(missing)}")
    with open(report_path, encoding="utf-8") as fh:
        emitted = json.load(fh)
    os.remove(report_path)
    if emitted["total_results"] != len(results) or emitted["violations"]:
        failed += 1
        _fail(problems, "emitted report disagrees with the results")
    for r in random.Random(seed).sample(results, min(LAWS_REPLAYS, len(results))):
        payload = json.loads(json.dumps(r.to_json()))
        if laws.replay_result(payload) != r.verdict:
            failed += 1
            _fail(problems, f"{r.law_id} does not replay on {r.instance.key()}")

    digest = digest_of(
        [[r.law_id, r.instance.key(), r.verdict, r.detail, r.witness] for r in results]
    )
    failed += _pinned(problems, "result count", len(results), LAWS_RESULTS)
    failed += _pinned(problems, "output digest", digest, LAWS_DIGEST)

    return Outcome(
        item_times=[r.wall_time for r in results if r.detail != BUDGET_SKIP],
        attempted=len(results),
        decided=sum(1 for r in results if r.verdict in (laws.HOLDS, laws.VIOLATED)),
        failed=failed,
        problems=problems,
        digest=digest,
        layer_metrics=law_metrics(results),
    )


# ---------------------------------------------------------------------------
# decide-search: the three u-S-essential routes and the counterexample search

# The corpus, the order the sweep visits it in and the search stream are
# fixed (seed 0), so every run does the same work and every item meets the
# package's caches in the same state; --seed only picks the sweep instances
# that are replayed as a check.  Rings up to 48: with rings up to 64 a pass
# takes 2.5 times as long, too few passes fit in one run to be steady on a
# shared machine.
DECIDE_CORPUS_SEED = 0
DECIDE_BOUNDS = corpus.Bounds(max_ring=48, max_module=96)
SEARCH_LIMIT = 10**6  # above any achievable hit count, so the whole stream is scanned
SEARCH_BUDGET = 10**6.0  # seconds; never reached, so the work is fixed
FOUND_CLAIM = "u-S-essential-not-essential"
EMPTY_CLAIM = "essential-not-u-S-essential"
DECIDE_REPLAYS = 12
# known answers: instance count, hit count and the digest of the verdicts
# (sorted by instance key) and the hits
DECIDE_ITEMS = 3498
DECIDE_HITS = 92
DECIDE_DIGEST = "786c83c7b4fd9317cd6f16dba95e445821f7ef21e7750176de564e180c337cce"


def decide_setup(seed: int, out_dir: str):
    return corpus.generate_corpus(DECIDE_CORPUS_SEED, DECIDE_BOUNDS)


def decide_run(instances):
    clock = time.perf_counter
    sweep = []
    for inst in instances:
        start = clock()
        b = corpus.build_instance(inst)
        if b.submodule is None:
            sweep.append((None, clock() - start))
            continue
        k, m, s = b.submodule, b.module, b.mset
        verdicts = (
            essential.is_u_S_essential_fast(k, m, s),
            essential.is_u_S_essential_oracle(k, m, s),
            essential.quotient_characterization(k, m, s),
            essential.is_essential(k, m),
            storsion.s_torsion_submodule(m, s),
            essential.u_S_complement(k, m, s),
        )
        sweep.append((verdicts, clock() - start))
    found, empty = (
        search.search_counterexamples(
            claim, DECIDE_BOUNDS, seed=DECIDE_CORPUS_SEED, limit=SEARCH_LIMIT,
            time_budget=SEARCH_BUDGET,
        )
        for claim in (FOUND_CLAIM, EMPTY_CLAIM)
    )
    return sweep, found, empty


def _route_verdicts(verdicts):
    if verdicts is None:
        return None
    fast, oracle, quotient, ess = verdicts[:4]
    return [fast.verdict, oracle.verdict, quotient, ess.verdict]


def _decide_replay(inst: corpus.Instance):
    """The four route verdicts for an instance rebuilt from its JSON form."""
    b = corpus.build_instance(corpus.Instance.from_json(json.loads(json.dumps(inst.to_json()))))
    if b.submodule is None:
        return None
    k, m, s = b.submodule, b.module, b.mset
    return [
        essential.is_u_S_essential_fast(k, m, s).verdict,
        essential.is_u_S_essential_oracle(k, m, s).verdict,
        essential.quotient_characterization(k, m, s),
        essential.is_essential(k, m).verdict,
    ]


def decide_check(instances, outputs, seed: int) -> Outcome:
    sweep, found, empty = outputs
    problems: list[str] = []
    failed = 0
    rows = []
    for inst, (verdicts, _) in zip(instances, sweep):
        if verdicts is None:
            rows.append([inst.key(), None])
            continue
        fast, oracle, quotient, ess, torsion, (complement, complement_checks) = verdicts
        ok = (
            fast.verdict == oracle.verdict == quotient
            and (fast.verdict or not ess.verdict)  # essential implies u-S-essential
            and all(complement_checks)
        )
        if not ok:
            failed += 1
            _fail(problems, f"decider routes disagree on {inst.key()}")
        rows.append([
            inst.key(),
            _route_verdicts(verdicts),
            [list(v.counterexample_L.members) if v.counterexample_L else None
             for v in (fast, oracle, ess)],
            [fast.witness_s_pair, oracle.witness_s_pair],
            list(torsion.members),
            list(complement.members),
            list(complement_checks),
        ])
    for i in random.Random(seed).sample(range(len(instances)), min(DECIDE_REPLAYS, len(instances))):
        if _decide_replay(instances[i]) != _route_verdicts(sweep[i][0]):
            failed += 1
            _fail(problems, f"verdicts do not replay on {instances[i].key()}")
    hits = [h.to_json() for h in found]
    for hit in hits:
        if not search.replay_hit(json.loads(json.dumps(hit))):
            failed += 1
            _fail(problems, f"search hit does not replay: {hit['instance']}")
    if len({json.dumps(h["instance"], sort_keys=True) for h in hits}) != len(hits):
        failed += 1
        _fail(problems, "search returned duplicate hits")
    if empty:
        failed += 1
        _fail(problems, f"{EMPTY_CLAIM} returned {len(empty)} hits; it must be empty")
    digest = digest_of([sorted(rows), hits])
    failed += _pinned(problems, "instance count", len(sweep), DECIDE_ITEMS)
    failed += _pinned(problems, f"{FOUND_CLAIM} hit count", len(hits), DECIDE_HITS)
    failed += _pinned(problems, "output digest", digest, DECIDE_DIGEST)
    return Outcome(
        item_times=[t for _, t in sweep],
        attempted=len(sweep),
        decided=sum(1 for verdicts, _ in sweep if verdicts is not None),
        failed=failed,
        problems=problems,
        digest=digest,
    )


WORKLOADS = {
    "laws-acceptance": (laws_setup, laws_run, laws_check),
    "decide-search": (decide_setup, decide_run, decide_check),
}
