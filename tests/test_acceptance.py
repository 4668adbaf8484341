"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criteria and tolerances are pinned here; nothing is deferred to later
calibration.
"""
import hashlib
import json
import time

from usmod.corpus import Bounds, build_instance, generate_corpus
from usmod.essential import (
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    quotient_characterization,
)
from usmod.injective import (
    check_u_S_envelope,
    classify_injective_zmod,
    endomorphism_condition,
    is_injective_baer,
)
from usmod.laws import REGISTRY, run_laws, tally
from usmod.modules import (
    all_submodules,
    cyclic_submodule,
    cyclic_zmod_module,
    direct_sum_many,
    regular_module,
    submodule_as_module,
    zero_module,
)
from usmod.rings import make_zmod, mult_set_closure
from usmod.search import search_counterexamples
from usmod.storsion import is_u_S_mono
from usmod.witnesses import (
    collect_false_essential_witnesses,
    collect_refuted_reports,
    replay_essential_witness,
    replay_refuted_payload,
)

ACCEPTANCE_SEED = 42
ACCEPTANCE_BOUNDS = Bounds(max_ring=36, max_module=64, max_instances=600)
# sha256 of every (law_id, instance key, verdict, detail, witness) of the
# acceptance law run, wall time left out: the behaviour any refactor keeps.
ACCEPTANCE_LAW_DIGEST = "ceede4b14524e623be0c79c9da8204c76e4e82260c4accb2633a45013a973a27"

_corpus_cache = {}


def acceptance_corpus():
    if "corpus" not in _corpus_cache:
        _corpus_cache["corpus"] = generate_corpus(ACCEPTANCE_SEED, ACCEPTANCE_BOUNDS)
    return _corpus_cache["corpus"]


def report(criterion: str, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"{mark} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_running_example_exact():
    """u-S-essential true / essential false with the pinned witnesses, < 1 s."""
    start = time.perf_counter()
    ring = make_zmod(6)
    mset = mult_set_closure(ring, [4])
    module = regular_module(ring)
    k = cyclic_submodule(module, 2)
    us = is_u_S_essential_oracle(k, module, mset)
    fast = is_u_S_essential_fast(k, module, mset)
    ess = is_essential(k, module)
    elapsed = time.perf_counter() - start
    ok = (
        us.verdict is True
        and fast.verdict is True
        and ess.verdict is False
        and ess.counterexample_L.members == (0, 3)
        and us.witness_s_pair[1] == 4
        and elapsed < 1.0
    )
    report(
        "criterion 1 (running example)",
        ok,
        f"u-S-essential={us.verdict}, essential={ess.verdict}, "
        f"L={ess.counterexample_L.members}, s={us.witness_s_pair[1]}, {elapsed:.3f}s",
    )


def test_criterion_2_envelope_example():
    """The inclusion of 2Z6 into Z6 is certified as an envelope, < 1 s."""
    start = time.perf_counter()
    ring = make_zmod(6)
    mset = mult_set_closure(ring, [4])
    module = regular_module(ring)
    k = cyclic_submodule(module, 2)
    _, incl = submodule_as_module(k)
    mono = is_u_S_mono(incl, mset)
    baer = is_injective_baer(module).verdict == "injective"
    cand = check_u_S_envelope(incl, mset)
    definitional = endomorphism_condition(incl, mset)
    elapsed = time.perf_counter() - start
    ok = (
        mono
        and baer
        and cand.essential_verdict.verdict
        and definitional
        and elapsed < 1.0
    )
    report(
        "criterion 2 (envelope example)",
        ok,
        f"mono={mono}, baer={baer}, essential-image (envelope)={cand.essential_verdict.verdict}, "
        f"endomorphisms={definitional}, {elapsed:.3f}s",
    )


def test_criterion_3_oracle_equivalence():
    """fast == oracle == quotient route on >= 500 instances, 0 disagreements, < 60 s."""
    start = time.perf_counter()
    corpus = acceptance_corpus()
    checked = 0
    disagreements = []
    for inst in corpus:
        if inst.submodule is None:
            continue
        built = build_instance(inst)
        k, module, mset = built.submodule, built.module, built.mset
        fast = is_u_S_essential_fast(k, module, mset).verdict
        oracle = is_u_S_essential_oracle(k, module, mset).verdict
        qc = quotient_characterization(k, module, mset)
        checked += 1
        if not (fast == oracle == qc):
            disagreements.append(inst.key())
    elapsed = time.perf_counter() - start
    ok = checked >= 500 and not disagreements and elapsed < 60.0
    report(
        "criterion 3 (oracle equivalence)",
        ok,
        f"{checked} instances, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_4_law_suite_green():
    """Every registered law: 0 violated across the corpus, the pinned digest
    of every result, < 5 min."""
    start = time.perf_counter()
    corpus = acceptance_corpus()
    results = run_laws(corpus)
    elapsed = time.perf_counter() - start
    tallies = tally(results)
    violated = {k: v["violated"] for k, v in tallies.items() if v["violated"]}
    all_ran = {law.law_id for law in REGISTRY} == set(tallies)
    bounded_ids = {law.law_id for law in REGISTRY if law.bounded}
    pools_reported = all(
        ("pool" in r.detail or "bounded" in r.detail or "catalogue" in r.detail)
        for r in results
        if r.law_id in bounded_ids and r.verdict == "holds"
    )
    rows = [[r.law_id, r.instance.key(), r.verdict, r.detail, r.witness] for r in results]
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    ok = (
        not violated
        and all_ran
        and pools_reported
        and digest == ACCEPTANCE_LAW_DIGEST
        and elapsed < 300.0
    )
    report(
        "criterion 4 (law suite)",
        ok,
        f"{len(results)} results, violated={sum(violated.values())}, "
        f"laws={len(tallies)}, pools_reported={pools_reported}, "
        f"digest={digest[:8]}, {elapsed:.1f}s",
    )


def _all_modules_over(n: int, max_size: int):
    ring = make_zmod(n)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    seen = set()

    def rec(start, left, picked):
        inv = tuple(sorted(picked))
        if inv not in seen:
            seen.add(inv)
            if picked:
                mods = [cyclic_zmod_module(ring, d) for d in picked]
                yield direct_sum_many(mods)[0] if len(mods) > 1 else mods[0]
            else:
                yield zero_module(ring)
        for i in range(start, len(divisors)):
            d = divisors[i]
            if d <= left:
                yield from rec(i, left // d, picked + [d])

    yield from rec(0, max_size, [])


def test_criterion_5_baer_cross_validation():
    """Baer scan == structure-theorem classification, |M| <= 64, 0 disagreements."""
    start = time.perf_counter()
    checked = 0
    disagreements = []
    for n in (2, 3, 4, 6, 8, 9, 12):
        for module in _all_modules_over(n, 64):
            baer = is_injective_baer(module).verdict == "injective"
            structural = classify_injective_zmod(module)
            checked += 1
            if baer != structural:
                disagreements.append((n, module.label))
    elapsed = time.perf_counter() - start
    ok = not disagreements and checked > 0
    report(
        "criterion 5 (Baer cross-validation)",
        ok,
        f"{checked} modules over 7 base rings, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_6_refutation_soundness():
    """Every refuted report and every false verdict replays from its payload."""
    start = time.perf_counter()
    corpus = acceptance_corpus()
    essential_payloads = collect_false_essential_witnesses(corpus[:250])
    refuted_payloads = collect_refuted_reports(corpus, limit=8)
    replayed = 0
    failures = 0
    for p in essential_payloads:
        if replay_essential_witness(json.loads(json.dumps(p))):
            replayed += 1
        else:
            failures += 1
    for p in refuted_payloads:
        if replay_refuted_payload(json.loads(json.dumps(p))):
            replayed += 1
        else:
            failures += 1
    elapsed = time.perf_counter() - start
    total = len(essential_payloads) + len(refuted_payloads)
    ok = total > 0 and failures == 0 and len(refuted_payloads) > 0
    report(
        "criterion 6 (refutation soundness)",
        ok,
        f"{replayed}/{total} witnesses replayed "
        f"({len(refuted_payloads)} refutations), {elapsed:.1f}s",
    )


def test_criterion_7_derived_finite_S_lemma():
    """tor_S(M) = Ker(sigma .) and uniform torsion == sigma annihilation,
    cross-checked against the definitional scans on every corpus instance.

    This is what makes the torsion-hypothesis of the element criterion
    automatic at this scale: no finite instance can violate it."""
    start = time.perf_counter()
    corpus = acceptance_corpus()
    seen_modules = set()
    checked = 0
    disagreements = []
    for inst in corpus:
        key = (inst.ring, inst.mset, inst.module)
        if key in seen_modules:
            continue
        seen_modules.add(key)
        built = build_instance(inst)
        module, mset = built.module, built.mset
        act_sigma = module.act[mset.sigma]
        kernel_sigma = {x for x in module.elements() if act_sigma[x] == module.zero}
        by_scan = {
            x
            for x in module.elements()
            if any(module.act[s][x] == module.zero for s in mset.members)
        }
        if kernel_sigma != by_scan:
            disagreements.append(inst.key())
            continue
        for sub in all_submodules(module):
            uniform = any(
                all(module.act[s][x] == module.zero for x in sub.members)
                for s in mset.members
            )
            sigma_kill = all(act_sigma[x] == module.zero for x in sub.members)
            if uniform != sigma_kill:
                disagreements.append(inst.key())
                break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked > 0 and not disagreements
    report(
        "criterion 7 (derived finite-S lemma)",
        ok,
        f"{checked} module instances, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_8_counterexample_search():
    """>= 5 distinct witnesses within |R| <= 12 in < 30 s; law hunts empty."""
    start = time.perf_counter()
    hits = search_counterexamples(
        "u-S-essential-not-essential", Bounds(max_ring=12), seed=0, limit=5
    )
    search_time = time.perf_counter() - start
    distinct = len({h.instance.key() for h in hits})
    small = all(build_instance(h.instance).ring.size <= 12 for h in hits)

    law_hunts_empty = True
    for law_id in ("element-criterion", "transitivity-meet", "complement",
                   "inclusion-characterization"):
        found = search_counterexamples(
            f"paper-law-{law_id}",
            Bounds(max_ring=8, max_instances=60),
            seed=0,
            limit=1,
            time_budget=30,
        )
        if found:
            law_hunts_empty = False
    ok = distinct >= 5 and small and search_time < 30.0 and law_hunts_empty
    report(
        "criterion 8 (counterexample search)",
        ok,
        f"{distinct} distinct witnesses in {search_time:.1f}s, "
        f"law hunts empty={law_hunts_empty}",
    )
