import dataclasses
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from usmod.caps import DEFAULT_CAPS, Caps, caps_from_env
from usmod.cli import main
from usmod.corpus import Bounds, Instance, build_instance, build_ring, generate_corpus
from usmod import corpus, laws, search
from usmod.dsl import parse_program
from usmod.errors import (
    ConfigError,
    DomainError,
    InternalError,
    InvalidMultiplicativeSetError,
    ResourceExceededError,
)
from usmod.laws import LAWS_BY_ID, REGISTRY, evaluate, run_laws, replay_result, tally
from usmod.modules import all_submodules
from usmod.report import render_report
from usmod.search import Claim, SearchHit, replay_hit, search_counterexamples, shrink
from usmod.witnesses import (
    collect_false_essential_witnesses,
    collect_refuted_reports,
    replay_essential_witness,
    replay_refuted_payload,
    serialize_module,
)


SMALL = Bounds(max_ring=8, max_instances=80)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(7, SMALL)


@pytest.fixture(scope="module")
def small_results(small_corpus):
    return run_laws(small_corpus)


def test_corpus_determinism():
    a = generate_corpus(42, SMALL)
    b = generate_corpus(42, SMALL)
    assert [i.key() for i in a] == [i.key() for i in b]
    c = generate_corpus(43, SMALL)
    assert [i.key() for i in a] != [i.key() for i in c]


def test_corpus_pins_running_example(small_corpus):
    first = small_corpus[0]
    assert first.ring == ("zmod", 6)
    assert first.mset == ("closure", (4,))
    keys = {(i.ring, i.mset, i.module, i.submodule) for i in small_corpus}
    assert (("zmod", 6), ("closure", (4,)), ("regular",), (2,)) in keys


def test_corpus_respects_bounds():
    corpus = generate_corpus(1, Bounds(max_ring=2, max_instances=20))
    for inst in corpus:
        built = build_instance(inst)
        assert built.ring.size == 2


def test_bounds_validated():
    with pytest.raises(ConfigError):
        generate_corpus(1, Bounds(max_ring=100), Caps(max_ring=64))


def test_instance_roundtrip(small_corpus):
    for inst in small_corpus[:20]:
        again = Instance.from_json(json.loads(json.dumps(inst.to_json())))
        assert again == inst
        built = build_instance(again)
        assert built.module.size >= 1


def test_registry_covers_expected_laws():
    expected = {
        "sigma-shortcut",
        "torsion-submodule-uniform",
        "uniform-noetherian",
        "definition-via-torsion",
        "element-criterion",
        "essential-element-criterion",
        "regular-set-degeneration",
        "torsion-ambient-essential",
        "max-ideal-upgrade",
        "prime-upgrade",
        "prime-spectrum-equivalence",
        "transitivity-meet",
        "transport",
        "direct-sum-pair",
        "direct-sum-many",
        "complement",
        "inclusion-characterization",
        "essential-mono-characterization",
        "mono-composition",
        "twisted-transfer",
        "envelope-essential-image",
        "preenvelope-characterization",
        "envelope-uniqueness",
        "preenvelope-summand",
        "envelope-three-way",
        "envelope-properties",
        "envelope-direct-sum",
        "prime-classical-envelope-sum",
        "uniform-extension-bounded",
        "running-example",
        "running-example-envelope",
    }
    assert expected <= set(LAWS_BY_ID)


def test_no_law_violated_on_small_corpus(small_results):
    t = tally(small_results)
    violated = {k: v for k, v in t.items() if v["violated"]}
    assert violated == {}
    # every law produced at least one non-skip verdict somewhere
    assert all(t[law.law_id]["holds"] > 0 for law in REGISTRY), t


def test_law_filter(small_corpus):
    res = run_laws(small_corpus, ["element-criterion"])
    assert res and all(r.law_id == "element-criterion" for r in res)


def test_results_replay(small_results):
    # holds-verdicts replay identically from the serialized instance
    sample = [r for r in small_results if r.verdict == "holds"][:25]
    for r in sample:
        assert replay_result(r.to_json()) == "holds"


def test_evaluate_skips_over_budget_with_the_reason(monkeypatch):
    """run_laws, replay_result and the violation hunts share one evaluation:
    an instance beyond the size budget, or a cap hit inside the law, is a
    skip carrying the reason, never a verdict."""
    law = LAWS_BY_ID["element-criterion"]
    built = build_instance(RUNNING_EXAMPLE)
    assert evaluate(law, built)[0] == "holds"
    small = dataclasses.replace(law, max_module=built.module.size - 1)
    assert evaluate(small, built) == ("skipped-resource", None, "beyond the law's size budget")

    def over_cap(built, caps, fx):
        raise ResourceExceededError("hom search over cap")

    capped = dataclasses.replace(law, fn=over_cap)
    assert evaluate(capped, built) == ("skipped-resource", None, "hom search over cap")
    monkeypatch.setitem(laws.LAWS_BY_ID, law.law_id, capped)
    (result,) = run_laws([RUNNING_EXAMPLE], [law.law_id])
    assert (result.verdict, result.witness, result.detail) == (
        "skipped-resource", None, "hom search over cap"
    )
    assert replay_result(result.to_json()) == "skipped-resource"
    assert search._law_violation_check(law.law_id)(built, Caps()) is None


def test_search_finds_running_example_fast():
    hits = search_counterexamples(
        "u-S-essential-not-essential", Bounds(max_ring=12), seed=0, limit=5
    )
    assert len(hits) >= 5
    keys = {h.instance.key() for h in hits}
    assert len(keys) == len(hits)
    for h in hits:
        built = build_instance(h.instance)
        assert built.ring.size <= 12
        assert replay_hit(json.loads(json.dumps(h.to_json())))


def test_search_shrinks_within_family():
    hits = search_counterexamples(
        "u-S-essential-not-essential", Bounds(max_ring=12), seed=0, limit=5
    )
    for h in hits:
        assert h.instance.ring[0] == "zmod"


def test_impossible_claim_returns_empty():
    hits = search_counterexamples(
        "essential-not-u-S-essential",
        Bounds(max_ring=8, max_instances=120),
        seed=0,
        limit=1,
        time_budget=60,
    )
    assert hits == []


def test_shrink_refuses_a_non_witness(small_corpus):
    claim = Claim("never", "holds on no instance", True, lambda built, caps: None)
    with pytest.raises(InternalError, match="non-witness"):
        shrink(small_corpus[0], claim)


RUNNING_EXAMPLE = Instance(("zmod", 6), ("closure", (4,)), ("regular",), (2,), 0, (8, 64))


def _failing_candidate_builds(monkeypatch, error: Exception) -> None:
    """Build only the running example; every shrink candidate raises *error*."""

    def build(inst, caps):
        if inst == RUNNING_EXAMPLE:
            return build_instance(inst, caps)
        raise error

    monkeypatch.setattr(search, "build_instance", build)


def test_shrink_lets_an_internal_error_through(monkeypatch):
    _failing_candidate_builds(monkeypatch, InternalError("candidate build broke"))
    claim = Claim("always", "holds on every instance", True, lambda built, caps: {})
    with pytest.raises(InternalError, match="candidate build broke"):
        shrink(RUNNING_EXAMPLE, claim)


@pytest.mark.parametrize(
    "error",
    [InvalidMultiplicativeSetError("closure contains 0"), ResourceExceededError("cap")],
)
def test_shrink_skips_candidates_that_cannot_be_built(monkeypatch, error):
    _failing_candidate_builds(monkeypatch, error)
    claim = Claim("always", "holds on every instance", True, lambda built, caps: {})
    assert shrink(RUNNING_EXAMPLE, claim) == (RUNNING_EXAMPLE, {})


def _search_without_memo(claim, bounds, seed, shrinker=shrink):
    """The search driver with every hit shrunk by a fresh ``shrinker`` call."""
    hits, seen = [], set()
    for inst in generate_corpus(seed, bounds):
        try:
            built = build_instance(inst)
        except ResourceExceededError:
            continue
        if claim.fn(built, DEFAULT_CAPS) is None:
            continue
        small, payload = shrinker(inst, claim)
        if small.key() not in seen:
            seen.add(small.key())
            hits.append(SearchHit(claim.claim_id, small, payload))
    return hits


@pytest.mark.parametrize(
    "claim_id", ["u-S-essential-not-essential", "essential-not-u-S-essential"]
)
def test_search_memo_matches_fresh_shrinks(claim_id, monkeypatch):
    """The memo one search call shares changes no hit.  A shrink that
    reaches an instance of a finished shrink path stops there, so where
    hits share a path the search runs fewer greedy rounds than fresh
    shrinks do."""
    rounds = []
    real = search._shrink_step

    def counting(memo, current, built, claim, caps):
        rounds.append(current)
        return real(memo, current, built, claim, caps)

    monkeypatch.setattr(search, "_shrink_step", counting)
    bounds = Bounds(max_ring=12)
    got = search_counterexamples(claim_id, bounds, seed=0, limit=10**6, time_budget=1e6)
    shared = len(rounds)
    want = _search_without_memo(search.CLAIMS[claim_id], bounds, 0)
    fresh = len(rounds) - shared
    assert [h.to_json() for h in got] == [h.to_json() for h in want]
    assert len(set(rounds[:shared])) == shared  # no instance is shrunk from twice
    assert shared < fresh if claim_id == "u-S-essential-not-essential" else shared == fresh == 0


def _reference_candidates(inst, b):
    """Every shrink candidate of *inst* (built as *b*): Z/n shrinks to Z/d
    over itself for each proper divisor d, with each single-generator
    closure as the set; then, on the same ring, the closures of single
    members of S, the proper submodules of M containing K (K re-indexed in
    them) and the proper submodules of K.  A variant without a submodule
    stands for every member of its module's lattice."""
    seed, profile = inst.seed, inst.size_profile
    variants = []
    if inst.ring[0] == "zmod":
        n = inst.ring[1]
        variants += [
            Instance(("zmod", d), ("closure", (g,)), ("regular",), None, seed, profile)
            for d in range(2, n)
            if n % d == 0
            for g in range(1, d)
        ]
    if b.mset.size > 1:
        variants += [dataclasses.replace(inst, mset=("closure", (g,))) for g in b.mset.members]
    if b.submodule is not None:
        k = set(b.submodule.members)
        try:
            lattice = all_submodules(b.module)
        except ResourceExceededError:
            lattice = ()
        for n_sub in lattice:
            if not n_sub.is_whole() and k <= set(n_sub.members):
                gens = tuple(sorted(n_sub.members.index(x) for x in k))
                module = ("asmod", inst.module, n_sub.members)
                variants.append(dataclasses.replace(inst, module=module, submodule=gens))
        variants += [dataclasses.replace(inst, submodule=s.members) for s in lattice if set(s.members) < k]
    for variant in variants:
        if variant.submodule is not None:
            yield variant
            continue
        try:
            lattice = all_submodules(build_instance(variant).module)
        except (InvalidMultiplicativeSetError, ResourceExceededError):
            continue
        yield from (dataclasses.replace(variant, submodule=s.members) for s in lattice)


def _size_key(b):
    return (b.ring.size, b.module.size, b.mset.size, b.submodule.size if b.submodule else 0)


def _reference_shrink(inst, claim, steps):
    """The greedy shrink with nothing kept between rounds or shrinks: each
    round builds every candidate, sorts the strictly smaller ones by (size
    key, JSON key) and takes the first witness, built afresh.  Each round's
    step is recorded in *steps*, mapping the instance to the next one (None
    at the end)."""
    current = inst
    payload = claim.fn(build_instance(current), DEFAULT_CAPS)
    while True:
        b = build_instance(current)
        scored = []
        for cand in _reference_candidates(current, b):
            try:
                size = _size_key(build_instance(cand))
            except (InvalidMultiplicativeSetError, ResourceExceededError):
                continue
            if size < _size_key(b):
                scored.append((size, cand.key(), cand))
        scored.sort(key=lambda t: t[:2])
        for _, _, cand in scored:
            found = claim.fn(build_instance(cand), DEFAULT_CAPS)
            if found is not None:
                steps[current] = cand
                current, payload = cand, found
                break
        else:
            steps[current] = None
            return current, payload


ALWAYS = Claim("always", "holds on every instance", True, lambda built, caps: {})


@pytest.mark.parametrize(
    "bounds",
    [Bounds(max_ring=12), Bounds(max_ring=16, max_instances=240)],
    ids=["ring-12", "ring-16-sample"],
)
@pytest.mark.parametrize(
    "claim_id", ["u-S-essential-not-essential", "essential-not-u-S-essential", "always"]
)
def test_search_matches_a_reference_shrink(claim_id, bounds, monkeypatch):
    """The search's hits are those of the plain greedy shrink: every
    candidate built and sorted by (size key, JSON key) in every round, and
    every round the search runs takes that shrink's step.  Both corpora hold
    Z/n, product and trivial-extension rings, and the claim that always
    holds shrinks every instance of each."""
    monkeypatch.setitem(search.CLAIMS, ALWAYS.claim_id, ALWAYS)
    claim = search.CLAIMS[claim_id]
    assert {i.ring[0] for i in generate_corpus(0, bounds)} == {"zmod", "product", "trivext"}
    steps, taken = {}, {}
    want = _search_without_memo(
        claim, bounds, 0, lambda inst, claim: _reference_shrink(inst, claim, steps)
    )
    real = search._shrink_step

    def recording(memo, current, built, claim, caps):
        step = real(memo, current, built, claim, caps)
        taken[current] = None if step is None else step[0]
        return step

    monkeypatch.setattr(search, "_shrink_step", recording)
    got = search_counterexamples(claim_id, bounds, seed=0, limit=10**6, time_budget=1e6)
    assert [h.to_json() for h in got] == [h.to_json() for h in want]
    assert taken.items() <= steps.items()


def test_search_builds_each_candidate_once(monkeypatch):
    """Within one search call every shrink candidate is built once, and the
    claim is evaluated on that build; the candidates on a smaller ring are
    scored once per ring."""
    bounds = Bounds(max_ring=12)
    stream = set(generate_corpus(0, bounds))
    built, scored = Counter(), Counter()

    def counting_build(inst, caps):
        built[inst] += 1
        return build_instance(inst, caps)

    real = search._smaller_ring_variants

    def counting_rings(inst):
        scored[inst.ring, inst.seed, inst.size_profile] += 1
        return real(inst)

    monkeypatch.setattr(search, "build_instance", counting_build)
    monkeypatch.setattr(search, "_smaller_ring_variants", counting_rings)
    hits = search_counterexamples(
        "u-S-essential-not-essential", bounds, seed=0, limit=10**6, time_budget=1e6
    )
    candidates = [n for inst, n in built.items() if inst not in stream]
    assert hits and candidates and max(candidates) == 1
    assert scored and max(scored.values()) == 1


def test_shrink_lets_a_same_ring_internal_error_through(monkeypatch):
    """Where no smaller ring holds a witness, the same-ring candidates are
    built, and an InternalError raised there propagates."""

    def build(inst, caps):
        if inst.ring == RUNNING_EXAMPLE.ring and inst != RUNNING_EXAMPLE:
            raise InternalError("same-ring build broke")
        return build_instance(inst, caps)

    monkeypatch.setattr(search, "build_instance", build)
    on_z6 = Claim("on-z6", "holds on Z/6 alone", True, lambda b, caps: {} if b.ring.size == 6 else None)
    with pytest.raises(InternalError, match="same-ring build broke"):
        shrink(RUNNING_EXAMPLE, on_z6)


def _search_running_example(monkeypatch, error: Exception):
    """Search a corpus of the running example alone for a claim that holds
    on every instance; building any other instance with a submodule (every
    candidate the search scores) raises *error*."""

    def build(inst, caps):
        if inst == RUNNING_EXAMPLE or inst.submodule is None:
            return build_instance(inst, caps)
        raise error

    monkeypatch.setattr(search, "build_instance", build)
    monkeypatch.setattr(search, "generate_corpus", lambda seed, bounds, caps: [RUNNING_EXAMPLE])
    claim = Claim("always", "holds on every instance", True, lambda built, caps: {})
    monkeypatch.setitem(search.CLAIMS, claim.claim_id, claim)
    return search_counterexamples(claim.claim_id)


def test_search_lets_an_internal_error_through(monkeypatch):
    with pytest.raises(InternalError, match="candidate build broke"):
        _search_running_example(monkeypatch, InternalError("candidate build broke"))


@pytest.mark.parametrize(
    "error",
    [InvalidMultiplicativeSetError("closure contains 0"), ResourceExceededError("cap")],
)
def test_search_skips_candidates_that_cannot_be_built(monkeypatch, error):
    hits = _search_running_example(monkeypatch, error)
    assert hits == [SearchHit("always", RUNNING_EXAMPLE, {})]


def test_search_expands_each_shrink_variant_once(monkeypatch):
    """A ring-shrink variant (built without a submodule) is expanded into
    its lattice once per search call, not once per shrink round."""
    built = Counter()

    def counting(inst, caps):
        if inst.submodule is None:
            built[inst] += 1
        return build_instance(inst, caps)

    monkeypatch.setattr(search, "build_instance", counting)
    hits = search_counterexamples("u-S-essential-not-essential", Bounds(max_ring=12), seed=0, limit=5)
    assert hits and built and max(built.values()) == 1


def test_corpus_and_law_run_key_instances_by_value(monkeypatch):
    """Deduplication and the built-instance cache hash the frozen Instance;
    its JSON key is only for output and ordering."""

    def no_key(self):
        raise AssertionError("Instance.key() called")

    monkeypatch.setattr(Instance, "key", no_key)
    corpus = generate_corpus(7, SMALL)
    assert len(set(corpus)) == len(corpus)
    results = run_laws(corpus[:20], ["running-example", "sigma-shortcut"])
    assert {r.verdict for r in results} <= {laws.HOLDS, laws.SKIP_INAPPLICABLE}


def _example_json(**changes):
    payload = json.loads(json.dumps(RUNNING_EXAMPLE.to_json()))
    payload.update(changes)
    return payload


MALFORMED_INSTANCES = {
    "submodule-outside": _example_json(submodule=[99]),
    "quot-generator-outside": _example_json(module=["quot", ["regular"], [99]]),
    "submodule-not-int": _example_json(submodule=["a"]),
    "zmod-not-int": _example_json(ring=["zmod", "6"]),
    "spec-arity": _example_json(ring=["zmod"]),
    "spec-not-list": _example_json(module={"regular": 1}),
    "seed-not-int": _example_json(seed=None),
    "missing-field": {k: v for k, v in _example_json().items() if k != "seed"},
}


@pytest.mark.parametrize("instance", MALFORMED_INSTANCES.values(), ids=MALFORMED_INSTANCES)
def test_replay_refuses_malformed_instances(instance):
    with pytest.raises(ConfigError):
        replay_result({"law_id": "running-example", "instance": instance})
    with pytest.raises(ConfigError):
        replay_hit({"claim_id": "u-S-essential-not-essential", "instance": instance})


@pytest.mark.parametrize("entry", [True, 1.0], ids=["bool", "float"])
def test_submodule_lists_refuse_bools_and_floats(entry):
    """JSON bools and floats compare equal to indices (True == 1, 1.0 == 1);
    inside an otherwise flat list of ints they are still refused."""
    message = "^" + re.escape(f"non-integer value {entry!r} in submodule") + "$"
    for value in ([0, entry], [0, 1, 2, entry, 3], (entry,)):
        with pytest.raises(ConfigError, match=message):
            corpus._ints(value, 1, "submodule", ConfigError)
    with pytest.raises(ConfigError, match=message):
        Instance.from_json(_example_json(submodule=[0, entry]))
    assert corpus._ints([0, 1, 2], 1, "submodule", ConfigError) == (0, 1, 2)


@pytest.mark.parametrize(
    "gens",
    [(False,), (0.0, 3.0), (0, 6), (-1,)],
    ids=["bool", "floats", "past-the-end", "negative"],
)
def test_submodule_generators_are_checked_before_the_lattice_lookup(gens):
    """(False,) and (0.0, 3.0) compare equal to the member tuples (0,) and
    (0, 3) of Z/6's lattice, and an out-of-range index is no element: each
    is refused, whether built directly or read from JSON."""
    with pytest.raises(ConfigError):
        build_instance(dataclasses.replace(RUNNING_EXAMPLE, submodule=gens))
    with pytest.raises(ConfigError):
        build_instance(Instance.from_json(_example_json(submodule=list(gens))))


def test_replay_refuses_unknown_ids_and_instance_laws_without_submodule():
    instance = _example_json()
    for unknown in ("no-such-id", ["a", "list"]):
        with pytest.raises(ConfigError, match="unknown law"):
            replay_result({"law_id": unknown, "instance": instance})
        with pytest.raises(ConfigError, match="unknown claim"):
            replay_hit({"claim_id": unknown, "instance": instance})
    with pytest.raises(ConfigError, match="needs an instance with a submodule"):
        replay_result({"law_id": "element-criterion", "instance": _example_json(submodule=None)})


def test_zmod_is_capped_by_max_ring():
    small = Caps(max_ring=8)
    assert build_ring(("zmod", 8), small).size == 8
    instance = _example_json(ring=["zmod", 9])
    with pytest.raises(ResourceExceededError, match="9 > 8"):
        replay_result({"law_id": "running-example", "instance": instance}, small)
    with pytest.raises(ResourceExceededError, match="9 > 8"):
        replay_hit({"claim_id": "u-S-essential-not-essential", "instance": instance}, small)
    with pytest.raises(ResourceExceededError, match="9 > 8"):
        parse_program("ring R = zmod 9\n", small)


def test_law_violation_hunts_empty():
    for law_id in ("element-criterion", "complement", "transitivity-meet"):
        hits = search_counterexamples(
            f"paper-law-{law_id}",
            Bounds(max_ring=8, max_instances=60),
            seed=0,
            limit=1,
            time_budget=60,
        )
        assert hits == [], law_id


def test_unknown_claim():
    with pytest.raises(ConfigError):
        search_counterexamples("no-such-claim")


@pytest.mark.parametrize(
    "limit, budget", [(0, 60.0), (-2, 60.0), (1, 0.0), (1, -1.0), (1, float("nan"))]
)
def test_search_refuses_an_empty_hunt(limit, budget):
    """A limit below 1 or a budget that is not positive would scan nothing
    and return [], which reads as a hunt that came back empty."""
    with pytest.raises(ConfigError):
        search_counterexamples("paper-law-complement", limit=limit, time_budget=budget)


@pytest.mark.parametrize(
    "flags", [["--count", "0"], ["--count", "-2"], ["--time-budget", "0"]], ids=" ".join
)
def test_cli_search_refuses_an_empty_hunt(capsys, flags):
    assert main(["search", "--claim", "paper-law-complement", *flags]) == 2
    assert capsys.readouterr().err.startswith("error [config-error]: ")


def test_cli_search_refuses_an_unknown_claim(capsys):
    assert main(["search", "--claim", "nope"]) == 2
    assert capsys.readouterr().err == "error [config-error]: unknown claim 'nope'\n"


def test_corpus_anchors_and_max_instances_respect_bounds():
    """The Z/6 anchors appear only when a 6-element module fits, and the
    sample never exceeds max_instances, even below the four anchors."""
    small = generate_corpus(42, Bounds(max_ring=8, max_module=3))
    assert small and all(build_instance(i).module.size <= 3 for i in small)
    anchors = generate_corpus(42, Bounds(max_ring=8))[:4]
    for n in range(1, 7):
        got = generate_corpus(42, Bounds(max_ring=8, max_instances=n))
        assert len(got) == n and got[: min(n, 4)] == anchors[:n]
    with pytest.raises(ConfigError, match="max_instances"):
        generate_corpus(42, Bounds(max_ring=8, max_instances=-3))


@pytest.mark.parametrize(
    "argv",
    [
        ["laws", "--max-ring", "6", "--max-module", "1"],
        ["search", "--claim", "u-S-essential-not-essential", "--max-module", "1"],
    ],
    ids=["laws", "search"],
)
def test_cli_refuses_a_module_bound_below_two(capsys, argv):
    """Every corpus module has at least 2 elements, so a bound of 1 would
    run over an empty corpus and pass."""
    assert main(argv) == 2
    assert capsys.readouterr().err == "error [config-error]: max_ring and max_module must be at least 2\n"


def test_repeated_law_id_runs_once(small_corpus, capsys):
    def rows(law_ids):
        return [dataclasses.replace(r, wall_time=0.0) for r in run_laws(small_corpus[:10], law_ids)]

    assert rows(["complement", "element-criterion", "complement"]) == rows(
        ["complement", "element-criterion"]
    )
    argv = ["laws", "--max-ring", "6", "--max-instances", "10"]
    assert main(argv + ["--law", "complement", "--law", "complement"]) == 0
    assert [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()] == [
        "complement holds= 10 violated= 0 skipped-resource= 0 skipped-inapplicable= 0",
        "-- 10 results over 10 instances; violated=0",
    ]


def test_laws_list_prints_each_laws_guards(capsys):
    """A guarded law's line ends with the guards it needs, in order; an
    unguarded law's line ends with its description."""
    assert main(["laws", "--list"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert len(lines) == len(REGISTRY)
    guarded, plain = LAWS_BY_ID["envelope-direct-sum"], LAWS_BY_ID["element-criterion"]
    assert lines[guarded.law_id].endswith(
        f"[exact] {guarded.description} (needs sum-fits, envelope)"
    )
    assert lines[plain.law_id].endswith(f"[exact] {plain.description}")


def test_run_laws_refuses_unknown_law_ids(small_corpus, capsys):
    """Every unknown id is named in one ConfigError, before any law runs;
    the CLI reports it as a config-error and exits 2."""
    with pytest.raises(ConfigError, match=r"^unknown law ids: nope, also-nope$"):
        run_laws(small_corpus[:5], ["nope", "complement", "also-nope"])
    assert main(["laws", "--max-ring", "6", "--max-instances", "5", "--law", "nope"]) == 2
    assert capsys.readouterr().err == "error [config-error]: unknown law ids: nope\n"


def test_cli_laws_refuses_negative_max_instances(capsys):
    assert main(["laws", "--max-ring", "8", "--max-instances", "-3"]) == 2
    assert capsys.readouterr().err.startswith("error [config-error]: ")


def test_false_essential_witnesses_replay(small_corpus):
    payloads = collect_false_essential_witnesses(small_corpus[:40])
    assert payloads, "corpus should contain some false verdicts"
    for p in payloads:
        assert replay_essential_witness(json.loads(json.dumps(p)))


@pytest.mark.parametrize(
    "changes",
    [{"s1": [4]}, {"counterexample_L": 5}, {"counterexample_L": ["a"]}],
    ids=["s1-list", "counterexample-int", "counterexample-not-int"],
)
def test_essential_witness_replay_refuses_malformed_payloads(changes):
    payload = {
        "kind": "u-S-essential-false",
        "instance": _example_json(),
        "submodule": [0, 2, 4],
        "counterexample_L": [0, 3],
        "s1": 4,
    }
    with pytest.raises(DomainError):
        replay_essential_witness({**payload, **changes})


def _z6_json(submodule):
    """Z/6 over itself with S = {1}."""
    return {
        "ring": ["zmod", 6], "mset": ["closure", [1]], "module": ["regular"],
        "submodule": submodule, "seed": 0, "size_profile": [6, 6],
    }


def test_essential_witness_replay_takes_k_from_the_instance():
    """K = <1> = Z/6 is essential; a payload claiming K = {0} must not
    refute it, and an instance without K has nothing to refute."""
    forged = {"instance": _z6_json([1]), "submodule": [0], "counterexample_L": list(range(6))}
    assert not replay_essential_witness({**forged, "kind": "essential-false"})
    assert not replay_essential_witness({**forged, "kind": "u-S-essential-false", "s1": 1})
    with pytest.raises(ConfigError, match="needs an instance with a submodule"):
        replay_essential_witness({**forged, "kind": "essential-false", "instance": _z6_json(None)})


def test_refuted_replay_needs_a_u_S_monomorphism():
    """The zero map Z/6 -> Z/6 is no u-S-mono at S = {1}, so id failing to
    extend along it refutes nothing: Z/6 is self-injective."""
    module = serialize_module(build_instance(Instance.from_json(_z6_json(None))).module)
    payload = {
        "kind": "u-S-injectivity-refuted",
        "instance": _z6_json(None),
        "f": {"source": module, "target": module, "map": [0] * 6},
        "h": list(range(6)),
    }
    assert not replay_refuted_payload(json.loads(json.dumps(payload)))


def test_result_replay_refuses_payloads_missing_a_field():
    for payload in ({}, {"law_id": "complement"}, {"instance": _example_json()}):
        with pytest.raises(ConfigError, match="a law result payload needs the fields"):
            replay_result(payload)


def test_hit_replay_refuses_payloads_of_another_shape():
    for payload in ([], {"claim_id": "u-S-essential-not-essential"}):
        with pytest.raises(ConfigError, match="a search hit payload needs the fields"):
            replay_hit(payload)


def test_essential_witness_replay_refuses_missing_fields_and_other_kinds():
    """Z/6, S = {1}, K = <2>, L = {0, 3}: the kind decides the check, so an
    unknown kind is refused rather than read as the u-S one."""
    payload = {
        "kind": "u-S-essential-false", "instance": _z6_json([2]),
        "counterexample_L": [0, 3], "s1": 1,
    }
    for missing in ("kind", "instance", "counterexample_L", "s1"):
        partial = {k: v for k, v in payload.items() if k != missing}
        with pytest.raises(ConfigError, match="needs the fields"):
            replay_essential_witness(partial)
    for kind in ("no-such-kind", "u-S-injectivity-refuted", ["essential-false"]):
        with pytest.raises(ConfigError, match="cannot have kind"):
            replay_essential_witness({**payload, "kind": kind})


def test_refuted_replay_refuses_missing_fields_and_other_kinds():
    module = serialize_module(build_instance(Instance.from_json(_z6_json(None))).module)
    payload = {
        "kind": "u-S-injectivity-refuted",
        "instance": _z6_json(None),
        "f": {"source": module, "target": module, "map": list(range(6))},
        "h": list(range(6)),
    }
    for missing in ("kind", "instance", "f", "h"):
        partial = {k: v for k, v in payload.items() if k != missing}
        with pytest.raises(ConfigError, match="a refutation needs the fields"):
            replay_refuted_payload(partial)
    with pytest.raises(ConfigError, match="a refuted map needs the fields"):
        replay_refuted_payload({**payload, "f": {"source": module, "map": list(range(6))}})
    with pytest.raises(ConfigError, match="a module payload needs the fields"):
        replay_refuted_payload({**payload, "f": {**payload["f"], "target": {"add": module["add"]}}})
    with pytest.raises(ConfigError, match="cannot have kind"):
        replay_refuted_payload({**payload, "kind": "essential-false"})


def test_false_essential_witnesses_are_distinct(small_corpus):
    """The fast route's payload is dropped when it repeats the oracle's."""
    payloads = collect_false_essential_witnesses(small_corpus)
    serialized = [json.dumps(p, sort_keys=True) for p in payloads]
    assert any(p["kind"] == "u-S-essential-false" for p in payloads)
    assert len(set(serialized)) == len(serialized)


def test_refuted_reports_replay():
    corpus = generate_corpus(5, Bounds(max_ring=9, max_instances=150))
    payloads = collect_refuted_reports(corpus, limit=4)
    assert payloads, "expected at least one refutation in the corpus"
    for p in payloads:
        assert replay_refuted_payload(json.loads(json.dumps(p)))


def test_report_formats(small_results):
    js = render_report(small_results, "json", seed=7, caps=Caps())
    payload = json.loads(js)
    assert payload["tool"] == "usmod" and payload["seed"] == 7
    assert all(law["violated"] == 0 for law in payload["laws"])

    xml = render_report(small_results, "junit-xml")
    assert xml.startswith("<?xml") and "<testsuite " in xml

    md = render_report(small_results, "markdown-summary")
    assert "| law |" in md and "Total violated: 0" in md


def test_tally_keeps_the_skip_kinds_and_their_reasons_apart(capsys):
    """On the seed-42 small corpus: per law, the four verdict counts add up
    to its results, each skip kind's reason map is the count of its
    results' details, and the JSON rows, the markdown table and the
    `usmod laws` summary lines all show both kinds."""
    results = run_laws(generate_corpus(42, SMALL))
    t = tally(results)
    assert set(t) == {law.law_id for law in REGISTRY}
    kinds = (laws.SKIP_RESOURCE, laws.SKIP_INAPPLICABLE)
    for law_id, counts in t.items():
        rows = [r for r in results if r.law_id == law_id]
        verdicts = Counter(r.verdict for r in rows)
        assert set(verdicts) <= {laws.HOLDS, laws.VIOLATED, *kinds}
        for verdict in (laws.HOLDS, laws.VIOLATED, *kinds):
            assert counts[verdict] == verdicts[verdict], (law_id, verdict)
        for kind in kinds:
            reasons = counts["skip_reasons"][kind]
            assert reasons == Counter(r.detail for r in rows if r.verdict == kind), law_id
            assert sum(reasons.values()) == counts[kind]
    assert all(sum(c[kind] for c in t.values()) > 0 for kind in kinds)

    rows = json.loads(render_report(results, "json", seed=42))["laws"]
    for row in rows:
        counts = t[row["law_id"]]
        assert [row[kind] for kind in kinds] == [counts[kind] for kind in kinds]
        assert row["skip_reasons"] == counts["skip_reasons"]
    md = render_report(results, "markdown-summary")
    assert "| law | holds | violated | skipped-resource | skipped-inapplicable |" in md
    for law_id, counts in t.items():
        cells = [counts[v] for v in (laws.HOLDS, laws.VIOLATED, *kinds)]
        assert f"| {law_id} | " + " | ".join(map(str, cells)) + " |" in md

    assert main(["laws", "--seed", "42", "--max-ring", "8", "--max-instances", "80"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    for law_id, counts in t.items():
        assert f"skipped-resource={counts[laws.SKIP_RESOURCE]:5d}" in lines[law_id]
        assert f"skipped-inapplicable={counts[laws.SKIP_INAPPLICABLE]:5d}" in lines[law_id]


def test_report_determinism(small_corpus):
    r1 = run_laws(small_corpus, ["element-criterion", "complement"])
    r2 = run_laws(small_corpus, ["element-criterion", "complement"])
    js1 = json.loads(render_report(r1, "json", seed=7))
    js2 = json.loads(render_report(r2, "json", seed=7))
    assert js1 == js2


def _cli_env(caps=None):
    """Environment for a ``python -m usmod.cli`` child process.

    The child inherits the parent's environment, so ``usmod`` is importable
    there whenever it is here (installed, or via ``PYTHONPATH=src``).  Any
    ``USMOD_CAPS`` from the caller's shell is dropped; it is set only when
    *caps* is given.
    """
    env = dict(os.environ)
    env.pop("USMOD_CAPS", None)
    if caps is not None:
        env["USMOD_CAPS"] = caps
    return env


def test_cli_smoke(tmp_path):
    program = tmp_path / "ex.usm"
    program.write_text(
        "ring R = zmod 6\n"
        "mset S over R = closure {4}\n"
        "module M over R = regular\n"
        "sub K of M = gens {2}\n"
        "assert u_s_essential(K, S)\n"
        "assert essential(K) == false\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "usmod.cli", "check", str(program)],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2/2 assertions passed" in proc.stdout

    proc = subprocess.run(
        [
            sys.executable, "-m", "usmod.cli", "laws",
            "--max-ring", "6", "--max-instances", "25",
            "--report", str(tmp_path / "report.json"), "--format", "json",
        ],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["violations"] == []

    proc = subprocess.run(
        [
            sys.executable, "-m", "usmod.cli", "search",
            "--claim", "u-S-essential-not-essential", "--count", "2",
        ],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 2


@pytest.mark.parametrize("raw", ["hom=16,hom=32", " hom=16 , hom = 16", "ring=8,hom=16,ring=8"])
def test_caps_env_refuses_a_repeated_key(raw, monkeypatch):
    """A key given twice is refused, not settled by its last value."""
    monkeypatch.setenv("USMOD_CAPS", raw)
    key = raw.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"^USMOD_CAPS sets '{key}' twice$"):
        caps_from_env()
    monkeypatch.setenv("USMOD_CAPS", "ring=8,hom=16")
    assert caps_from_env() == Caps(max_ring=8, max_hom=16)


def test_cli_caps_env(tmp_path):
    program = tmp_path / "ex.usm"
    program.write_text("ring R = zmod 6\nmodule M over R = regular\n")
    # A well-formed override is accepted, and ``zmod n`` is capped by it.
    proc = subprocess.run(
        [sys.executable, "-m", "usmod.cli", "check", str(program)],
        capture_output=True,
        text=True,
        env=_cli_env("ring=6"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "usmod.cli", "check", str(program)],
        capture_output=True,
        text=True,
        env=_cli_env("ring=5"),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "resource-exceeded" in proc.stderr and "6 > 5" in proc.stderr

    # A malformed override is refused with exit code 2 and ``config-error``.
    proc = subprocess.run(
        [sys.executable, "-m", "usmod.cli", "laws", "--max-ring", "12"],
        capture_output=True,
        text=True,
        env=_cli_env("ring=bogus"),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "config-error" in proc.stderr

    # The keys are ring, module, lattice and hom; any other, such as
    # ``iso_search``, is refused the same way.
    proc = subprocess.run(
        [sys.executable, "-m", "usmod.cli", "check", str(program)],
        capture_output=True,
        text=True,
        env=_cli_env("iso_search=100"),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "config-error" in proc.stderr and "iso_search" in proc.stderr


def test_cli_closed_pipe_exits_quietly(tmp_path):
    """A reader that stops after one line ends the run with exit 141
    (128 + SIGPIPE) and nothing on stderr."""
    program = tmp_path / "many.usm"
    # about 1 MB of output, far more than a pipe buffers, so writes follow
    # the close; stdout is block-buffered, as it is by default on a pipe
    program.write_text(
        "ring R = zmod 6\nmset S over R = closure {4}\nmodule M over R = regular\n"
        + "assert u_s_torsion(M, S) == false\n" * 20000
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "usmod.cli", "check", str(program)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={k: v for k, v in _cli_env().items() if k != "PYTHONUNBUFFERED"},
    )
    assert proc.stdout.readline().startswith(b"ok   line 4: ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, stderr
    assert stderr == b""


def test_cli_envelope_certificate_fields(tmp_path, capsys):
    program = tmp_path / "ex.usm"
    program.write_text(
        "ring R = zmod 4\nmset S over R = closure {3}\nmodule F over R = regular\n"
        "sub K of F = gens {2}\nmodule M = asmod K\n"
    )
    assert main(["envelope", str(program), "--module", "M"]) == 0
    certificate = json.loads(capsys.readouterr().out)
    assert set(certificate) == {
        "module", "mset", "candidate_E", "embedding", "certificate_tier",
        "preenvelope_level", "essential_verdict", "is_envelope", "witnesses",
    }
    assert certificate["candidate_E"]["label"] == "C4"
    assert certificate["preenvelope_level"] == "certified" and certificate["is_envelope"]


@pytest.mark.parametrize("command", ["envelope", "injective"])
def test_cli_unknown_module_is_a_config_error(tmp_path, capsys, command):
    program = tmp_path / "ex.usm"
    program.write_text("ring R = zmod 6\nmset S over R = closure {4}\nmodule M over R = regular\n")
    assert main([command, str(program), "--module", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config-error]: ") and "module 'NOPE'" in err
    assert "line 0" not in err


@pytest.mark.parametrize("command", ["check", "envelope", "injective"])
@pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
def test_cli_unreadable_program_is_an_io_error(tmp_path, capsys, command, problem):
    path = tmp_path / "ex.usm"
    if problem == "directory":
        path.mkdir()
    elif problem == "not-utf8":
        path.write_bytes(b"ring R = zmod 6\n# \xff\xfe\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error [io-error]: cannot read {path}: ")
    assert captured.out == ""
