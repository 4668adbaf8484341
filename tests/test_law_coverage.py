"""Each library decider has one route; the second route lives in a law.

Breaking the library route, as the law module sees it, must turn the
covering law from holds to violated on the pinned Z/6, S={1,4} instance.

Each statement written directly in its law gets the same treatment: on an
instance where the law holds, breaking one side of the statement makes it
report violated.  docs/laws.md names the tests that pin each law, and every
name it gives must resolve to a defined test function.

Each hypothesis is one guard of ``laws.GUARDS``: its reason is written once,
its fixture is computed once per built instance, and the table in
docs/laws.md lists every guard with the laws that need it.
"""
import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest

from usmod import laws
from usmod.caps import DEFAULT_CAPS
from usmod.corpus import Bounds, Instance, build_instance, generate_corpus
from usmod.errors import ResourceExceededError
from usmod.modules import Submodule, compose, scalar_hom

PINNED = Instance(("zmod", 6), ("closure", (4,)), ("regular",), (2,), 0, (36, 64))
TESTS = Path(__file__).resolve().parent
LAWS_DOC = TESTS.parent / "docs" / "laws.md"


def _instance(mset, module=("regular",), gens=(2,)):
    return Instance(("zmod", 6), mset, module, gens, 0, (36, 64))


# Z/3 as the ideal {0,2,4} of Z/6: a prime module
PRIME = _instance(("closure", (4,)), ("asmod", ("regular",), (0, 2, 4)), (1,))
UNITS = _instance(("units",))
WHOLE = _instance(("closure", (4,)), gens=(1,))
PRIME_UNITS = _instance(("units",), ("asmod", ("regular",), (0, 2, 4)), None)


def _zero_torsion(real):
    return lambda module, mset: Submodule(module, (module.zero,))


def _flipped_verdict(real):
    def wrong(*args, **kwargs):
        v = real(*args, **kwargs)
        return dataclasses.replace(v, verdict=not v.verdict)

    return wrong


def _negated(real):
    return lambda *args, **kwargs: not real(*args, **kwargs)


def _to_zero(real):
    def wrong(*args, **kwargs):
        parent = real(*args, **kwargs).parent
        return Submodule(parent, (parent.zero,))

    return wrong


def _none(real):
    return lambda *args, **kwargs: None


def _never(real):
    return lambda *args, **kwargs: False


def _not_envelope(real):
    def wrong(*args, **kwargs):
        cand = real(*args, **kwargs)
        return dataclasses.replace(
            cand, essential_verdict=dataclasses.replace(cand.essential_verdict, verdict=False)
        )

    return wrong


def _holds_then_breaks(monkeypatch, law_id, instance, route, breaker):
    law = laws.LAWS_BY_ID[law_id]
    built = build_instance(instance)
    assert laws.evaluate(law, built, DEFAULT_CAPS)[0] == laws.HOLDS
    monkeypatch.setattr(laws, route, breaker(getattr(laws, route)))
    assert laws.evaluate(law, built, DEFAULT_CAPS)[0] == laws.VIOLATED


@pytest.mark.parametrize(
    "route, law_id, breaker",
    [
        ("s_torsion_submodule", "sigma-shortcut", _zero_torsion),
        ("is_essential", "essential-element-criterion", _flipped_verdict),
        ("quotient_characterization", "element-criterion", _negated),
        ("endomorphism_condition", "envelope-essential-image", _negated),
        ("endomorphism_condition", "running-example-envelope", _negated),
    ],
)
def test_breaking_the_route_violates_its_law(monkeypatch, route, law_id, breaker):
    _holds_then_breaks(monkeypatch, law_id, PINNED, route, breaker)


FOLDED = [
    ("regular-set-degeneration", UNITS, "is_essential", _flipped_verdict),
    ("max-ideal-upgrade", WHOLE, "is_essential", _flipped_verdict),
    ("prime-upgrade", PRIME, "is_u_S_essential_fast", _flipped_verdict),
    ("prime-spectrum-equivalence", PRIME, "is_u_p_essential", _negated),
    ("transitivity-meet", PINNED, "intersect_submodules", _to_zero),
    ("transport", PINNED, "preimage", _to_zero),
    ("direct-sum-pair", PINNED, "is_u_S_essential_oracle", _flipped_verdict),
    ("twisted-transfer", PINNED, "image", _to_zero),
    ("envelope-uniqueness", PINNED, "find_u_S_isomorphism", _none),
    ("preenvelope-summand", PINNED, "find_u_S_isomorphism", _none),
    ("envelope-three-way", PINNED, "_factors", _never),
    ("envelope-properties", PINNED, "find_u_S_isomorphism", _none),
    ("envelope-direct-sum", PINNED, "check_u_S_envelope", _not_envelope),
    ("prime-classical-envelope-sum", PRIME_UNITS, "check_u_S_envelope", _not_envelope),
]


@pytest.mark.parametrize(
    "law_id, instance, route, breaker", [pytest.param(*row, id=row[0]) for row in FOLDED]
)
def test_breaking_one_side_violates_the_law(monkeypatch, law_id, instance, route, breaker):
    _holds_then_breaks(monkeypatch, law_id, instance, route, breaker)


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), str(path))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def test_docs_laws_test_references_resolve():
    """`test_x.py::test_y` names a test of that file; a bare `test_y`
    belongs to the file named last before it in the same table cell."""
    unresolved = []
    for line in LAWS_DOC.read_text().splitlines():
        for cell in line.split("|"):
            current = None
            for ref in re.findall(r"`(test_[^`]*)`", cell):
                file_name, _, test_name = ref.partition("::")
                if file_name.endswith(".py"):
                    current = TESTS / file_name
                    if not current.is_file():
                        unresolved.append(ref)
                        continue
                else:
                    test_name = ref
                if test_name and (current is None or test_name not in _test_functions(current)):
                    unresolved.append(ref)
    assert unresolved == []


# ---------------------------------------------------------------------------
# mono-composition decides each distinct composite map once


def reference_mono_composition(b):
    """The law as a plain double loop: every composite decided afresh."""
    module, mset = b.module, b.mset
    scalars = [scalar_hom(module, r) for r in range(b.ring.size)]
    monos = [f for f in scalars if laws.is_u_S_mono(f, mset)]
    for f in monos:
        for g in monos:
            if not laws.is_u_S_mono(compose(g, f), mset):
                return laws.VIOLATED, {"f": list(f.map), "g": list(g.map)}, ""
    return laws.HOLDS, None, f"{len(monos)}^2 compositions"


def _mono_composition_cases():
    corpus = generate_corpus(42, Bounds(max_ring=12, max_module=36, max_instances=60))
    triples = {(i.ring, i.mset, i.module): i for i in corpus}
    return [PINNED, UNITS, PRIME, PRIME_UNITS] + list(triples.values())


MONO_CASES = [build_instance(inst) for inst in _mono_composition_cases()]


def _refusing(real, refused_map, calls, after=0):
    """is_u_S_mono logging each map asked, refusing *refused_map* once more
    than *after* calls were made."""
    def is_u_S_mono(f, mset):
        calls.append(f.map)
        if f.map == refused_map and len(calls) > after:
            return False
        return real(f, mset)

    return is_u_S_mono


def test_mono_composition_matches_the_double_loop(monkeypatch):
    """With any one composite refused, the law gives the reference's
    verdict and first failing (f, g), and asks is_u_S_mono at most 2|R|
    times: once per scalar map, then once per distinct composite."""
    law = laws.LAWS_BY_ID["mono-composition"].fn
    real = laws.is_u_S_mono
    violated = 0
    for b in MONO_CASES:
        assert law(b, DEFAULT_CAPS, {}) == reference_mono_composition(b)
        n, act = b.ring.size, b.module.act
        composites = {tuple(act[s][x] for x in act[r]) for r in range(n) for s in range(n)}
        for refused in sorted(composites):
            calls: list = []
            monkeypatch.setattr(laws, "is_u_S_mono", _refusing(real, refused, calls))
            got = law(b, DEFAULT_CAPS, {})
            assert len(calls) <= 2 * n, (b.instance.key(), len(calls))
            assert len(set(calls[n:])) == len(calls[n:]), b.instance.key()
            assert got == reference_mono_composition(b), (b.instance.key(), refused)
            violated += got[0] == laws.VIOLATED
    assert violated > 0


def test_mono_composition_calls_share_no_state(monkeypatch):
    """Two calls on one instance ask the same questions; refusing a
    composite in the second call's composite loop alone turns it violated."""
    law = laws.LAWS_BY_ID["mono-composition"].fn
    real = laws.is_u_S_mono
    b = build_instance(PINNED)
    n = b.ring.size
    first: list = []
    monkeypatch.setattr(laws, "is_u_S_mono", _refusing(real, None, first))
    assert law(b, DEFAULT_CAPS, {})[0] == laws.HOLDS
    assert len(first) > n
    second: list = []
    monkeypatch.setattr(laws, "is_u_S_mono", _refusing(real, first[n], second, after=n))
    verdict, witness, _ = law(b, DEFAULT_CAPS, {})
    assert verdict == laws.VIOLATED and set(witness) == {"f", "g"}
    assert second == first[:len(second)] and len(second) > n


# ---------------------------------------------------------------------------
# guards: each hypothesis stated once, each fixture built once per instance

ENVELOPE_LAWS = [law for law in laws.REGISTRY if "envelope" in law.needs]


def test_guard_names_resolve_and_every_guard_is_needed():
    needed = {name for law in laws.REGISTRY for name in law.needs}
    assert needed <= set(laws.GUARDS)
    assert set(laws.GUARDS) <= needed


def test_each_guard_reason_is_one_string_constant():
    tree = ast.parse(Path(laws.__file__).read_text())
    strings = Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {name: strings[g.reason] for name, g in laws.GUARDS.items()} == dict.fromkeys(laws.GUARDS, 1)


def _replace_fixture(monkeypatch, name, calls, fixture=None):
    """Swap guard *name*'s fixture for one that logs each instance it is
    asked on into *calls*, then answers with *fixture* (default: the real one)."""
    guard = laws.GUARDS[name]
    answer = fixture or guard.fixture

    def logged(b, caps):
        calls.append(b.instance)
        return answer(b, caps)

    monkeypatch.setitem(laws.GUARDS, name, dataclasses.replace(guard, fixture=logged))


def test_envelope_is_built_once_per_module_triple(monkeypatch):
    """Over a run_laws, the envelope fixture runs once for each (ring, mset,
    module) triple on which some envelope law gets past its size budget and
    the guards listed before the envelope."""
    corpus = generate_corpus(42, Bounds(max_ring=12, max_module=36, max_instances=60))
    calls: list = []
    _replace_fixture(monkeypatch, "envelope", calls)
    results = laws.run_laws(corpus, [law.law_id for law in ENVELOPE_LAWS])
    reached = set()
    for r in results:
        law = laws.LAWS_BY_ID[r.law_id]
        earlier = law.needs[: law.needs.index("envelope")]
        if r.detail not in {"beyond the law's size budget", *(laws.GUARDS[g].reason for g in earlier)}:
            reached.add((r.instance.ring, r.instance.mset, r.instance.module))
    per_triple = Counter((i.ring, i.mset, i.module) for i in calls)
    assert set(per_triple) == reached and len(reached) > 5
    assert set(per_triple.values()) == {1}


def test_a_fixture_that_raises_is_a_resource_skip_and_is_not_stored(monkeypatch):
    def over_budget(b, caps):
        raise ResourceExceededError("x")

    calls: list = []
    _replace_fixture(monkeypatch, "envelope", calls, over_budget)
    built, fx = build_instance(PINNED), {}
    for law in ENVELOPE_LAWS:
        assert laws.evaluate(law, built, DEFAULT_CAPS, fx) == (laws.SKIP_RESOURCE, None, "x")
    assert "envelope" not in fx and len(calls) == len(ENVELOPE_LAWS)


def test_evaluate_without_a_dict_shares_no_fixture(monkeypatch):
    calls: list = []
    _replace_fixture(monkeypatch, "envelope", calls)
    law, built = laws.LAWS_BY_ID["envelope-uniqueness"], build_instance(PINNED)
    assert laws.evaluate(law, built) == laws.evaluate(law, built) == (laws.HOLDS, None, "")
    assert len(calls) == 2
    fx: dict = {}
    for _ in range(2):
        assert laws.evaluate(law, built, DEFAULT_CAPS, fx)[0] == laws.HOLDS
    assert len(calls) == 3 and fx["envelope"] is not None


def test_docs_guard_table_matches_the_registry():
    """docs/laws.md lists each guard with its skip, its reason and the laws
    that need it, in the order of laws.GUARDS."""
    lines = LAWS_DOC.read_text().splitlines()
    start = lines.index("| guard | skip | reason | laws |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, verdict, reason, needed_by = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((name.strip("`"), verdict, reason, re.findall(r"`([^`]*)`", needed_by)))
    assert rows == [
        (name, g.verdict, g.reason, [law.law_id for law in laws.REGISTRY if name in law.needs])
        for name, g in laws.GUARDS.items()
    ]
