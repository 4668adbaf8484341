"""Differential tests: the generator-based axiom and homomorphism checks
against the all-triples and all-pairs scans they replaced.

The references below are the earlier implementations, kept verbatim in
substance.  Every single-entry mutation of the tables of small rings,
modules and homomorphisms must get the reference's accept/reject verdict,
and a rejection must name the first law, in the documented check order,
that a brute-force scan finds broken.
"""
import itertools
import json
import random

import pytest

from usmod.corpus import Bounds, build_instance, generate_corpus
from usmod.errors import DomainError, InvalidModuleError, InvalidRingError
from usmod.modules import (
    FiniteModule,
    Homomorphism,
    check_homomorphism,
    check_module_axioms,
    cyclic_zmod_module,
    direct_sum,
    hom_enumerate,
    regular_module,
    zero_module,
)
from usmod.rings import (
    FiniteRing,
    _additive_generators,
    check_ring_axioms,
    make_product,
    make_trivial_extension,
    make_zmod,
)
from usmod.witnesses import deserialize_module, replay_refuted_payload, serialize_module


# ---------------------------------------------------------------------------
# references: the exhaustive scans


def scan_ring_axioms(ring):
    n = ring.size
    if n < 2 or ring.zero == ring.one:
        raise InvalidRingError("ring must be nonzero (0 != 1)")
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    if len(mul) != n or any(len(row) != n for row in add) or any(len(row) != n for row in mul):
        raise InvalidRingError("table shape mismatch")
    rng = range(n)
    for a in rng:
        if add[a][zero] != a:
            raise InvalidRingError("0 is not an additive identity")
        if mul[a][one] != a:
            raise InvalidRingError("1 is not a multiplicative identity")
        if zero not in add[a]:
            raise InvalidRingError("missing additive inverse")
        for b in rng:
            if add[a][b] != add[b][a]:
                raise InvalidRingError("addition not commutative")
            if mul[a][b] != mul[b][a]:
                raise InvalidRingError("multiplication not commutative")
    for a in rng:
        for b in rng:
            ab = add[a][b]
            mab = mul[a][b]
            for c in rng:
                if add[ab][c] != add[a][add[b][c]]:
                    raise InvalidRingError("addition not associative")
                if mul[mab][c] != mul[a][mul[b][c]]:
                    raise InvalidRingError("multiplication not associative")
                if mul[a][add[b][c]] != add[mab][mul[a][c]]:
                    raise InvalidRingError("distributivity fails")


def scan_module_axioms(module):
    ring = module.ring
    m, n = module.size, ring.size
    if len(module.act) != n or any(len(row) != m for row in module.act):
        raise InvalidModuleError("action table shape mismatch")
    add, act, zero = module.add, module.act, module.zero
    for x in range(m):
        if add[x][zero] != x:
            raise InvalidModuleError("0 is not an additive identity")
        if zero not in add[x]:
            raise InvalidModuleError("missing additive inverse")
        if act[ring.one][x] != x:
            raise InvalidModuleError("1 . x != x")
        for y in range(m):
            if add[x][y] != add[y][x]:
                raise InvalidModuleError("addition not commutative")
            for z in range(m):
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    raise InvalidModuleError("addition not associative")
    for r in range(n):
        for x in range(m):
            rx = act[r][x]
            for y in range(m):
                if act[r][add[x][y]] != add[rx][act[r][y]]:
                    raise InvalidModuleError("r(x+y) != rx+ry")
            for r2 in range(n):
                if act[ring.add[r][r2]][x] != add[rx][act[r2][x]]:
                    raise InvalidModuleError("(r+r')x != rx+r'x")
                if act[ring.mul[r][r2]][x] != act[r][act[r2][x]]:
                    raise InvalidModuleError("(rr')x != r(r'x)")


def scan_homomorphism(f):
    src, dst = f.source, f.target
    if src.ring != dst.ring:
        raise DomainError("source and target are over different rings")
    if len(f.map) != src.size:
        raise DomainError("map length mismatch")
    for x in src.elements():
        fx = f.map[x]
        for y in src.elements():
            if f.map[src.add[x][y]] != dst.add[fx][f.map[y]]:
                raise DomainError("map is not additive")
        for r in src.ring.elements():
            if f.map[src.act[r][x]] != dst.act[r][fx]:
                raise DomainError("map is not linear")


# ---------------------------------------------------------------------------
# brute force: every law, in the order the library checks them


def ring_laws_broken(ring):
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    rng = range(ring.size)
    laws = (
        ("0 is not an additive identity", any(add[a][zero] != a for a in rng)),
        ("1 is not a multiplicative identity", any(mul[a][one] != a for a in rng)),
        ("missing additive inverse", any(zero not in add[a] for a in rng)),
        ("addition not commutative", any(add[a][b] != add[b][a] for a in rng for b in rng)),
        ("multiplication not commutative", any(mul[a][b] != mul[b][a] for a in rng for b in rng)),
        (
            "addition not associative",
            any(add[add[a][b]][c] != add[a][add[b][c]] for a in rng for b in rng for c in rng),
        ),
        (
            "distributivity fails",
            any(
                mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
                for a in rng
                for b in rng
                for c in rng
            ),
        ),
        (
            "multiplication not associative",
            any(mul[mul[a][b]][c] != mul[a][mul[b][c]] for a in rng for b in rng for c in rng),
        ),
    )
    return [law for law, broken in laws if broken]


def module_laws_broken(module):
    ring = module.ring
    add, act, zero = module.add, module.act, module.zero
    ms, rs = range(module.size), ring.elements()
    laws = (
        ("0 is not an additive identity", any(add[x][zero] != x for x in ms)),
        ("missing additive inverse", any(zero not in add[x] for x in ms)),
        ("1 . x != x", any(act[ring.one][x] != x for x in ms)),
        ("addition not commutative", any(add[x][y] != add[y][x] for x in ms for y in ms)),
        (
            "addition not associative",
            any(add[add[x][y]][z] != add[x][add[y][z]] for x in ms for y in ms for z in ms),
        ),
        (
            "r(x+y) != rx+ry",
            any(act[r][add[x][y]] != add[act[r][x]][act[r][y]] for r in rs for x in ms for y in ms),
        ),
        (
            "(r+r')x != rx+r'x",
            any(
                act[ring.add[r][s]][x] != add[act[r][x]][act[s][x]]
                for r in rs
                for s in rs
                for x in ms
            ),
        ),
        (
            "(rr')x != r(r'x)",
            any(act[ring.mul[r][s]][x] != act[r][act[s][x]] for r in rs for s in rs for x in ms),
        ),
    )
    return [law for law, broken in laws if broken]


def hom_laws_broken(f):
    src, dst, fm = f.source, f.target, f.map
    xs = src.elements()
    laws = (
        (
            "map is not additive",
            any(fm[src.add[x][y]] != dst.add[fm[x]][fm[y]] for x in xs for y in xs),
        ),
        (
            "map is not linear",
            any(fm[src.act[r][x]] != dst.act[r][fm[x]] for r in src.ring.elements() for x in xs),
        ),
    )
    return [law for law, broken in laws if broken]


def _outcome(check, obj):
    try:
        check(obj)
    except (InvalidRingError, InvalidModuleError, DomainError) as exc:
        return str(exc)
    return None


def _assert_same_verdict(check, reference, laws_broken, obj, where):
    got = _outcome(check, obj)
    assert (got is None) == (_outcome(reference, obj) is None), where
    broken = laws_broken(obj)
    assert got == (broken[0] if broken else None), where


def _mutations(table, size):
    """Every table differing from *table* in one entry, within range(size)."""
    for i, row in enumerate(table):
        for j, old in enumerate(row):
            for v in range(size):
                if v != old:
                    new_row = row[:j] + (v,) + row[j + 1 :]
                    yield (i, j, v), table[:i] + (new_row,) + table[i + 1 :]


# ---------------------------------------------------------------------------
# instances


Z2, Z3, Z4 = make_zmod(2), make_zmod(3), make_zmod(4)
RINGS = [
    Z2,
    Z4,
    make_zmod(6),
    make_zmod(8),
    make_product(Z2, Z2),
    make_product(Z2, Z3),
    make_trivial_extension(Z2, regular_module(Z2)),
]
Z6, Z8 = RINGS[2], RINGS[3]


def _modules():
    z2 = regular_module(Z2)
    return [
        z2,
        regular_module(Z6),
        regular_module(Z8),
        regular_module(RINGS[4]),
        regular_module(RINGS[5]),
        regular_module(RINGS[6]),
        cyclic_zmod_module(Z4, 2),
        cyclic_zmod_module(Z8, 4),
        cyclic_zmod_module(Z6, 3),
        direct_sum(direct_sum(z2, z2)[0], z2)[0],
        direct_sum(cyclic_zmod_module(Z4, 2), regular_module(Z4))[0],
        direct_sum(cyclic_zmod_module(Z6, 2), cyclic_zmod_module(Z6, 3))[0],
        direct_sum(cyclic_zmod_module(Z8, 2), cyclic_zmod_module(Z8, 4))[0],
        zero_module(Z6),
    ]


MODULES = _modules()


def _ring_with(ring, **tables):
    fields = dict(add=ring.add, mul=ring.mul, zero=ring.zero, one=ring.one)
    fields.update(tables)
    return FiniteRing(label=ring.label, names=ring.names, **fields)


def _module_with(module, **tables):
    fields = dict(add=module.add, act=module.act, zero=module.zero)
    fields.update(tables)
    return FiniteModule(ring=module.ring, label=module.label, names=module.names, **fields)


# ---------------------------------------------------------------------------
# rings and modules


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.label)
def test_ring_check_matches_scan_on_every_mutation(ring):
    _assert_same_verdict(check_ring_axioms, scan_ring_axioms, ring_laws_broken, ring, "valid")
    for name in ("add", "mul"):
        for where, table in _mutations(getattr(ring, name), ring.size):
            mutant = _ring_with(ring, **{name: table})
            _assert_same_verdict(
                check_ring_axioms, scan_ring_axioms, ring_laws_broken, mutant, (name, where)
            )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: f"{m.label}/{m.ring.label}")
def test_module_check_matches_scan_on_every_mutation(module):
    _assert_same_verdict(
        check_module_axioms, scan_module_axioms, module_laws_broken, module, "valid"
    )
    for name in ("add", "act"):
        for where, table in _mutations(getattr(module, name), module.size):
            mutant = _module_with(module, **{name: table})
            _assert_same_verdict(
                check_module_axioms, scan_module_axioms, module_laws_broken, mutant, (name, where)
            )


def _random_group_like(rng, n):
    """A random commutative table on range(n) with 0 as identity and an
    inverse in every row; associative only by chance."""
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        table[a][0] = table[0][a] = a
    for a in range(1, n):
        for b in range(a, n):
            table[a][b] = table[b][a] = rng.randrange(n)
        if 0 not in table[a]:
            b = rng.randrange(1, n)
            table[a][b] = table[b][a] = 0
    return tuple(map(tuple, table))


def test_checks_match_scans_on_random_tables():
    """Random group-like additions (they pass every O(n^2) check, so the
    associativity check and the generating set run on invalid tables) and
    random commutative unital multiplications on Z/n and Z/2 x Z/2."""
    rng = random.Random("axioms")
    for _ in range(300):
        n = rng.randint(2, 6)
        add = _random_group_like(rng, n)
        mul = tuple(tuple(a if b == 1 else b if a == 1 else 0 for b in range(n)) for a in range(n))
        ring = FiniteRing(add, mul, 0, 1, "R", tuple(map(str, range(n))))
        _assert_same_verdict(check_ring_axioms, scan_ring_axioms, ring_laws_broken, ring, add)
        module = FiniteModule(Z2, add, 0, ((0,) * n, tuple(range(n))), "M", ring.names)
        _assert_same_verdict(
            check_module_axioms, scan_module_axioms, module_laws_broken, module, add
        )
    for base in (Z4, make_zmod(5), make_zmod(6), RINGS[4]):
        n, one = base.size, base.one
        for _ in range(150):
            mul = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    v = a if b == one else b if a == one else rng.randrange(n)
                    mul[a][b] = mul[b][a] = v
            ring = _ring_with(base, mul=tuple(map(tuple, mul)))
            _assert_same_verdict(check_ring_axioms, scan_ring_axioms, ring_laws_broken, ring, mul)


# Tables on V = (Z/2)^3, numbered as bit masks so that + is xor, whose laws
# hold along the first additive generator 1 but not along 2 or 4: a check
# that looks at the first generator only accepts them or names a later law.

V = tuple(range(8))
XOR = tuple(tuple(a ^ b for b in V) for a in V)
V_Z2 = direct_sum(direct_sum(regular_module(Z2), regular_module(Z2))[0], regular_module(Z2))[0]
F2_CUBED = make_product(RINGS[4], Z2)  # Z/2 x Z/2 x Z/2: + is xor, . is and


def _additive_along_1(rng):
    """f(0) = 0 and f(x ^ 1) = f(x) ^ f(1); random on 2, 4 and 6."""
    f = [0, rng.randrange(8)] + [0] * 6
    for x in (2, 4, 6):
        f[x] = rng.randrange(8)
        f[x | 1] = f[x] ^ f[1]
    return tuple(f)


def test_checks_use_every_generator():
    assert V_Z2.add == XOR and F2_CUBED.add == XOR and _additive_generators(XOR, 0) == (1, 2, 4)
    rng = random.Random("along-1")
    for _ in range(100):
        # distributive unital multiplications with 1 as identity
        sq = {(2, 2): rng.randrange(8), (2, 4): rng.randrange(8), (4, 4): rng.randrange(8)}
        basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, **sq}
        basis.update({(j, i): v for (i, j), v in list(basis.items())})
        mul = tuple(
            tuple(_xor_all(basis[i, j] for i in (1, 2, 4) if a & i for j in (1, 2, 4) if b & j) for b in V)
            for a in V
        )
        ring = FiniteRing(XOR, mul, 0, 1, "A", tuple(map(str, V)))
        _assert_same_verdict(check_ring_axioms, scan_ring_axioms, ring_laws_broken, ring, sq)
        # products bilinear in the low bit, random on the even elements:
        # distributive along 1 only
        even = {(a, b): 0 if 0 in (a, b) else rng.randrange(8) for a in V[::2] for b in V[::2]}
        mul = tuple(
            tuple(
                even[min(a & 6, b & 6), max(a & 6, b & 6)]
                ^ (a & 6 if b & 1 else 0)
                ^ (b & 6 if a & 1 else 0)
                ^ (a & b & 1)
                for b in V
            )
            for a in V
        )
        ring = FiniteRing(XOR, mul, 0, 1, "B", tuple(map(str, V)))
        _assert_same_verdict(check_ring_axioms, scan_ring_axioms, ring_laws_broken, ring, even)
        # 0.x additive along 1 only
        module = _module_with(V_Z2, act=(_additive_along_1(rng), V))
        _assert_same_verdict(
            check_module_axioms, scan_module_axioms, module_laws_broken, module, module.act
        )
        f = Homomorphism(V_Z2, V_Z2, _additive_along_1(rng))
        _assert_same_verdict(check_homomorphism, scan_homomorphism, hom_laws_broken, f, f.map)
    # an action on Z/2 additive in r along the ring generator 1 = (0,0,1) only
    z2 = cyclic_zmod_module(Z4, 2)
    for a1, a2, a4 in itertools.product((0, 1), repeat=3):
        rows = {0: 0, 1: a1, 2: a2, 4: a4, 3: a2 ^ a1, 5: a4 ^ a1, 6: 1 ^ a1, 7: 1}
        act = tuple((0, 1) if rows[r] else (0, 0) for r in V)
        module = FiniteModule(F2_CUBED, z2.add, 0, act, "W", z2.names)
        _assert_same_verdict(
            check_module_axioms, scan_module_axioms, module_laws_broken, module, rows
        )


def _xor_all(values):
    out = 0
    for v in values:
        out ^= v
    return out


def _reached(table, gens):
    """Everything reached from gens by x -> x + g, g in gens."""
    reached, frontier = set(gens), list(gens)
    while frontier:
        row = table[frontier.pop()]
        for g in gens:
            if row[g] not in reached:
                reached.add(row[g])
                frontier.append(row[g])
    return reached


@pytest.mark.parametrize(
    "table", [r.add for r in RINGS] + [m.add for m in MODULES], ids=lambda t: f"n{len(t)}"
)
def test_additive_generators_reach_every_element(table):
    zero = next(x for x, row in enumerate(table) if row == tuple(range(len(table))))
    gens = _additive_generators(table, zero)
    assert _reached(table, gens) == set(range(len(table)))
    # greedy and irredundant: no generator is reached from the earlier ones
    for i, g in enumerate(gens):
        assert g not in _reached(table, gens[:i])


def test_additive_generator_counts():
    assert _additive_generators(Z8.add, Z8.zero) == (1,)
    # greedy, not minimal: (0,1) spans Z/3 first, so Z/2 x Z/3 takes (1,0) too
    assert _additive_generators(RINGS[5].add, RINGS[5].zero) == (1, 3)
    assert len(_additive_generators(RINGS[4].add, RINGS[4].zero)) == 2  # Klein four
    assert _additive_generators(((0,),), 0) == (0,)  # the zero module


# ---------------------------------------------------------------------------
# homomorphisms


def _hom_pairs():
    z4_mods = [regular_module(Z4), cyclic_zmod_module(Z4, 2)]
    z4_mods.append(direct_sum(z4_mods[1], z4_mods[1])[0])
    z6_mods = [regular_module(Z6), cyclic_zmod_module(Z6, 2), cyclic_zmod_module(Z6, 3)]
    klein = [regular_module(RINGS[4])]
    pairs = []
    for pool in (z4_mods, z6_mods, klein, [regular_module(RINGS[6])]):
        pairs += [(s, t) for s in pool for t in pool]
    pairs += [(zero_module(Z6), regular_module(Z6)), (regular_module(Z6), zero_module(Z6))]
    return pairs


@pytest.mark.parametrize(
    "source,target", _hom_pairs(), ids=lambda m: f"{m.label}/{m.ring.label}"
)
def test_hom_check_matches_scan_on_every_mutation(source, target):
    homs = hom_enumerate(source, target)
    assert homs
    for h in homs:
        _assert_same_verdict(check_homomorphism, scan_homomorphism, hom_laws_broken, h, h.map)
        for where, (new_map,) in _mutations((h.map,), target.size):
            mutant = Homomorphism(source, target, new_map)
            _assert_same_verdict(
                check_homomorphism, scan_homomorphism, hom_laws_broken, mutant, (h.map, where)
            )


# ---------------------------------------------------------------------------
# malformed tables are refused inside the error taxonomy


def _payload(module, **changes):
    payload = json.loads(json.dumps(serialize_module(module)))
    payload.update(changes)
    return payload


def _with_entry(rows, i, j, v):
    rows = [list(row) for row in rows]
    rows[i][j] = v
    return rows


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"add": [row[:-1] if i == 2 else row for i, row in enumerate(Z6.add)]}, "addition table shape"),
        ({"add": [list(row) for row in Z6.add[:-1]]}, "addition table shape"),
        ({"act": [list(row) for row in Z6.mul[:-1]]}, "action table shape"),
        ({"add": _with_entry(Z6.add, 1, 2, 99)}, "table entry outside the module"),
        ({"act": _with_entry(Z6.mul, 4, 3, 17)}, "table entry outside the module"),
        ({"add": _with_entry(Z6.add, 3, 3, -1)}, "table entry outside the module"),
        ({"act": _with_entry(Z6.mul, 2, 5, -6)}, "table entry outside the module"),
        ({"zero": 42}, "0 outside the module"),
        ({"zero": -1}, "0 outside the module"),
    ],
)
def test_deserialize_module_refuses_malformed_tables(changes, message):
    with pytest.raises(InvalidModuleError, match=message):
        deserialize_module(Z6, _payload(regular_module(Z6), **changes))


def _rows(rows, i, j, v):
    return tuple(map(tuple, _with_entry(rows, i, j, v)))


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"add": _rows(Z6.add, 2, 4, 9)}, "table entry outside the ring"),
        ({"mul": _rows(Z6.mul, 5, 0, 6)}, "table entry outside the ring"),
        ({"add": _rows(Z6.add, 1, 1, -1)}, "table entry outside the ring"),
        ({"mul": Z6.mul[:-1]}, "table shape mismatch"),
        ({"add": Z6.add[:3] + (Z6.add[3][:-1],) + Z6.add[4:]}, "table shape mismatch"),
        ({"one": 7}, "0 or 1 outside the ring"),
        ({"zero": -2}, "0 or 1 outside the ring"),
        ({"one": 0}, r"ring must be nonzero \(0 != 1\)"),
    ],
)
def test_ring_check_refuses_malformed_tables(changes, message):
    with pytest.raises(InvalidRingError, match=message):
        check_ring_axioms(_ring_with(Z6, **changes))


def test_hom_check_refuses_out_of_range_images():
    m6 = regular_module(Z6)
    for bad in (6, 99, -1):
        with pytest.raises(DomainError, match="map entry outside the target"):
            check_homomorphism(Homomorphism(m6, m6, (0, 1, 2, bad, 4, 5)))


def test_refuted_payload_with_out_of_range_map_is_refused():
    inst = generate_corpus(5, Bounds(max_ring=6, max_instances=5))[0]
    ring = build_instance(inst).ring
    module = serialize_module(regular_module(ring))
    payload = {
        "kind": "u-S-injectivity-refuted",
        "instance": inst.to_json(),
        "f": {"source": module, "target": module, "map": [99] * ring.size},
        "h": list(range(ring.size)),
    }
    with pytest.raises(DomainError, match="map entry outside the target"):
        replay_refuted_payload(json.loads(json.dumps(payload)))


@pytest.mark.parametrize(
    "changes",
    [
        {"add": _with_entry(Z6.add, 1, 2, 3.0)},
        {"act": _with_entry(Z6.mul, 1, 1, 1.0)},
        {"zero": 0.0},
        {"zero": False},
    ],
    ids=["add-float", "act-float", "zero-float", "zero-bool"],
)
def test_deserialize_module_refuses_non_integers(changes):
    """3.0 == 3 and False == 0 pass a range check; they are refused first."""
    with pytest.raises(InvalidModuleError, match="non-integer value"):
        deserialize_module(Z6, _payload(regular_module(Z6), **changes))


def _refuted_payload(fmap, hmap):
    inst = generate_corpus(5, Bounds(max_ring=6, max_instances=5))[0]
    module = serialize_module(build_instance(inst).module)
    return {
        "kind": "u-S-injectivity-refuted",
        "instance": inst.to_json(),
        "f": {"source": module, "target": module, "map": fmap},
        "h": hmap,
    }


@pytest.mark.parametrize(
    "fmap,hmap",
    [
        ([0, 1.0, 2, 3, 4, 5], list(range(6))),
        ([0, 1, 2, 3, 4, True], list(range(6))),
        (list(range(6)), [0, 1, 2, 3, 4, False]),
        (list(range(6)), [0, 1, 2, 3.0, 4, 5]),
    ],
    ids=["map-float", "map-bool", "h-bool", "h-float"],
)
def test_refuted_payload_refuses_non_integers(fmap, hmap):
    """The instance is Z/6 over itself with S = {1, 4}, so every payload
    here would reach the tables with a non-integer index."""
    payload = json.loads(json.dumps(_refuted_payload(fmap, hmap)))
    with pytest.raises(DomainError, match="non-integer value"):
        replay_refuted_payload(payload)


@pytest.mark.parametrize("label", [["x"], {"a": 1}, 3, None], ids=repr)
def test_refuted_payload_refuses_a_non_string_label(label):
    """A module label is hashed when the module is built, so a list or dict
    would leak TypeError; every non-string label is refused first."""
    payload = json.loads(json.dumps(_refuted_payload(list(range(6)), list(range(6)))))
    payload["f"]["source"]["label"] = label
    with pytest.raises(InvalidModuleError, match="non-string label"):
        replay_refuted_payload(payload)
