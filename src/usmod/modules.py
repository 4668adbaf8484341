"""Finite modules over finite commutative rings.

A module is an additive table plus a scalar-action table indexed by ring
elements.  Submodules are canonical sorted element sets, so lattice meet and
join are plain set operations; homomorphisms are explicit index maps.
The module axioms and R-linearity of a map are checked exactly but only on
additive generators (see check_module_axioms and check_homomorphism).
Like rings, modules compare by value, over every field (ring, tables, label,
element names and direct-sum summands), so a cached quotient, submodule or
direct sum always carries the names of the module it was asked for.

Tables are built by index arithmetic rather than through element objects.
The direct sum M1 (+) M2 numbers the pair (x, y) as x*|M2| + y, so each of its
rows is a scaled row of M1's table combined with a row of M2's.  The
submodule lattice is the closure of the cyclic submodules under joining each
submodule found with every cyclic one, on bitmasks: X + Rg is the OR of the
masks of the cosets of X that meet Rg.  These two builders and the coset
projection of quotient_module are shared with rings.py, which uses them for
products, ideals and quotient rings.  The join on member sets, coset by
coset, is rings._join, which grows spans, sums of submodules, the
generating set, conductor ideals and the levels of a derivation plan.

Homomorphisms are enumerated from a greedily chosen generating set by
backtracking over the images of each generator.  A derivation plan, built
once per source module and cached, says how every element of each
generator prefix's span is derived (the generator, r.y or y+z) and holds
generators of the generator's conductor, the ideal of ring elements that
take it into the earlier span.  A map extends from one span to the next
exactly when the new image agrees with it on the conductor, so the
admissible images at each level are one bucket of the target's elements,
and the map is filled along the plan with no test.  The DSL's
``images {...}`` replays the same kind of plan built from the listed
elements, which must determine the map on the whole module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    DomainError,
    InvalidModuleError,
    ResourceExceededError,
)
from .rings import (
    FiniteRing,
    Ideal,
    Table,
    _additive,
    _additive_generators,
    _composes,
    _cosets,
    _in_range,
    _join,
    _lattice,
    _pair_table,
    _picker,
)


@dataclass(frozen=True)
class FiniteModule:
    ring: FiniteRing
    add: Table
    zero: int
    act: Table  # act[r][x] = r . x, shape |R| x |M|
    label: str
    names: tuple[str, ...]
    # provenance for direct sums (used by certification closure rules)
    summands: Optional[tuple["FiniteModule", ...]] = None

    @property
    def size(self) -> int:
        return len(self.add)

    def elements(self) -> range:
        return range(self.size)

    def name(self, x: int) -> str:
        return self.names[x]

    def int_mul(self, t: int, x: int) -> int:
        """x added to itself t times (t >= 0)."""
        acc = self.zero
        for _ in range(t):
            acc = self.add[acc][x]
        return acc

    def additive_order(self, x: int) -> int:
        acc = x
        order = 1
        while acc != self.zero:
            acc = self.add[acc][x]
            order += 1
        return order

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((len(self.add), self.zero, self.label, hash(self.ring))))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteModule({self.label}, m={self.size} over {self.ring.label})"


@dataclass(frozen=True)
class Submodule:
    parent: FiniteModule
    members: tuple[int, ...]  # sorted

    @property
    def size(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def is_zero(self) -> bool:
        return self.members == (self.parent.zero,)

    def is_whole(self) -> bool:
        return len(self.members) == self.parent.size

    def __repr__(self) -> str:
        elems = ",".join(self.parent.name(x) for x in self.members)
        return f"Submodule({{{elems}}} of {self.parent.label})"


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteModule
    target: FiniteModule
    map: tuple[int, ...]  # image index for each source index

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __repr__(self) -> str:
        return f"Hom({self.source.label} -> {self.target.label}, {self.map})"


# ---------------------------------------------------------------------------
# validation


def check_module_axioms(module: FiniteModule) -> None:
    """Check every module axiom over a valid ring; raise InvalidModuleError.

    The tables must be m x m (add) and |R| x m (act) with every entry and
    zero in range(m).  Then, in this order: 0 is an identity, every element
    has an inverse, 1.x = x, addition commutes (the table equals its
    transpose); + is associative, r(x+y) = rx+ry, (r+r')x = rx+r'x and
    (rr')x = r(r'x).

    As in check_ring_axioms (Light's test), the last four are checked only
    for y in an additive generating set G_M of the module, and for r' in one,
    G_R, of the ring.  The elements satisfying each law are closed under +,
    given what was checked before it: the module's +-associativity for
    r(x+y), and the ring's +-associativity and distributivity, checked when
    the ring was built, for the two laws in r'.  The cost is
    O(m^2 |G_M| + |R| m |G_M| + |R| m |G_R|) instead of
    O(m^3 + |R| m^2 + |R|^2 m).  A table breaking several axioms is
    reported under the first of them in the order above.
    """
    ring = module.ring
    m, n = module.size, ring.size
    add, act, zero = module.add, module.act, module.zero
    if any(len(row) != m for row in add):
        raise InvalidModuleError("addition table shape mismatch")
    if len(act) != n or any(len(row) != m for row in act):
        raise InvalidModuleError("action table shape mismatch")
    if not (_in_range(add, m) and _in_range(act, m)):
        raise InvalidModuleError("table entry outside the module")
    if zero not in range(m):
        raise InvalidModuleError("0 outside the module")
    if any(add[x][zero] != x for x in range(m)):
        raise InvalidModuleError("0 is not an additive identity")
    if any(zero not in row for row in add):
        raise InvalidModuleError("missing additive inverse")
    if act[ring.one] != tuple(range(m)):
        raise InvalidModuleError("1 . x != x")
    if add != tuple(zip(*add)):
        raise InvalidModuleError("addition not commutative")
    gens = _additive_generators(add, zero)
    if not _composes(add, add, gens):
        raise InvalidModuleError("addition not associative")
    if not _additive(act, add, gens):
        raise InvalidModuleError("r(x+y) != rx+ry")
    ring_gens = _additive_generators(ring.add, ring.zero)
    for r2 in ring_gens:
        row2 = act[r2]
        if any(
            act[rr2] != tuple(map(tuple.__getitem__, map(add.__getitem__, row), row2))
            for rr2, row in zip(ring.add[r2], act)
        ):
            raise InvalidModuleError("(r+r')x != rx+r'x")
    if not _composes(ring.mul, act, ring_gens):
        raise InvalidModuleError("(rr')x != r(r'x)")


def check_homomorphism(f: Homomorphism) -> None:
    """Check that f is R-linear; raise DomainError if not.

    The map must have one entry in range(|target|) per source element.  It
    is then checked additive, f(x+g) = f(x)+f(g), for every x and every g in
    an additive generating set G of the source, and linear, f(r.g) = r.f(g),
    on G.  For valid modules this is exact: the y with f(x+y) = f(x)+f(y)
    for all x are closed under +, so f is additive, and then the y with
    f(ry) = r.f(y) for all r are closed under + too.  Cost O(|G| (m + |R|)).
    """
    src, dst = f.source, f.target
    if src.ring != dst.ring:
        raise DomainError("source and target are over different rings")
    if len(f.map) != src.size:
        raise DomainError("map length mismatch")
    if not _in_range((f.map,), dst.size):
        raise DomainError("map entry outside the target")
    fmap, dadd = f.map, dst.add
    gens = _additive_generators(src.add, src.zero)
    for g in gens:
        fg = fmap[g]
        if any(fmap[xg] != dadd[fx][fg] for xg, fx in zip(src.add[g], fmap)):
            raise DomainError("map is not additive")
    for g in gens:
        fg = fmap[g]
        if any(fmap[src.act[r][g]] != dst.act[r][fg] for r in src.ring.elements()):
            raise DomainError("map is not linear")


def make_hom(source: FiniteModule, target: FiniteModule, mapping: Sequence[int]) -> Homomorphism:
    f = Homomorphism(source, target, tuple(mapping))
    check_homomorphism(f)
    return f


# ---------------------------------------------------------------------------
# constructors


@lru_cache(maxsize=None)
def regular_module(ring: FiniteRing) -> FiniteModule:
    """The ring as a module over itself; its submodules are the ideals.

    Cached, so the axioms of each distinct ring's module are checked once.
    """
    module = FiniteModule(
        ring=ring,
        add=ring.add,
        zero=ring.zero,
        act=ring.mul,
        label=ring.label,
        names=ring.names,
    )
    check_module_axioms(module)
    return module


def zero_module(ring: FiniteRing) -> FiniteModule:
    return FiniteModule(
        ring=ring,
        add=((0,),),
        zero=0,
        act=tuple((0,) for _ in ring.elements()),
        label="0",
        names=("0",),
    )


@lru_cache(maxsize=None)
def cyclic_zmod_module(ring: FiniteRing, d: int) -> FiniteModule:
    """Z/d as a module over Z/n; requires d | n.  Cached like regular_module."""
    n = ring.zmod_n
    if n is None or n % d != 0:
        raise DomainError(f"Z/{d} is not a Z/{n} module")
    add = tuple(tuple((x + y) % d for y in range(d)) for x in range(d))
    act = tuple(tuple((r * x) % d for x in range(d)) for r in range(n))
    module = FiniteModule(
        ring=ring,
        add=add,
        zero=0,
        act=act,
        label=f"C{d}",
        names=tuple(str(x) for x in range(d)),
    )
    check_module_axioms(module)
    return module


def submodule(parent: FiniteModule, members: Iterable[int]) -> Submodule:
    sub = Submodule(parent, tuple(sorted(set(members))))
    check_submodule(sub)
    return sub


def check_submodule(sub: Submodule) -> None:
    parent = sub.parent
    mem = set(sub.members)
    if parent.zero not in mem:
        raise DomainError("submodule must contain 0")
    for x in mem:
        for y in mem:
            if parent.add[x][y] not in mem:
                raise DomainError("submodule not closed under addition")
        for r in parent.ring.elements():
            if parent.act[r][x] not in mem:
                raise DomainError("submodule not closed under the ring action")


def span(parent: FiniteModule, seed: Iterable[int]) -> tuple[int, ...]:
    """Submodule generated by *seed*: the sum of the cyclic submodules Rx.

    The span is joined with the action column Rx of one seed element at a
    time (rings._join), so it is a submodule after every seed element and
    a seed element already inside is skipped.  Seeds must be int indices
    (not bools) into *parent*.
    """
    mem = {parent.zero}
    for x in seed:
        if not (type(x) is int and 0 <= x < parent.size):
            raise DomainError(f"seed {x!r} is not an element of the module")
        if x not in mem:
            _join(parent.add, _picker(tuple(mem)), mem, [row[x] for row in parent.act])
    return tuple(sorted(mem))


def cyclic_submodule(module: FiniteModule, x: int) -> Submodule:
    """Rx = { r.x : r in R }."""
    if not 0 <= x < module.size:
        raise DomainError("element outside the module")
    mem = {module.act[r][x] for r in module.ring.elements()}
    return Submodule(module, tuple(sorted(mem)))


def sum_submodules(a: Submodule, b: Submodule) -> Submodule:
    """A + B for two submodules of one parent, B joined onto A coset by
    coset (rings._join)."""
    if a.parent is not b.parent and a.parent != b.parent:
        raise DomainError("submodules have different parents")
    mem = set(a.members)
    _join(a.parent.add, _picker(a.members), mem, b.members)
    return Submodule(a.parent, tuple(sorted(mem)))


def intersect_submodules(a: Submodule, b: Submodule) -> Submodule:
    if a.parent is not b.parent and a.parent != b.parent:
        raise DomainError("submodules have different parents")
    return Submodule(a.parent, tuple(sorted(set(a.members) & set(b.members))))


def _mask(members: Iterable[int]) -> int:
    """The bitmask with bit x set for each x in *members* (distinct)."""
    return sum(map((1).__lshift__, members))


class SubmoduleLattice(tuple):
    """The submodules of one module, ordered by (size, members), with the
    bitmask of each (see ``_mask``) filled in on the first call of ``masks``,
    so a lattice only ever scanned as submodules never builds them.

    ``kernel_mask(r)`` is the bitmask of the elements that r kills, built
    (|M| lookups) on its first call for that r and kept on the lattice in
    a list indexed by r, so every scan of one module shares it.

    ``projection(i)`` is the natural map eta: M -> M/L of the i-th member L,
    each element's coset as an index into L's minimal coset representatives
    (``quotient_module``'s eta.map), built (|M| lookups) on its first call
    for that i and kept in a list indexed by position; no quotient
    module is built, so a route that only reads eta pays no |M/L|^2 table.

    ``member(members)`` is the lattice's own Submodule whose sorted member
    tuple is *members*, or None; its index is likewise built on first use
    and kept on the lattice.  Keys compare as tuples, so True and 0.0 find
    the entries of 1 and 0: a caller checks that *members* holds ints first.
    """

    def masks(self) -> tuple[int, ...]:
        masks = self.__dict__.get("_masks")
        if masks is None:
            masks = self.__dict__["_masks"] = tuple(_mask(l.members) for l in self)
        return masks

    def kernel_mask(self, r: int) -> int:
        module = self[0].parent
        kernels = self.__dict__.get("_kernels")
        if kernels is None:
            kernels = self.__dict__["_kernels"] = [None] * len(module.act)
        if kernels[r] is None:
            kernels[r] = _mask(compress(module.elements(), map(module.zero.__eq__, module.act[r])))
        return kernels[r]

    def projection(self, i: int) -> tuple[int, ...]:
        projections = self.__dict__.get("_projections")
        if projections is None:
            projections = self.__dict__["_projections"] = [None] * len(self)
        if projections[i] is None:
            sub = self[i]
            projections[i] = _cosets(sub.parent.add, sub.members)[1]
        return projections[i]

    def member(self, members: tuple[int, ...]) -> Optional[Submodule]:
        index = self.__dict__.get("_index")
        if index is None:
            index = self.__dict__["_index"] = {l.members: l for l in self}
        return index.get(members)


@lru_cache(maxsize=None)
def all_submodules(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> SubmoduleLattice:
    """The full submodule lattice, ordered by (size, members); its
    ``masks()`` are the members' bitmasks, ``kernel_mask(r)`` the mask of
    what r kills, ``projection(i)`` the map M -> M/L of the i-th member L
    and ``member()`` finds a member by its member tuple, each built on
    first use.

    Built by rings._lattice, the closure of the cyclic submodules under
    joins on bitmasks, one join per coset of each member X that a cyclic
    generator falls in, each an OR of X's coset masks.  More than
    max(caps.max_lattice, #cyclics) submodules raise ResourceExceededError.
    """
    if module.size > caps.max_module:
        raise ResourceExceededError(
            f"module has {module.size} > {caps.max_module} elements"
        )
    lattice = _lattice(module.add, module.act, caps.max_lattice)
    return SubmoduleLattice(Submodule(module, mem) for mem in lattice)


@lru_cache(maxsize=None)
def quotient_module(module: FiniteModule, sub: Submodule) -> tuple[FiniteModule, Homomorphism]:
    """Coset module and the natural surjection, labelled by minimal coset reps."""
    if sub.parent is not module and sub.parent != module:
        raise DomainError("submodule of a different module")
    mem = sub.members
    reps, proj = _cosets(module.add, mem)
    add = tuple(tuple(proj[module.add[a][b]] for b in reps) for a in reps)
    act = tuple(tuple(proj[module.act[r][a]] for a in reps) for r in module.ring.elements())
    quot = FiniteModule(
        ring=module.ring,
        add=add,
        zero=proj[module.zero],
        act=act,
        label=f"{module.label}/{{{','.join(module.name(x) for x in mem)}}}",
        names=tuple(f"[{module.name(rep)}]" for rep in reps),
    )
    eta = Homomorphism(module, quot, proj)
    return quot, eta


@lru_cache(maxsize=None)
def submodule_as_module(sub: Submodule) -> tuple[FiniteModule, Homomorphism]:
    """A submodule re-indexed as a standalone module, plus its inclusion map."""
    parent = sub.parent
    mem = sub.members
    index_of = {x: i for i, x in enumerate(mem)}
    add = tuple(tuple(index_of[parent.add[x][y]] for y in mem) for x in mem)
    act = tuple(tuple(index_of[parent.act[r][x]] for x in mem) for r in parent.ring.elements())
    module = FiniteModule(
        ring=parent.ring,
        add=add,
        zero=index_of[parent.zero],
        act=act,
        label=f"{parent.label}|{len(mem)}",
        names=tuple(parent.name(x) for x in mem),
    )
    incl = Homomorphism(module, parent, mem)
    return module, incl


@lru_cache(maxsize=None)
def direct_sum(
    m1: FiniteModule,
    m2: FiniteModule,
    caps: Caps = DEFAULT_CAPS,
    *,
    summands: Optional[tuple[FiniteModule, ...]] = None,
) -> tuple[FiniteModule, Homomorphism, Homomorphism, Homomorphism, Homomorphism]:
    """Componentwise module on pairs; returns (M, i1, i2, p1, p2).

    The pair (x, y) is element x*|m2| + y, so the row of (x, y) in a table of
    M is the row of x in m1's table scaled by |m2|, with the row of y in
    m2's table added to each entry.  M records *summands* as its
    provenance, (m1, m2) by default.
    """
    if m1.ring != m2.ring:
        raise DomainError("summands are over different rings")
    n1, n2 = m1.size, m2.size
    if n1 * n2 > caps.max_module:
        raise ResourceExceededError(f"direct sum would have {n1 * n2} > {caps.max_module} elements")
    add = _pair_table(m1.add, m2.add)
    act = tuple(
        tuple(a + c for a in [u * n2 for u in row1] for c in row2)
        for row1, row2 in zip(m1.act, m2.act)
    )
    out = FiniteModule(
        ring=m1.ring,
        add=add,
        zero=m1.zero * n2 + m2.zero,
        act=act,
        label=f"{m1.label}(+){m2.label}",
        names=tuple(f"({a}|{b})" for a in m1.names for b in m2.names),
        summands=(m1, m2) if summands is None else summands,
    )
    i1 = Homomorphism(m1, out, tuple(range(m2.zero, n1 * n2, n2)))
    i2 = Homomorphism(m2, out, tuple(range(m1.zero * n2, (m1.zero + 1) * n2)))
    p1 = Homomorphism(out, m1, tuple(x for x in range(n1) for _ in range(n2)))
    p2 = Homomorphism(out, m2, tuple(range(n2)) * n1)
    return out, i1, i2, p1, p2


def direct_sum_many(
    mods: Sequence[FiniteModule], caps: Caps = DEFAULT_CAPS
) -> tuple[FiniteModule, list[Homomorphism], list[Homomorphism]]:
    """Left-nested iterated direct sum; returns (sum, injections, projections)."""
    if not mods:
        raise DomainError("need at least one summand")
    total = mods[0]
    injections = [identity_hom(mods[0])]
    projections = [identity_hom(mods[0])]
    for k, m in enumerate(mods[1:], start=2):
        # the first pair is direct_sum(M, N, caps) under its own cache key
        # (any summands keyword, None too, is part of the key)
        if k == 2:
            total, i1, i2, p1, p2 = direct_sum(total, m, caps)
        else:
            total, i1, i2, p1, p2 = direct_sum(total, m, caps, summands=tuple(mods[:k]))
        injections = [compose(i1, inj) for inj in injections]
        injections.append(i2)
        projections = [compose(proj, p1) for proj in projections]
        projections.append(p2)
    return total, injections, projections


# ---------------------------------------------------------------------------
# maps


def identity_hom(module: FiniteModule) -> Homomorphism:
    return Homomorphism(module, module, tuple(module.elements()))


def zero_hom(source: FiniteModule, target: FiniteModule) -> Homomorphism:
    return Homomorphism(source, target, tuple(target.zero for _ in source.elements()))


def compose(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    """g after f.  Compositions of valid maps are valid; no recheck."""
    if f.target is not g.source and f.target != g.source:
        raise DomainError("maps do not compose")
    return Homomorphism(f.source, g.target, tuple(map(g.map.__getitem__, f.map)))


def precompose(
    f: Homomorphism, homs: Iterable[Homomorphism]
) -> dict[tuple[int, ...], list[Homomorphism]]:
    """The maps g: B -> E of *homs* grouped by the map of g.f, for f: A -> B,
    each group in the given order.  "Is k some g.f?" is then one lookup of
    k's map, and the group names every g that answers it."""
    grouped: dict[tuple[int, ...], list[Homomorphism]] = {}
    for g in homs:
        grouped.setdefault(tuple(map(g.map.__getitem__, f.map)), []).append(g)
    return grouped


def add_homs(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    if f.source != g.source or f.target != g.target:
        raise DomainError("maps have different endpoints")
    add = f.target.add
    return Homomorphism(f.source, f.target, tuple(add[a][b] for a, b in zip(f.map, g.map)))


def scalar_hom(module: FiniteModule, r: int) -> Homomorphism:
    """x -> r.x as an endomorphism."""
    return Homomorphism(module, module, tuple(module.act[r]))


def kernel(f: Homomorphism) -> Submodule:
    zero = f.target.zero
    return Submodule(f.source, tuple(compress(f.source.elements(), map(zero.__eq__, f.map))))


def image(f: Homomorphism) -> Submodule:
    return Submodule(f.target, tuple(sorted(set(f.map))))


def preimage(f: Homomorphism, q: Submodule) -> Submodule:
    if q.parent is not f.target and q.parent != f.target:
        raise DomainError("submodule not in the target of the map")
    qset = q.member_set()
    return Submodule(f.source, tuple(x for x in f.source.elements() if f.map[x] in qset))


def image_of_submodule(f: Homomorphism, k: Submodule) -> Submodule:
    if k.parent is not f.source and k.parent != f.source:
        raise DomainError("submodule not in the source of the map")
    return Submodule(f.target, tuple(sorted({f.map[x] for x in k.members})))


# ---------------------------------------------------------------------------
# hom enumeration


def generating_set(module: FiniteModule) -> tuple[int, ...]:
    """Greedy irredundant generating set in canonical element order: each
    element outside the span so far joins it with its action column Rx."""
    gens: list[int] = []
    spanned = {module.zero}
    for x in module.elements():
        if x not in spanned:
            gens.append(x)
            _join(module.add, _picker(tuple(spanned)), spanned, [row[x] for row in module.act])
    return tuple(gens)


@dataclass(frozen=True)
class PlanLevel:
    """How P' = span(k_1..k_i) comes from P = span(k_1..k_{i-1}) and the key k_i.

    The conductor C = {r : r.key in P} is an ideal of R; *conductor* holds
    greedy ideal generators c_1..c_k of C and *conducted* the elements
    c_j.key of P.  An R-linear f on P extends to P' with key -> y iff
    c.y = f(c.key) for every c in C (the one-element step in the proof of
    Baer's criterion), and by linearity iff that holds for the generators
    alone.  The extension is unique and is filled along the derivations:
    every new element is derived once, as the key itself, ``c = r.key``
    (*acts*, r the first ring element giving c) or ``z = x + c`` (*adds*,
    with x a nonzero element of P), where the key and the c of *acts* are
    the new coset representatives of P in P' that rings._join returns.  A
    key already in P has conductor R, so its test says f(key) = y, and it
    derives nothing.
    """

    key: int
    conductor: tuple[int, ...]  # c_1..c_k
    conducted: tuple[int, ...]  # c_1.key..c_k.key
    order_unit: int  # d.1 for d the additive order of the key; it lies in C
    acts: tuple[tuple[int, int], ...]  # (c, r): c = r.key
    adds: tuple[tuple[int, int, int], ...]  # (z, x, c): z = x + c
    members: tuple[int, ...]  # P', sorted


def derivation_plan(module: FiniteModule, keys: tuple[int, ...]) -> tuple[PlanLevel, ...]:
    """One level per key: the spans of the key prefixes (``_source_plan``
    keeps the one plan per hom source)."""
    ring = module.ring
    add, act = module.add, module.act
    spanned = {module.zero}
    members: tuple[int, ...] = (module.zero,)
    levels: list[PlanLevel] = []
    for key in keys:
        conductor: list[int] = []
        ideal = {ring.zero}
        for r in ring.elements():
            if act[r][key] in spanned and r not in ideal:
                conductor.append(r)
                _join(ring.add, _picker(tuple(ideal)), ideal, ring.mul[r])
        order_unit = ring.zero
        for _ in range(module.additive_order(key)):
            order_unit = ring.add[order_unit][ring.one]
        column = [row[key] for row in act]
        reps = _join(add, _picker(members), spanned, [key, *column])
        old = [x for x in members if x != module.zero]
        members = tuple(sorted(spanned))
        levels.append(
            PlanLevel(
                key,
                tuple(conductor),
                tuple(act[c][key] for c in conductor),
                order_unit,
                tuple((c, column.index(c)) for c in reps[1:]),
                tuple((add[x][c], x, c) for c in reps for x in old),
                members,
            )
        )
    return tuple(levels)


@lru_cache(maxsize=None)
def _source_plan(source: FiniteModule) -> tuple[PlanLevel, ...]:
    """The derivation plan of *source*'s generating set, once per module.

    Each generator lies outside the span of the earlier ones, and its
    level's conductor, read off its action column, costs O(|R|) lookups
    plus the growth of the conductor ideal, once per source.
    """
    return derivation_plan(source, generating_set(source))


def _replay(level: PlanLevel, y: int, f: list[int], target: FiniteModule) -> None:
    """Extend f from the previous span to the level's span with f(key) = y.

    The caller has checked the level's conductor, so no equation is tested.
    """
    add, act = target.add, target.act
    f[level.key] = y
    for z, r in level.acts:
        f[z] = act[r][y]
    for z, x, c in level.adds:
        f[z] = add[f[x]][f[c]]


def extend_images(
    source: FiniteModule, target: FiniteModule, images: Sequence[tuple[int, int]]
) -> Optional[dict[int, int]]:
    """The R-linear map on the span of the keys with the given images, or None.

    The span always contains 0, which goes to 0.  Keys may repeat or lie in
    the span of earlier keys; each key is tested against its conductor.
    Keys and images must be int indices (not bools) into source and target,
    which must be over the same ring.
    """
    if source.ring != target.ring:
        raise DomainError("source and target are over different rings")
    for k, y in images:
        if not (type(k) is int and 0 <= k < source.size
                and type(y) is int and 0 <= y < target.size):
            raise DomainError(f"image pair {k!r}: {y!r} outside the modules")
    plan = derivation_plan(source, tuple(k for k, _ in images))
    act = target.act
    f = [target.zero] * source.size
    for level, (_, y) in zip(plan, images):
        if any(act[c][y] != f[cx] for c, cx in zip(level.conductor, level.conducted)):
            return None
        _replay(level, y, f, target)
    members = plan[-1].members if plan else (source.zero,)
    return {x: f[x] for x in members}


def hom_enumerate(
    source: FiniteModule,
    target: FiniteModule,
    cap: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[Homomorphism]:
    """All R-linear maps source -> target, in deterministic order.

    The images of a generator g of additive order d lie in {y : d.y = 0};
    the product of those counts, one ``act[d.1]`` row scan per generator,
    is the projected size and must stay within the cap before enumeration
    starts.  The search backtracks over the generators of the source's
    cached plan.  Once per call the target's elements are bucketed, in
    ascending order, by (c_1.y, ..., c_k.y) for the conductor generators
    c_j of each level.  At a node the admissible images of g are exactly
    the bucket keyed by (f(c_1.g), ..., f(c_k.g)), so every candidate
    extends (see ``PlanLevel``) and each node costs one tuple of k lookups,
    one dict lookup and the fill of the new span, with no test.  Maps come
    in lexicographic order of their generator images.
    """
    if source.ring != target.ring:
        raise DomainError("source and target are over different rings")
    cap = caps.max_hom if cap is None else cap
    plan = _source_plan(source)
    projected = 1
    for level in plan:
        projected *= target.act[level.order_unit].count(target.zero)
        if projected > cap:
            raise ResourceExceededError(
                f"projected hom count {projected} exceeds cap {cap}"
            )
    buckets: list[dict[tuple[int, ...], list[int]]] = []
    for level in plan:
        rows = [target.act[c] for c in level.conductor]
        buckets.append({})
        for y, images in enumerate(zip(*rows) if rows else [()] * target.size):
            buckets[-1].setdefault(images, []).append(y)

    f = [target.zero] * source.size
    out: list[Homomorphism] = []

    def backtrack(i: int) -> None:
        if i == len(plan):
            out.append(Homomorphism(source, target, tuple(f)))
            return
        level = plan[i]
        for y in buckets[i].get(tuple(map(f.__getitem__, level.conducted)), ()):
            _replay(level, y, f, target)
            backtrack(i + 1)

    backtrack(0)
    return out


# ---------------------------------------------------------------------------
# annihilators, prime modules, zero divisors


def annihilator(ring: FiniteRing, target: Submodule | FiniteModule) -> Ideal:
    """{ r in R : r.N = 0 }."""
    if isinstance(target, Submodule):
        parent = target.parent
        members: Sequence[int] = target.members
    else:
        parent = target
        members = range(target.size)
    if parent.ring != ring:
        raise DomainError("module is over a different ring")
    ann = [
        r
        for r in ring.elements()
        if all(parent.act[r][x] == parent.zero for x in members)
    ]
    return Ideal(ring, tuple(ann))


def is_prime_module(module: FiniteModule) -> bool:
    """All nonzero submodules share the module's annihilator.

    Checked on cyclic submodules only; every nonzero submodule contains a
    nonzero cyclic one, so this is equivalent to the full-lattice scan (the
    test suite cross-checks that on small instances).
    """
    if module.size == 1:
        raise DomainError("the zero module is not prime")
    ring = module.ring
    ann_m = annihilator(ring, module).members
    for x in module.elements():
        if x == module.zero:
            continue
        if annihilator(ring, cyclic_submodule(module, x)).members != ann_m:
            return False
    return True


def zero_divisors_on(ring: FiniteRing, module: FiniteModule) -> tuple[int, ...]:
    """Z_R(M): ring elements killing some nonzero module element."""
    if module.ring != ring:
        raise DomainError("module is over a different ring")
    out = []
    for r in ring.elements():
        if any(module.act[r][x] == module.zero for x in module.elements() if x != module.zero):
            out.append(r)
    return tuple(out)
