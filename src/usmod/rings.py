"""Finite commutative rings: construction, ideals, spectra, multiplicative sets.

Rings are stored as full operation tables over element indices ``0..n-1``.
That is deliberate: at desk scale exactness and dead-simple table scans beat
any clever representation.  Every axiom is checked exactly, the
associative and distributive laws on an additive generating set only
(Light's test, see check_ring_axioms), whole table rows at a time.

A ring is a plain frozen dataclass value: two rings are equal when every
field is, labels and element names included, and the hash reads only the
size, zero, one and label.  That hash is computed once, when the ring is
built, and so are those of modules, multiplicative sets and caps: a cache
lookup reads a stored int.  Every cache keyed on a ring or on a module over
it therefore hands back results built for a ring that prints the same.

An ideal is a submodule of R over itself, R/I a quotient module and R x R'
a direct sum, so the table jobs both layers need are written once here and
shared with modules.py: the join of two subgroups, coset by coset (_join),
which grows the lattice of subgroups closed under an action (_lattice),
spans, sums, conductor ideals and derivation plans; coset representatives
and the projection (_cosets); and the componentwise table on pairs
(_pair_table).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, TYPE_CHECKING

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    DomainError,
    ImproperIdealError,
    InvalidMultiplicativeSetError,
    InvalidRingError,
    NotPrimeError,
    ResourceExceededError,
)

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from .modules import FiniteModule

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative unital ring given by explicit operation tables."""

    add: Table
    mul: Table
    zero: int
    one: int
    label: str
    names: tuple[str, ...]
    zmod_n: Optional[int] = None  # set by make_zmod; tags rings of the form Z/n

    @property
    def size(self) -> int:
        return len(self.add)

    def elements(self) -> range:
        return range(self.size)

    def name(self, a: int) -> str:
        return self.names[a]

    def units(self) -> list[int]:
        one = self.one
        return [a for a in self.elements() if one in self.mul[a]]

    def product(self, elems: Iterable[int]) -> int:
        acc = self.one
        for a in elems:
            acc = self.mul[acc][a]
        return acc

    def __post_init__(self) -> None:
        # cheap but eq-consistent; tables are too big to hash, and even this
        # key is hashed once here rather than on every cache lookup
        object.__setattr__(self, "_hash", hash((len(self.add), self.zero, self.one, self.label)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteRing({self.label}, n={self.size})"


@dataclass(frozen=True)
class Ideal:
    ring: FiniteRing
    members: tuple[int, ...]  # sorted

    @property
    def size(self) -> int:
        return len(self.members)

    def is_proper(self) -> bool:
        return len(self.members) < self.ring.size

    def __repr__(self) -> str:
        elems = ",".join(self.ring.name(a) for a in self.members)
        return f"Ideal({{{elems}}} of {self.ring.label})"


@dataclass(frozen=True)
class MultiplicativeSet:
    """1 in S, 0 not in S, closed under products; sigma = product of all members.

    sigma is the universal uniform witness: for finite S, some s in S kills a
    module iff sigma does, because sigma is divisible by every member.
    """

    ring: FiniteRing
    members: tuple[int, ...]  # sorted
    sigma: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.ring, self.members, self.sigma)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        elems = ",".join(self.ring.name(a) for a in self.members)
        return f"MultSet({{{elems}}} of {self.ring.label}, sigma={self.ring.name(self.sigma)})"


# ---------------------------------------------------------------------------
# validation


def check_ring_axioms(ring: FiniteRing) -> None:
    """Check every commutative-ring axiom; raise InvalidRingError on failure.

    The tables must be n x n with every entry, zero and one in range(n).
    Then, in this order: 0 and 1 are identities, every element has an
    additive inverse, both operations commute (a table equals its
    transpose); + is associative, a(b+c) = ab+ac, and . is associative.

    The last three are checked only for the middle element b in an additive
    generating set G (Light's test).  For each of them the b satisfying the
    law for all a and c are closed under +, given the laws checked before
    it: +-associativity needs nothing, distributivity needs
    +-associativity, .-associativity needs distributivity and
    commutativity.  Every element is reached from G by x -> x + g, so the
    law holds for all b.  The cost is O(n^2 |G|) instead of O(n^3); |G| = 1
    for Z/n.  Because of this order, a table breaking several axioms is
    reported under the first of them in the order above.
    """
    n = ring.size
    if n < 2:
        raise InvalidRingError("ring must be nonzero (0 != 1)")
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    if len(mul) != n or any(len(row) != n for row in add) or any(len(row) != n for row in mul):
        raise InvalidRingError("table shape mismatch")
    if not (_in_range(add, n) and _in_range(mul, n)):
        raise InvalidRingError("table entry outside the ring")
    if zero not in range(n) or one not in range(n):
        raise InvalidRingError("0 or 1 outside the ring")
    if zero == one:
        raise InvalidRingError("ring must be nonzero (0 != 1)")
    rng = range(n)
    if any(add[a][zero] != a for a in rng):
        raise InvalidRingError("0 is not an additive identity")
    if any(mul[a][one] != a for a in rng):
        raise InvalidRingError("1 is not a multiplicative identity")
    if any(zero not in row for row in add):
        raise InvalidRingError("missing additive inverse")
    if add != tuple(zip(*add)):
        raise InvalidRingError("addition not commutative")
    if mul != tuple(zip(*mul)):
        raise InvalidRingError("multiplication not commutative")
    gens = _additive_generators(add, zero)
    if not _composes(add, add, gens):
        raise InvalidRingError("addition not associative")
    if not _additive(mul, add, gens):
        raise InvalidRingError("distributivity fails")
    if not _composes(mul, mul, gens):
        raise InvalidRingError("multiplication not associative")


def _in_range(table: Table, size: int) -> bool:
    valid = frozenset(range(size))
    return all(valid.issuperset(row) for row in table)


def _picker(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """row -> tuple(row[i] for i in indices), at C speed."""
    if len(indices) == 1:
        i = indices[0]
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _composes(op: Table, rows: Table, gens: Sequence[int]) -> bool:
    """rows[op[g][a]] is rows[a] after rows[g], for every a and g in gens.

    With rows = op this is (a.g).c = a.(g.c) for a commutative op; with
    rows an action table and op the ring's product, (ag)x = a(gx).
    """
    for g in gens:
        after_g = _picker(rows[g])
        if any(rows[ga] != after_g(row) for ga, row in zip(op[g], rows)):
            return False
    return True


def _additive(rows: Table, add: Table, gens: Sequence[int]) -> bool:
    """row[g + c] = row[g] + row[c] for every row, every c and g in gens."""
    plus_g = [(g, _picker(add[g])) for g in gens]
    for row in rows:
        apply_row = _picker(row)
        if any(g_plus(row) != apply_row(add[row[g]]) for g, g_plus in plus_g):
            return False
    return True


def _additive_generators(add: Table, zero: int) -> tuple[int, ...]:
    """A greedy G such that every element is reached from G by x -> x + g.

    The smallest element not yet reached joins G, together with every
    element reached from it.  Zero is tried last, so a group generated by
    nonzero elements does not take it.  Every element ends up in G or
    reached, so this holds for any table, valid or not; in a finite group,
    what is reached from a new generator is the whole subgroup spanned so
    far.
    """
    gens: list[int] = []
    reached: set[int] = set()
    for x in sorted(range(len(add)), key=lambda x: x == zero):
        if x in reached:
            continue
        gens.append(x)
        reached.add(x)
        queue = [x]
        while queue:
            row = add[queue.pop()]
            for g in gens:
                y = row[g]
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
    return tuple(gens)


def _join(
    add: Table,
    plus_x: Callable[[Sequence[int]], tuple[int, ...]],
    reached: set[int],
    ys: Iterable[int],
) -> list[int]:
    """Grow *reached*, the members of a subgroup X of *add* with plus_x =
    _picker(X's members), in place to X + Y for the members *ys* of a
    subgroup Y, and return the new coset representatives in *ys* order.

    X + Y is the union of the cosets y + X, so it is built coset by coset:
    each y not yet reached adds y + X, read off the row of y at the members
    of X.  *reached* stays a union of cosets of X, so a y already inside
    adds nothing, and the returned representatives lie in distinct cosets.
    """
    reps = []
    for y in ys:
        if y not in reached:
            reached.update(plus_x(add[y]))
            reps.append(y)
    return reps


def _lattice(add: Table, act: Table, cap: Optional[int]) -> list[tuple[int, ...]]:
    """Every subgroup of *add* closed under the rows of *act*, as sorted member
    tuples ordered by (size, members): the ideals when *act* is a ring's
    product, the submodules when it is a module's action.

    Each is a finite join of cyclic ones, {row[x] for row in act}, so this is
    the closure of the distinct cyclics under joining each subgroup found
    with each cyclic Rg (one generator g kept per cyclic; skipped when g is
    already inside), by _join with one picker per subgroup found.  With a
    *cap*, more than max(cap, #cyclics) subgroups raise
    ResourceExceededError.
    """
    generator_of: dict[tuple[int, ...], int] = {}
    for x, column in enumerate(zip(*act)):
        generator_of.setdefault(tuple(sorted(set(column))), x)
    cyclics = list(generator_of.items())
    found = set(generator_of)
    queue = list(generator_of)
    while queue:
        xs = queue.pop()
        inside = set(xs)
        plus_x = _picker(xs)
        for ys, g in cyclics:
            if g in inside:
                continue
            reached = set(inside)
            _join(add, plus_x, reached, ys)
            zs = tuple(sorted(reached))
            if zs not in found:
                if cap is not None and len(found) >= cap:
                    raise ResourceExceededError("submodule lattice exceeds cap")
                found.add(zs)
                queue.append(zs)
    return sorted(found, key=lambda t: (len(t), t))


def _cosets(add: Table, members: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(reps, proj) for the subgroup *members* of *add*: the sorted minimal
    coset representatives, and each element's coset as an index into reps.

    Scanning in index order, the first element of each new coset is its
    smallest, so reps come out minimal and sorted.
    """
    reps: list[int] = []
    proj = [-1] * len(add)
    for x, row in enumerate(add):
        if proj[x] < 0:
            for k in members:
                proj[row[k]] = len(reps)
            reps.append(x)
    return tuple(reps), tuple(proj)


def _pair_table(t1: Table, t2: Table) -> Table:
    """The componentwise table on pairs, the pair (x, y) numbered x*len(t2) + y.

    The row of (x, y) is the row of x in t1 scaled by len(t2), with the row
    of y in t2 added to each entry.
    """
    n2 = len(t2)
    return tuple(
        tuple(a + c for a in scaled for c in row2)
        for scaled in ([u * n2 for u in row1] for row1 in t1)
        for row2 in t2
    )


def check_mult_set(mset: MultiplicativeSet) -> None:
    ring = mset.ring
    mem = set(mset.members)
    if ring.one not in mem:
        raise InvalidMultiplicativeSetError("1 must belong to the set")
    if ring.zero in mem:
        raise InvalidMultiplicativeSetError("0 must not belong to the set")
    for s in mem:
        for t in mem:
            if ring.mul[s][t] not in mem:
                raise InvalidMultiplicativeSetError("set not closed under products")
    if mset.sigma not in mem or mset.sigma != ring.product(mset.members):
        raise InvalidMultiplicativeSetError("sigma is not the product of all members")


# ---------------------------------------------------------------------------
# constructors


def make_zmod(n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Z/nZ with residue arithmetic."""
    if n < 2:
        raise InvalidRingError(f"zmod needs n >= 2, got {n}")
    if n > caps.max_ring:
        raise ResourceExceededError(f"zmod ring would have {n} > {caps.max_ring} elements")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    ring = FiniteRing(
        add=add,
        mul=mul,
        zero=0,
        one=1 % n,
        label=f"Z/{n}",
        names=tuple(str(a) for a in range(n)),
        zmod_n=n,
    )
    check_ring_axioms(ring)
    return ring


def make_product(r1: FiniteRing, r2: FiniteRing, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Componentwise ring on pairs, (a, b) numbered a*|r2| + b; identity (1, 1)."""
    n1, n2 = r1.size, r2.size
    if n1 * n2 > caps.max_ring:
        raise ResourceExceededError(f"product ring would have {n1 * n2} > {caps.max_ring} elements")
    ring = FiniteRing(
        add=_pair_table(r1.add, r2.add),
        mul=_pair_table(r1.mul, r2.mul),
        zero=r1.zero * n2 + r2.zero,
        one=r1.one * n2 + r2.one,
        label=f"{r1.label}x{r2.label}",
        names=tuple(f"({a},{b})" for a in r1.names for b in r2.names),
    )
    check_ring_axioms(ring)
    return ring


def make_trivial_extension(
    ring: FiniteRing, module: "FiniteModule", caps: Caps = DEFAULT_CAPS
) -> FiniteRing:
    """Ring on pairs (a, m) with (a,m)(b,n) = (ab, an+bm).

    The module coordinate squares to zero; the embedding a -> (a, 0) is
    verified to be a ring monomorphism.
    """
    if module.ring != ring:
        raise DomainError("module is not over the given ring")
    n, m = ring.size, module.size
    if n * m > caps.max_ring:
        raise ResourceExceededError(f"extension would have {n * m} > {caps.max_ring} elements")
    act, madd = module.act, module.add
    columns = tuple(zip(*act))  # columns[x][b] = b.x
    out = FiniteRing(
        add=_pair_table(ring.add, madd),
        mul=tuple(
            tuple(ab * m + madd[ay][bx] for ab, bx in zip(ring.mul[a], columns[x]) for ay in act[a])
            for a in range(n)
            for x in range(m)
        ),
        zero=ring.zero * m + module.zero,
        one=ring.one * m + module.zero,
        label=f"{ring.label}*{module.label}",
        names=tuple(f"({a},{x})" for a in ring.names for x in module.names),
    )
    check_ring_axioms(out)
    embed = range(module.zero, n * m, m)  # a -> (a, 0)
    for a, e in enumerate(embed):  # the embedding must be a ring monomorphism
        if out.add[e][module.zero::m] != tuple(embed[s] for s in ring.add[a]):
            raise InvalidRingError("embedding not additive")
        if out.mul[e][module.zero::m] != tuple(embed[s] for s in ring.mul[a]):
            raise InvalidRingError("embedding not multiplicative")
    return out


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, tuple[int, ...]]:
    """Coset ring R/I plus the natural surjection as an index map."""
    if ideal.ring != ring:
        raise DomainError("ideal belongs to a different ring")
    if not ideal.is_proper():
        raise ImproperIdealError("cannot quotient by the whole ring")
    mem = ideal.members
    reps, surj = _cosets(ring.add, mem)
    add = tuple(tuple(surj[ring.add[a][b]] for b in reps) for a in reps)
    mul = tuple(tuple(surj[ring.mul[a][b]] for b in reps) for a in reps)
    out = FiniteRing(
        add=add,
        mul=mul,
        zero=surj[ring.zero],
        one=surj[ring.one],
        label=f"{ring.label}/{{{','.join(ring.name(a) for a in mem)}}}",
        names=tuple(f"[{ring.name(rep)}]" for rep in reps),
    )
    check_ring_axioms(out)
    return out, surj


# ---------------------------------------------------------------------------
# ideals and spectra


@lru_cache(maxsize=None)
def all_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """Every ideal, canonically sorted: the submodules of R over itself."""
    return tuple(Ideal(ring, mem) for mem in _lattice(ring.add, ring.mul, None))


def is_prime_ideal(ideal: Ideal) -> bool:
    ring = ideal.ring
    if not ideal.is_proper():
        return False
    mem = set(ideal.members)
    for a in ring.elements():
        if a in mem:
            continue
        for b in ring.elements():
            if b not in mem and ring.mul[a][b] in mem:
                return False
    return True


@lru_cache(maxsize=None)
def spectrum(ring: FiniteRing) -> tuple[tuple[Ideal, ...], tuple[Ideal, ...]]:
    """(primes, maximals).  For finite commutative rings these coincide, but
    both are computed from their own definitions and cross-checkable."""
    ideals = all_ideals(ring)
    primes = tuple(i for i in ideals if is_prime_ideal(i))
    proper = [i for i in ideals if i.is_proper()]
    maximals = []
    for i in proper:
        mem = set(i.members)
        if not any(j is not i and mem < set(j.members) for j in proper):
            maximals.append(i)
    return primes, tuple(maximals)


# ---------------------------------------------------------------------------
# multiplicative sets


def mult_set_closure(ring: FiniteRing, generators: Iterable[int]) -> MultiplicativeSet:
    """Smallest multiplicatively closed superset of generators + {1}.

    Every new member is multiplied by each generator, which reaches every
    product of generators.  Raises if the closure swallows 0 (some
    generator is nilpotent-tainted).
    """
    gens = sorted(set(generators))
    if not gens:
        raise InvalidMultiplicativeSetError("need at least one generator")
    outside = [g for g in gens if not 0 <= g < ring.size]
    if outside:
        raise InvalidMultiplicativeSetError(
            f"generator {outside[0]} is not an element of {ring.label}"
        )
    mem = {ring.one}
    queue = [ring.one]
    while queue:
        s = queue.pop()
        for g in gens:
            sg = ring.mul[s][g]
            if sg not in mem:
                mem.add(sg)
                queue.append(sg)
    if ring.zero in mem:
        raise InvalidMultiplicativeSetError(
            f"closure of {{{','.join(ring.name(g) for g in gens)}}} contains 0"
        )
    members = tuple(sorted(mem))
    mset = MultiplicativeSet(ring, members, ring.product(members))
    check_mult_set(mset)
    return mset


def complement_of_prime(ring: FiniteRing, p: Ideal) -> MultiplicativeSet:
    if p.ring != ring:
        raise DomainError("ideal belongs to a different ring")
    if tuple(sorted(set(p.members))) not in {i.members for i in all_ideals(ring)}:
        raise NotPrimeError(
            f"{{{','.join(map(str, p.members))}}} is not an ideal of {ring.label}"
        )
    if not is_prime_ideal(p):
        raise NotPrimeError("complement is multiplicative only for prime ideals")
    members = tuple(sorted(set(ring.elements()) - set(p.members)))
    mset = MultiplicativeSet(ring, members, ring.product(members))
    check_mult_set(mset)
    return mset


def unit_mult_set(ring: FiniteRing) -> MultiplicativeSet:
    members = tuple(sorted(ring.units()))
    return MultiplicativeSet(ring, members, ring.product(members))


def regular_elements(ring: FiniteRing) -> set[int]:
    """Nonzerodivisors of the ring."""
    out = set()
    for a in ring.elements():
        if all(ring.mul[a][b] != ring.zero for b in ring.elements() if b != ring.zero):
            out.add(a)
    return out


def is_regular_set(ring: FiniteRing, mset: MultiplicativeSet) -> bool:
    reg = regular_elements(ring)
    return all(s in reg for s in mset.members)


def is_u_S_noetherian(ring: FiniteRing, mset: MultiplicativeSet) -> tuple[bool, int]:
    """Uniform squeeze of every ideal over a finitely generated sub-ideal.

    For a finite ring this is always witnessed by s = 1 with J = I, but the
    definitional containment sI in J is executed literally anyway.  Returns
    (verdict, witness s).
    """
    for s in mset.members:
        for ideal in all_ideals(ring):
            jset = set(ideal.members)  # J = I, generated by its own (finitely many) elements
            if not all(ring.mul[s][a] in jset for a in ideal.members):
                break
        else:
            return True, s
    return False, ring.zero  # unreachable for valid inputs
