"""Line-oriented instance DSL: one statement per line, ``#`` starts a comment.

A statement declares a ring, mset, module, sub or hom, or asserts a
property.  Each declaration form is one row of ``DECLARATIONS``, read after
the head of its statement in ``_HEADS``, and each assertion function is one
row of ``ASSERTIONS``; the EBNF in docs/dsl.md is checked against both
tables.  A name is declared once, in one table.  Names are resolved left to
right, and ``_at_line`` prefixes ``line N: `` to any error raised while line
N is parsed or its assertion's names are resolved.  A module declared
``over RING`` must come out over that ring, whatever its form.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

from .caps import DEFAULT_CAPS, Caps
from .errors import ConfigError, ResourceExceededError, UsmodError
from .essential import is_essential, is_u_S_essential_fast
from .injective import certify_u_S_injective, check_u_S_envelope, check_u_S_preenvelope, is_injective_baer
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    direct_sum,
    extend_images,
    kernel,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
)
from .rings import (
    FiniteRing,
    Ideal,
    MultiplicativeSet,
    complement_of_prime,
    make_product,
    make_trivial_extension,
    make_zmod,
    mult_set_closure,
)
from .storsion import (
    cokernel,
    find_u_S_isomorphism,
    is_u_S_epi,
    is_u_S_iso,
    is_u_S_mono,
    is_u_S_split,
    is_u_S_torsion,
    members_of,
    smallest_killer,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


@dataclass
class Environment:
    rings: dict[str, FiniteRing] = field(default_factory=dict)
    msets: dict[str, MultiplicativeSet] = field(default_factory=dict)
    modules: dict[str, FiniteModule] = field(default_factory=dict)
    subs: dict[str, Submodule] = field(default_factory=dict)
    homs: dict[str, Homomorphism] = field(default_factory=dict)
    asserts: list["Assertion"] = field(default_factory=list)

    def lookup(self, name: str, tables: str):
        """The object declared as *name* in one of *tables* ("modules|subs")."""
        for table in tables.split("|"):
            if name in getattr(self, table):
                return getattr(self, table)[name]
        raise ConfigError(f"unknown {' or '.join(t[:-1] for t in tables.split('|'))} {name!r}")


_TABLES = tuple(f.name for f in fields(Environment) if f.name != "asserts")


@dataclass(frozen=True)
class Assertion:
    line: int
    text: str
    func: str
    args: tuple[str, ...]
    expected: bool


@dataclass
class AssertionResult:
    line: int
    text: str
    law: str
    verdict: Optional[bool]
    expected: bool
    ok: bool
    method: str = ""
    witness_s: Optional[str] = None
    counterexample_L: Optional[list[int]] = None
    enumeration_complete: bool = True
    detail: str = ""

    def to_json(self) -> dict:
        """The fields in order, with the line and its text joined as "instance"."""
        record = asdict(self)
        return {"instance": f"line {record.pop('line')}: {record.pop('text')}", **record}


@contextmanager
def _at_line(lineno: int):
    """Prefix ``line N: `` to any UsmodError raised inside, keeping its class."""
    try:
        yield
    except UsmodError as exc:
        exc.args = (f"line {lineno}: {exc}",)
        raise


# The braces of both literals were matched by the statement's pattern.
def _parse_intset(raw: str) -> list[int]:
    inner = raw[1:-1].strip()
    try:
        return [int(tok.strip()) for tok in inner.split(",")] if inner else []
    except ValueError:
        raise ConfigError(f"bad set literal {raw!r}") from None


def _parse_intmap(raw: str) -> dict[int, int]:
    inner = raw[1:-1].strip()
    out: dict[int, int] = {}
    for piece in inner.split(",") if inner else ():
        try:
            k, v = (int(tok) for tok in piece.split(":"))
        except ValueError:
            raise ConfigError(f"bad map literal {raw!r}") from None
        if k in out:
            raise ConfigError(f"element {k} is given two images")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# declarations


def _regular(ring: Optional[FiniteRing], caps: Caps) -> FiniteModule:
    if ring is None:
        raise ConfigError("regular module needs 'over RING'")
    return regular_module(ring)


def _hom_from_images(
    src: FiniteModule, dst: FiniteModule, images: dict[int, int], caps: Caps
) -> Homomorphism:
    if src.ring != dst.ring:
        raise ConfigError("source and target are over different rings")
    for k, v in images.items():
        if not (0 <= k < src.size and 0 <= v < dst.size):
            raise ConfigError(f"image pair {k}:{v} out of range")
    extended = extend_images(src, dst, list(images.items()))
    if extended is None:
        raise ConfigError("images are inconsistent with linearity")
    if len(extended) != src.size:
        raise ConfigError(
            f"images only determine the map on a submodule ({len(extended)} of {src.size} elements)"
        )
    return Homomorphism(src, dst, tuple(extended[x] for x in src.elements()))


# The head of each declaration statement, keyed by the table it declares
# into: a pattern whose groups are the declared name, the names looked up
# before the right-hand side is read (a module's ``over RING`` may be
# absent), and the right-hand side; then the tables of those names.
_HEADS = {
    "rings": (rf"ring\s+({_IDENT})\s*=\s*(.+)$", ()),
    "msets": (rf"mset\s+({_IDENT})\s+over\s+({_IDENT})\s*=\s*(.+)$", ("rings",)),
    "modules": (rf"module\s+({_IDENT})(?:\s+over\s+({_IDENT}))?\s*=\s*(.+)$", ("rings",)),
    "subs": (rf"sub\s+({_IDENT})\s+of\s+({_IDENT})\s*=\s*(gens\s*\{{.*\}})$", ("modules",)),
    "homs": (
        rf"hom\s+({_IDENT})\s*:\s*({_IDENT})\s*->\s*({_IDENT})\s*=\s*(images\s*\{{.*\}})$",
        ("modules", "modules"),
    ),
}

# What each kind of operand of a right-hand side matches, and how it is
# read; an operand whose kind is a table is a name looked up there.
_OPERANDS: dict[str, tuple[str, Optional[Callable]]] = {
    "int": (r"\s+(\d+)", int),
    "set": (r"\s*(\{.*\})", _parse_intset),
    "map": (r"\s*(\{.*\})", _parse_intmap),
    **{table: (rf"\s+({_IDENT})", None) for table in _TABLES},
}


class Form(NamedTuple):
    """A declaration form: the table it declares into; its shape, a keyword
    and then the kinds of its operands; and the builder, run on the head's
    looked-up names, then the operands, then the caps."""

    table: str
    shape: str
    build: Callable


DECLARATIONS = (
    Form("rings", "zmod int", make_zmod),
    Form("rings", "product rings rings", make_product),
    Form("rings", "trivext rings modules", make_trivial_extension),
    Form("msets", "closure set", lambda ring, gens, caps: mult_set_closure(ring, gens)),
    Form("msets", "complement_prime set",
         lambda ring, p, caps: complement_of_prime(ring, Ideal(ring, tuple(sorted(p))))),
    Form("modules", "regular", _regular),
    Form("modules", "dsum modules modules", lambda _, m1, m2, caps: direct_sum(m1, m2, caps)[0]),
    Form("modules", "quot modules subs", lambda _, m, k, caps: quotient_module(m, k)[0]),
    Form("modules", "asmod subs", lambda _, k, caps: submodule_as_module(k)[0]),
    Form("subs", "gens set", lambda m, gens, caps: Submodule(m, span(m, gens))),
    Form("homs", "images map", _hom_from_images),
)


def _declare(env: Environment, line: str, caps: Caps) -> None:
    for table, (pattern, head_tables) in _HEADS.items():
        head = re.match(pattern, line)
        if head:
            break
    else:
        raise ConfigError(f"cannot parse statement {line!r}")
    name, *head_names, rhs = head.groups()
    if any(name in getattr(env, t) for t in _TABLES):
        raise ConfigError(f"{name!r} is already declared")
    operands = [n and env.lookup(n, t) for n, t in zip(head_names, head_tables)]
    for form in DECLARATIONS:
        keyword, *kinds = form.shape.split()
        pattern = keyword + "".join(_OPERANDS[k][0] for k in kinds) + "$"
        m = form.table == table and re.match(pattern, rhs)
        if m:
            break
    else:
        raise ConfigError(f"bad {table[:-1]} expression {rhs!r}")
    for kind, text in zip(kinds, m.groups()):
        read = _OPERANDS[kind][1]
        operands.append(read(text) if read else env.lookup(text, kind))
    if table == "subs":  # the generators must be elements of the module
        for x in operands[1]:
            if not 0 <= x < operands[0].size:
                raise ConfigError(f"element {x} outside module {head_names[0]}")
    built = form.build(*operands, caps)
    if table == "modules" and operands[0] is not None and built.ring != operands[0]:
        raise ConfigError(f"module {name} is not over {head_names[0]}")
    getattr(env, table)[name] = built


def parse_program(text: str, caps: Caps = DEFAULT_CAPS) -> Environment:
    env = Environment()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        m = re.match(rf"assert\s+({_IDENT})\s*\(([^)]*)\)\s*(?:==\s*(true|false))?$", line)
        if m:
            func, arglist, expected = m.groups()
            args = tuple(a.strip() for a in arglist.split(",") if a.strip())
            env.asserts.append(Assertion(lineno, line, func, args, expected != "false"))
        elif line:
            with _at_line(lineno):
                _declare(env, line, caps)
    return env


# ---------------------------------------------------------------------------
# assertions


def _name_of(ring: FiniteRing, s: Optional[int]) -> Optional[str]:
    return None if s is None else ring.name(s)


def _killed(verdict: bool, mset: MultiplicativeSet, target) -> dict:
    """A u-S check's fields; the s shown is the first member of S killing
    *target*, None exactly when the check fails (the ``sigma-shortcut`` law)."""
    module, members = members_of(target)
    return dict(verdict=verdict, witness_s=_name_of(mset.ring, smallest_killer(module, mset, members)))


def _essential(k: Submodule, caps: Caps) -> dict:
    res = is_essential(k, k.parent, caps)
    found = res.counterexample_L
    return dict(verdict=res.verdict, method=res.method, counterexample_L=found and list(found.members))


def _u_s_essential(k: Submodule, mset: MultiplicativeSet, caps: Caps) -> dict:
    res = is_u_S_essential_fast(k, k.parent, mset)
    pair, found = res.witness_s_pair, res.counterexample_L
    return dict(
        verdict=res.verdict,
        method=res.method,
        witness_s=_name_of(k.parent.ring, pair[0]) if pair else None,
        counterexample_L=found and list(found.members),
    )


def _u_s_split(f: Homomorphism, mset: MultiplicativeSet, caps: Caps) -> dict:
    ok, payload = is_u_S_split(f, mset, caps=caps)
    return dict(verdict=ok, witness_s=_name_of(mset.ring, payload[0]) if payload else None)


def _u_s_injective(module: FiniteModule, mset: MultiplicativeSet, caps: Caps) -> dict:
    report = certify_u_S_injective(module, mset, caps)
    return dict(verdict=report.certified, detail=report.verdict)


def _u_s_preenvelope(f: Homomorphism, mset: MultiplicativeSet, caps: Caps) -> dict:
    report = check_u_S_preenvelope(f, mset, caps)
    return dict(verdict=report.holds, detail=report.level)


def _u_s_envelope(f: Homomorphism, mset: MultiplicativeSet, caps: Caps) -> dict:
    cand = check_u_S_envelope(f, mset, caps)
    return dict(verdict=cand.essential_verdict.verdict, detail=cand.e_certificate)


# One row per assertion function: the tables its arguments are looked up
# in, one word per argument ("modules|subs" tries both), so the row fixes
# the arity; and the function of the arguments and the caps that returns
# the result's fields: the verdict, and any of witness_s, detail, method
# and counterexample_L.
ASSERTIONS: dict[str, tuple[str, Callable[..., dict]]] = {
    "essential": ("subs", _essential),
    "u_s_essential": ("subs msets", _u_s_essential),
    "u_s_torsion": ("modules|subs msets", lambda t, S, caps: _killed(is_u_S_torsion(t, S), S, t)),
    "u_s_mono": ("homs msets", lambda f, S, caps: _killed(is_u_S_mono(f, S), S, kernel(f))),
    "u_s_epi": ("homs msets", lambda f, S, caps: _killed(is_u_S_epi(f, S), S, cokernel(f)[0])),
    "u_s_iso": ("homs msets", lambda f, S, caps: dict(verdict=is_u_S_iso(f, S))),
    "u_s_split": ("homs msets", _u_s_split),
    "u_s_iso_exists": (
        "modules modules msets",
        lambda m, n, S, caps: dict(verdict=find_u_S_isomorphism(m, n, S, caps=caps) is not None),
    ),
    "injective": ("modules", lambda m, caps: dict(verdict=is_injective_baer(m, caps).verdict == "injective")),
    "u_s_injective": ("modules msets", _u_s_injective),
    "u_s_preenvelope": ("homs msets", _u_s_preenvelope),
    "u_s_envelope": ("homs msets", _u_s_envelope),
}


def evaluate_assertions(env: Environment, caps: Caps = DEFAULT_CAPS) -> list[AssertionResult]:
    return [_evaluate_one(env, a, caps) for a in env.asserts]


def _evaluate_one(env: Environment, a: Assertion, caps: Caps) -> AssertionResult:
    """The result of *a*; an error is reported in its detail, not raised."""
    try:
        with _at_line(a.line):
            if a.func not in ASSERTIONS:
                raise ConfigError(f"unknown assertion {a.func!r}")
            arg_tables, evaluate = ASSERTIONS[a.func]
            n = len(arg_tables.split())
            if len(a.args) != n:
                raise ConfigError(f"{a.func} takes {n} argument{'s' * (n > 1)}, got {len(a.args)}")
            args = [env.lookup(name, t) for name, t in zip(a.args, arg_tables.split())]
        result = evaluate(*args, caps)
    except ResourceExceededError as exc:
        result = dict(verdict=None, enumeration_complete=False, detail=f"resource-exceeded: {exc}")
    except UsmodError as exc:
        result = dict(verdict=None, detail=f"{exc.code}: {exc}")
    return AssertionResult(
        a.line, a.text, a.func, expected=a.expected, ok=result["verdict"] == a.expected, **result
    )
