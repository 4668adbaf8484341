"""Line-oriented instance DSL.

Grammar (one statement per line, ``#`` starts a comment):

    ring  NAME = zmod N
    ring  NAME = product R1 R2
    ring  NAME = trivext R M
    mset  NAME over R = closure {a, b, ...}
    mset  NAME over R = complement_prime {a, b, ...}
    module NAME over R = regular
    module NAME = dsum M1 M2
    module NAME = quot M K
    module NAME = asmod K
    sub   NAME of M = gens {a, b, ...}
    hom   NAME : M -> N = images {a: b, ...}
    assert FUNC(arg, ...) [== true|false]

The formal EBNF ships in docs/dsl.md.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

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

    def lookup(self, kind: str, name: str, line: int):
        table = getattr(self, kind)
        if name not in table:
            raise ConfigError(f"line {line}: unknown {kind[:-1]} {name!r}")
        return table[name]


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
    witness_s: Optional[str] = None
    enumeration_complete: bool = True
    detail: str = ""
    method: str = ""
    counterexample_L: Optional[list[int]] = None

    def to_json(self) -> dict:
        return {
            "instance": f"line {self.line}: {self.text}",
            "law": self.law,
            "verdict": self.verdict,
            "expected": self.expected,
            "ok": self.ok,
            "method": self.method,
            "witness_s": self.witness_s,
            "counterexample_L": self.counterexample_L,
            "enumeration_complete": self.enumeration_complete,
            "detail": self.detail,
        }


def _parse_intset(raw: str, line: int) -> list[int]:
    raw = raw.strip()
    if not (raw.startswith("{") and raw.endswith("}")):
        raise ConfigError(f"line {line}: expected {{...}} set, got {raw!r}")
    inner = raw[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(tok.strip()) for tok in inner.split(",")]
    except ValueError:
        raise ConfigError(f"line {line}: bad set literal {raw!r}") from None


def _parse_intmap(raw: str, line: int) -> dict[int, int]:
    raw = raw.strip()
    if not (raw.startswith("{") and raw.endswith("}")):
        raise ConfigError(f"line {line}: expected {{k: v, ...}} map, got {raw!r}")
    inner = raw[1:-1].strip()
    out: dict[int, int] = {}
    if not inner:
        return out
    for piece in inner.split(","):
        try:
            k, v = (int(tok) for tok in piece.split(":"))
        except ValueError:
            raise ConfigError(f"line {line}: bad map literal {raw!r}") from None
        if k in out:
            raise ConfigError(f"line {line}: element {k} is given two images")
        out[k] = v
    return out


def parse_program(text: str, caps: Caps = DEFAULT_CAPS) -> Environment:
    env = Environment()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        _parse_statement(env, line, lineno, caps)
    return env


def _parse_statement(env: Environment, line: str, lineno: int, caps: Caps) -> None:
    m = re.match(rf"ring\s+({_IDENT})\s*=\s*(.+)$", line)
    if m:
        name, rhs = m.groups()
        env.rings[name] = _ring_expr(env, rhs.strip(), lineno, caps)
        return
    m = re.match(rf"mset\s+({_IDENT})\s+over\s+({_IDENT})\s*=\s*(.+)$", line)
    if m:
        name, ring_name, rhs = m.groups()
        ring = env.lookup("rings", ring_name, lineno)
        env.msets[name] = _mset_expr(env, ring, rhs.strip(), lineno)
        return
    m = re.match(rf"module\s+({_IDENT})(?:\s+over\s+({_IDENT}))?\s*=\s*(.+)$", line)
    if m:
        name, ring_name, rhs = m.groups()
        env.modules[name] = _module_expr(env, ring_name, rhs.strip(), lineno, caps)
        return
    m = re.match(rf"sub\s+({_IDENT})\s+of\s+({_IDENT})\s*=\s*gens\s*(\{{.*\}})$", line)
    if m:
        name, mod_name, gens = m.groups()
        module = env.lookup("modules", mod_name, lineno)
        elems = _parse_intset(gens, lineno)
        for x in elems:
            if not 0 <= x < module.size:
                raise ConfigError(f"line {lineno}: element {x} outside module {mod_name}")
        from .modules import span

        env.subs[name] = Submodule(module, span(module, elems))
        return
    m = re.match(
        rf"hom\s+({_IDENT})\s*:\s*({_IDENT})\s*->\s*({_IDENT})\s*=\s*images\s*(\{{.*\}})$",
        line,
    )
    if m:
        name, src_name, dst_name, images = m.groups()
        src = env.lookup("modules", src_name, lineno)
        dst = env.lookup("modules", dst_name, lineno)
        env.homs[name] = _hom_from_images(src, dst, _parse_intmap(images, lineno), lineno)
        return
    m = re.match(rf"assert\s+({_IDENT})\s*\(([^)]*)\)\s*(?:==\s*(true|false))?$", line)
    if m:
        func, arglist, expected = m.groups()
        args = tuple(a.strip() for a in arglist.split(",") if a.strip())
        env.asserts.append(
            Assertion(lineno, line, func, args, expected != "false")
        )
        return
    raise ConfigError(f"line {lineno}: cannot parse statement {line!r}")


def _ring_expr(env: Environment, rhs: str, lineno: int, caps: Caps) -> FiniteRing:
    m = re.match(r"zmod\s+(\d+)$", rhs)
    if m:
        return make_zmod(int(m.group(1)), caps)
    m = re.match(rf"product\s+({_IDENT})\s+({_IDENT})$", rhs)
    if m:
        r1 = env.lookup("rings", m.group(1), lineno)
        r2 = env.lookup("rings", m.group(2), lineno)
        return make_product(r1, r2, caps)
    m = re.match(rf"trivext\s+({_IDENT})\s+({_IDENT})$", rhs)
    if m:
        ring = env.lookup("rings", m.group(1), lineno)
        module = env.lookup("modules", m.group(2), lineno)
        return make_trivial_extension(ring, module, caps)
    raise ConfigError(f"line {lineno}: bad ring expression {rhs!r}")


def _mset_expr(env: Environment, ring: FiniteRing, rhs: str, lineno: int) -> MultiplicativeSet:
    m = re.match(r"closure\s*(\{.*\})$", rhs)
    if m:
        return mult_set_closure(ring, _parse_intset(m.group(1), lineno))
    m = re.match(r"complement_prime\s*(\{.*\})$", rhs)
    if m:
        members = tuple(sorted(_parse_intset(m.group(1), lineno)))
        return complement_of_prime(ring, Ideal(ring, members))
    raise ConfigError(f"line {lineno}: bad mset expression {rhs!r}")


def _module_expr(
    env: Environment, ring_name: Optional[str], rhs: str, lineno: int, caps: Caps
) -> FiniteModule:
    if rhs == "regular":
        if ring_name is None:
            raise ConfigError(f"line {lineno}: regular module needs 'over RING'")
        return regular_module(env.lookup("rings", ring_name, lineno))
    m = re.match(rf"dsum\s+({_IDENT})\s+({_IDENT})$", rhs)
    if m:
        m1 = env.lookup("modules", m.group(1), lineno)
        m2 = env.lookup("modules", m.group(2), lineno)
        return direct_sum(m1, m2, caps)[0]
    m = re.match(rf"quot\s+({_IDENT})\s+({_IDENT})$", rhs)
    if m:
        module = env.lookup("modules", m.group(1), lineno)
        sub = env.lookup("subs", m.group(2), lineno)
        return quotient_module(module, sub)[0]
    m = re.match(rf"asmod\s+({_IDENT})$", rhs)
    if m:
        sub = env.lookup("subs", m.group(1), lineno)
        return submodule_as_module(sub)[0]
    raise ConfigError(f"line {lineno}: bad module expression {rhs!r}")


def _hom_from_images(
    src: FiniteModule, dst: FiniteModule, images: dict[int, int], lineno: int
) -> Homomorphism:
    if src.ring != dst.ring:
        raise ConfigError(f"line {lineno}: source and target are over different rings")
    for k, v in images.items():
        if not (0 <= k < src.size and 0 <= v < dst.size):
            raise ConfigError(f"line {lineno}: image pair {k}:{v} out of range")
    extended = extend_images(src, dst, list(images.items()))
    if extended is None:
        raise ConfigError(f"line {lineno}: images are inconsistent with linearity")
    if len(extended) != src.size:
        raise ConfigError(
            f"line {lineno}: images only determine the map on a submodule "
            f"({len(extended)} of {src.size} elements)"
        )
    return Homomorphism(src, dst, tuple(extended[x] for x in src.elements()))


# ---------------------------------------------------------------------------
# assertion evaluation


def evaluate_assertions(env: Environment, caps: Caps = DEFAULT_CAPS) -> list[AssertionResult]:
    out = []
    for a in env.asserts:
        out.append(_evaluate_one(env, a, caps))
    return out


def _name_of(ring: FiniteRing, s: Optional[int]) -> Optional[str]:
    return None if s is None else ring.name(s)


def _killer_name(mset: MultiplicativeSet, target) -> Optional[str]:
    """The s shown for a u-S check: the first member of S killing *target*,
    None exactly when the check fails (the ``sigma-shortcut`` law)."""
    module, members = members_of(target)
    return _name_of(mset.ring, smallest_killer(module, mset, members))


# each assertion function's argument count, checked before it is evaluated
_ARITY = {
    "essential": 1, "u_s_essential": 2, "u_s_torsion": 2, "u_s_mono": 2, "u_s_epi": 2,
    "u_s_iso": 2, "u_s_split": 2, "u_s_iso_exists": 3, "injective": 1, "u_s_injective": 2,
    "u_s_preenvelope": 2, "u_s_envelope": 2,
}


def _evaluate_one(env: Environment, a: Assertion, caps: Caps) -> AssertionResult:
    def sub(i: int) -> Submodule:
        return env.lookup("subs", a.args[i], a.line)

    def mod_or_sub(i: int):
        name = a.args[i]
        if name in env.modules:
            return env.modules[name]
        if name in env.subs:
            return env.subs[name]
        raise ConfigError(f"line {a.line}: unknown module or sub {name!r}")

    def module(i: int) -> FiniteModule:
        return env.lookup("modules", a.args[i], a.line)

    def mset(i: int) -> MultiplicativeSet:
        return env.lookup("msets", a.args[i], a.line)

    def hom(i: int) -> Homomorphism:
        return env.lookup("homs", a.args[i], a.line)

    verdict: Optional[bool] = None
    witness: Optional[str] = None
    complete = True
    detail = ""
    method = ""
    counterexample: Optional[list[int]] = None
    try:
        if a.func not in _ARITY:
            raise ConfigError(f"line {a.line}: unknown assertion {a.func!r}")
        arity = _ARITY[a.func]
        if len(a.args) != arity:
            raise ConfigError(
                f"line {a.line}: {a.func} takes {arity} argument{'s' * (arity > 1)}, "
                f"got {len(a.args)}"
            )
        if a.func == "essential":
            k = sub(0)
            res = is_essential(k, k.parent, caps)
            verdict = res.verdict
            method = res.method
            if res.counterexample_L is not None:
                counterexample = list(res.counterexample_L.members)
        elif a.func == "u_s_essential":
            k = sub(0)
            res = is_u_S_essential_fast(k, k.parent, mset(1))
            verdict = res.verdict
            method = res.method
            if res.witness_s_pair:
                witness = _name_of(k.parent.ring, res.witness_s_pair[0])
            if res.counterexample_L is not None:
                counterexample = list(res.counterexample_L.members)
        elif a.func == "u_s_torsion":
            verdict = is_u_S_torsion(mod_or_sub(0), mset(1))
            witness = _killer_name(mset(1), mod_or_sub(0))
        elif a.func == "u_s_mono":
            verdict = is_u_S_mono(hom(0), mset(1))
            witness = _killer_name(mset(1), kernel(hom(0)))
        elif a.func == "u_s_epi":
            verdict = is_u_S_epi(hom(0), mset(1))
            witness = _killer_name(mset(1), cokernel(hom(0))[0])
        elif a.func == "u_s_iso":
            verdict = is_u_S_iso(hom(0), mset(1))
        elif a.func == "u_s_split":
            ok, payload = is_u_S_split(hom(0), mset(1), caps=caps)
            verdict = ok
            if payload:
                witness = _name_of(mset(1).ring, payload[0])
        elif a.func == "u_s_iso_exists":
            found = find_u_S_isomorphism(module(0), module(1), mset(2), caps=caps)
            verdict = found is not None
        elif a.func == "injective":
            verdict = is_injective_baer(module(0), caps).verdict == "injective"
        elif a.func == "u_s_injective":
            report = certify_u_S_injective(module(0), mset(1), caps)
            verdict = report.certified
            detail = report.verdict
        elif a.func == "u_s_preenvelope":
            report = check_u_S_preenvelope(hom(0), mset(1), caps)
            verdict = report.holds
            detail = report.level
        else:  # u_s_envelope
            cand = check_u_S_envelope(hom(0), mset(1), caps)
            verdict = cand.essential_verdict.verdict
            detail = cand.e_certificate
    except ResourceExceededError as exc:
        complete = False
        detail = f"resource-exceeded: {exc}"
    except UsmodError as exc:
        return AssertionResult(
            a.line, a.text, a.func, None, a.expected, False, None, True, f"{exc.code}: {exc}"
        )
    ok = complete and verdict == a.expected
    return AssertionResult(
        a.line, a.text, a.func, verdict, a.expected, ok, witness, complete, detail,
        method, counterexample,
    )
