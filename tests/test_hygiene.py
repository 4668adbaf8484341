"""Library code raises only the usmod.errors taxonomy and swallows nothing
it did not name: no assert statement, no AssertionError and no bare,
Exception or BaseException handler in any module of the package.

It also keeps one identity rule: dataclasses compare by value, every field,
so no class defines __eq__ by hand and no @dataclass passes eq=False.

Process-wide caches only shrink: the package holds at most
MAX_PROCESS_CACHES functools cache decorators, so a new speedup keeps its
memo in the call that needs it.

No library module but __init__.py (which re-exports) imports a name it
never uses, so a deletion cannot leave a dead import behind.  Its twin:
every module-level private function is referred to somewhere in the
package outside its own definition, so a consolidation cannot leave a dead
helper behind.

essential.py neither imports nor reaches for a module builder (a quotient,
a submodule as a module, a direct sum): its deciders read the cached
lattice, so the decide path cannot quietly go back to building modules.

Every payload replayer (a library function named replay* whose one
required parameter is the payload) refuses an empty or non-dict payload
with ConfigError, so no KeyError or TypeError leaks past the trust
boundary."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import usmod
from usmod.errors import ConfigError

PACKAGE = Path(usmod.__file__).resolve().parent
BROAD = {"Exception", "BaseException"}
MAX_PROCESS_CACHES = 15
CACHE_DECORATORS = {"lru_cache", "cache"}


def _name(node) -> str:
    """The name called or referred to: `f`, `f(...)`, `mod.f` or `mod.f(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            if _name(node.exc) == "AssertionError":
                yield node.lineno, "raise AssertionError"
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(_name(t) in BROAD for t in caught):
                yield node.lineno, "broad except"
        elif isinstance(node, ast.FunctionDef) and node.name == "__eq__":
            yield node.lineno, "hand-written __eq__"
        elif isinstance(node, ast.Call) and _name(node) == "dataclass":
            if any(k.arg == "eq" for k in node.keywords):
                yield node.lineno, "dataclass eq= argument"


def test_library_raises_and_catches_only_named_errors():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _offences(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_process_wide_caches_do_not_grow():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for deco in node.decorator_list
        if _name(deco) in CACHE_DECORATORS
    ]
    assert len(found) <= MAX_PROCESS_CACHES, found


def _imported_names(tree: ast.AST):
    """Each name an import binds, with its line; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def test_library_modules_have_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        found += [f"{path.name}:{line}: {name}" for name, line in _imported_names(tree) if name not in used]
    assert found == []


MODULE_BUILDERS = {"quotient_module", "submodule_as_module", "direct_sum"}


def test_essential_builds_no_module():
    path = PACKAGE / "essential.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
    assert found & MODULE_BUILDERS == set()


def _referred_names(node: ast.AST) -> set[str]:
    """Names referred to in *node*: read, taken as an attribute or imported."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.alias):
            names.add(part.name)
    return names


def test_private_functions_are_referred_to():
    statements = [
        (path.name, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]
    referred = [_referred_names(stmt) for _, stmt in statements]
    found = [
        f"{name}:{stmt.lineno}: {stmt.name}"
        for i, (name, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for j, names in enumerate(referred) if j != i)
    ]
    assert found == []


def _payload_replayers():
    for info in pkgutil.iter_modules(usmod.__path__):
        module = importlib.import_module(f"usmod.{info.name}")
        for name, fn in sorted(vars(module).items()):
            if not (name.startswith("replay") and inspect.isfunction(fn)):
                continue
            if fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if sum(p.default is p.empty for p in params) == 1:
                yield f"{info.name}.{name}", fn


PAYLOAD_REPLAYERS = dict(_payload_replayers())


def test_payload_replayers_are_found():
    assert set(PAYLOAD_REPLAYERS) >= {
        "laws.replay_result",
        "search.replay_hit",
        "witnesses.replay_essential_witness",
        "witnesses.replay_refuted_payload",
    }


@pytest.mark.parametrize("payload", [{}, [], None, "payload", 3], ids=repr)
@pytest.mark.parametrize("name", sorted(PAYLOAD_REPLAYERS))
def test_payload_replayers_refuse_malformed_payloads(name, payload):
    with pytest.raises(ConfigError):
        PAYLOAD_REPLAYERS[name](payload)
