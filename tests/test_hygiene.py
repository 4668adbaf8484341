"""Library code raises only the usmod.errors taxonomy and swallows nothing
it did not name: no assert statement, no AssertionError and no bare,
Exception or BaseException handler in any module of the package.

It also keeps one identity rule: dataclasses compare by value, every field,
so no class defines __eq__ by hand and no @dataclass passes eq=False."""
import ast
from pathlib import Path

import usmod

PACKAGE = Path(usmod.__file__).resolve().parent
BROAD = {"Exception", "BaseException"}


def _name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
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
