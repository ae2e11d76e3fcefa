"""The package's errors are one type per exit code: every raise in
``src/srpfl`` uses one of them, and only ``srpfl.errors`` defines any."""

import ast
import builtins
from pathlib import Path

import pytest

import srpfl
from srpfl import errors

SRC = Path(srpfl.__file__).resolve().parent
ERROR_TYPES = {"SrpflError", "ConfigError", "NonConvergence"}
MODULES = sorted(SRC.glob("*.py"))


def _raises(tree):
    """Yield ``(enclosing function name, raise node)`` for every raise in ``tree``."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                yield func, child
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            yield from walk(child, inner)
    yield from walk(tree, None)


def _allowed(func, exc):
    if exc is None:  # bare re-raise
        return True
    call = exc.func if isinstance(exc, ast.Call) else exc
    if isinstance(call, ast.Call):  # type(exc)(...)
        return isinstance(call.func, ast.Name) and call.func.id == "type"
    name = call.id if isinstance(call, ast.Name) else None
    return name in ERROR_TYPES or (name == "SystemExit" and func == "console_main")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_raise_uses_an_exit_code_type(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for func, node in _raises(tree) if not _allowed(func, node.exc)
    ]
    assert not bad, bad


def _is_exception_base(base):
    name = base.id if isinstance(base, ast.Name) else base.attr if isinstance(base, ast.Attribute) else ""
    known = getattr(builtins, name, None) or getattr(errors, name, None)
    return isinstance(known, type) and issubclass(known, BaseException)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_errors_module_defines_exceptions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    defined = {node.name for node in classes if any(_is_exception_base(b) for b in node.bases)}
    if path.name == "errors.py":
        assert {node.name for node in classes} == ERROR_TYPES | {"EigenGapDegenerateWarning"}
        assert defined == ERROR_TYPES | {"EigenGapDegenerateWarning"}
    else:
        assert not defined, defined
