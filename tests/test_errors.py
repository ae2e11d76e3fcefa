"""The package's errors are one type per exit code: every raise in
``src/srpfl`` uses one of them, and only ``srpfl.errors`` defines any."""

import ast
import builtins
from collections import defaultdict
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


def _imported_names(tree):
    """The names that ``tree``'s import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


INNER_MODULES = [p for p in MODULES if p.name != "__init__.py"]  # __init__ imports to re-export


@pytest.mark.parametrize("path", INNER_MODULES, ids=[p.name for p in INNER_MODULES])
def test_no_unread_imports(path):
    # a fold that leaves its callee's import behind shows up here
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert not _imported_names(tree) - read


def _template(node):
    """A literal message with each ``{...}`` field as ``{}``; None where the message is not a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def _messages(tree):
    """Yield the message node of every error-type call and of every ``(condition, message)``
    row of ``RunConfig.validate``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ERROR_TYPES:
            yield from node.args[:1]
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
            validate = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "validate")
            rows = [row for row in ast.walk(validate) if isinstance(row, ast.Tuple) and len(row.elts) == 2]
            yield from (row.elts[1] for row in rows)


def test_each_message_is_written_once():
    # a rule restated outside the layer that reads the value shows up as its message written twice
    sites = defaultdict(list)
    for path in MODULES:
        for node in _messages(ast.parse(path.read_text(encoding="utf-8"))):
            template = _template(node)
            if template is not None:
                sites[template].append(f"{path.name}:{node.lineno}")
    assert len(sites) > 50  # the scan reads the package's messages, not an empty set
    assert not {t: s for t, s in sites.items() if len(s) > 1}


def _check_guards(tree):
    """Yield ``(function name, test)`` for every ``if`` above a raise in a function named ``check`` or ``check_*``."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and (func.name == "check" or func.name.startswith("check_")):
            for node in ast.walk(func):
                if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                    yield func.name, node.test


def test_check_guards_refuse_nan():
    # `lam <= 0` is false for NaN and lets it through; `not lam > 0` refuses it
    guards = [
        (path.name, *guard) for path in MODULES for guard in _check_guards(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(guards) >= 9  # the scan reads the package's checks, not an empty set
    bad = [
        f"{name} {func}: if {ast.unparse(test)}" for name, func, test in guards
        if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not))
    ]
    assert not bad, bad


def _tolerance_guards(tree):
    """Yield every ``if`` above a raise whose test reads a ``*_TOL`` constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.test)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if any(name.endswith("_TOL") for name in names):
                yield node.test


def test_tolerance_guards_refuse_nan():
    # `lam <= GRAM_TOL` is false for NaN and lets it through; `not lam > GRAM_TOL` refuses it
    guards = [
        (path.name, test) for path in MODULES for test in _tolerance_guards(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(guards) >= 3  # the scan reads the package's tolerance guards, not an empty set
    bad = [
        f"{name}: if {ast.unparse(test)}" for name, test in guards
        if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not))
    ]
    assert not bad, bad
