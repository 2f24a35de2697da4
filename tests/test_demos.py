"""The demos stay in step with the API they call.  Nothing runs the demos
in the test suite, so each is parsed instead: every attribute it takes
from a name imported from eoslab must exist, and every call of an eoslab
callable must bind to its signature."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def _eoslab_names(tree: ast.Module) -> dict:
    """The names a demo imports from eoslab, each bound to its object."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eoslab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(node: ast.expr, names: dict):
    """The eoslab object an expression names (``descent.run_gd``), or None
    where it does not start at a name imported from eoslab."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        if base is not None and inspect.ismodule(base):
            assert hasattr(base, node.attr), f"{base.__name__} has no {node.attr}"
            return getattr(base, node.attr)
    return None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = _eoslab_names(tree)
    assert names, "every demo imports from eoslab"
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, names)
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, names)
        if target is None or not callable(target):
            continue
        sig = inspect.signature(target)
        for kw in node.keywords:
            assert kw.arg is None or kw.arg in sig.parameters, (
                f"line {node.lineno}: {kw.arg}= is not a parameter of {target.__name__}")
        if not any(isinstance(a, ast.Starred) for a in node.args) and \
                all(kw.arg is not None for kw in node.keywords):
            try:
                sig.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                pytest.fail(f"line {node.lineno}: {target.__name__}: {exc}")
        checked += 1
    assert checked
