"""RPL3xx: registry / spec / error-contract consistency.

These are *project* rules: they parse several files and cross-check
them, so they run once per lint against the repo root.  PR 7's review
caught a drifted composite-reset default by hand; RPL303 makes that
class of drift mechanical.  (``StoreSpec``'s parse/``to_dict`` coverage,
once RPL302, is a table now and is held by
``tests/test_specgrammar.py::TestStoreSpecTable``.)
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from tools.reprolint.engine import Finding, rule

_SPEC = "src/repro/backends/spec.py"
_ERRORS = "src/repro/errors.py"
_BACKENDS_DIR = "src/repro/backends"
_DOCS = ("README.md", "docs/architecture.md")


def _parse(root: Path, rel: str) -> ast.Module | None:
    path = root / rel
    if not path.is_file():
        return None
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None


def _storespec_fields(tree: ast.Module) -> dict[str, int]:
    """StoreSpec's dataclass field names -> declaration line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "StoreSpec":
            fields: dict[str, int] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    ann = ast.unparse(stmt.annotation)
                    if not ann.startswith("ClassVar"):
                        fields[stmt.target.id] = stmt.lineno
            return fields
    return {}


@rule("RPL301", "backend-undocumented", project=True,
      hint="add the backend name to README.md and "
           "docs/architecture.md when registering it")
def check_backends_documented(root: Path) -> Iterator[Finding]:
    """Every `@register_backend` name must appear in README and docs."""
    doc_text = {rel: (root / rel).read_text(encoding="utf-8")
                if (root / rel).is_file() else ""
                for rel in _DOCS}
    backends_dir = root / _BACKENDS_DIR
    if not backends_dir.is_dir():
        return
    for path in sorted(backends_dir.glob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = _parse(root, rel)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                if not (isinstance(deco, ast.Call)
                        and isinstance(deco.func, ast.Name)
                        and deco.func.id == "register_backend"
                        and deco.args
                        and isinstance(deco.args[0], ast.Constant)
                        and isinstance(deco.args[0].value, str)):
                    continue
                name = deco.args[0].value
                pattern = re.compile(rf"\b{re.escape(name)}\b")
                missing = [d for d, text in doc_text.items()
                           if not pattern.search(text)]
                if missing:
                    yield Finding(
                        rel, deco.lineno, "RPL301",
                        f"backend `{name}` is registered but not "
                        f"mentioned in {', '.join(missing)}")


@rule("RPL303", "composite-reset-fields", project=True,
      hint="_COMPOSITE_RESETS must name real StoreSpec fields (it "
           "resolves their defaults from the dataclass)")
def check_composite_resets(root: Path) -> Iterator[Finding]:
    """String constants in `_COMPOSITE_RESETS` must be StoreSpec fields."""
    tree = _parse(root, _SPEC)
    if tree is None:
        return
    fields = set(_storespec_fields(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_COMPOSITE_RESETS"
                for t in node.targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and \
                        isinstance(sub.value, str) and \
                        sub.value not in fields:
                    yield Finding(
                        _SPEC, sub.lineno, "RPL303",
                        f"_COMPOSITE_RESETS names `{sub.value}`, not a "
                        "StoreSpec field")


def _device_error_closure(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """Classes in errors.py descending from DeviceError (inclusive)."""
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    closure: dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for name, node in classes.items():
            if name in closure:
                continue
            bases = {b.id for b in node.bases
                     if isinstance(b, ast.Name)}
            if name == "DeviceError" or bases & set(closure):
                closure[name] = node
                changed = True
    return closure


@rule("RPL304", "device-error-contract", project=True,
      hint="declare device-fault exception types in repro/errors.py "
           "with a docstring stating when they are raised")
def check_device_errors(root: Path) -> Iterator[Finding]:
    """DeviceError subclasses live in errors.py and document their contract."""
    tree = _parse(root, _ERRORS)
    if tree is None:
        return
    closure = _device_error_closure(tree)
    for name, node in sorted(closure.items()):
        if ast.get_docstring(node) is None:
            yield Finding(_ERRORS, node.lineno, "RPL304",
                          f"device error `{name}` has no docstring "
                          "stating its contract")
    src = root / "src"
    if not src.is_dir():
        return
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == _ERRORS or "__pycache__" in path.parts:
            continue
        tree = _parse(root, rel)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id for b in node.bases
                     if isinstance(b, ast.Name)}
            if bases & set(closure):
                yield Finding(rel, node.lineno, "RPL304",
                              f"`{node.name}` subclasses a device "
                              "error outside repro/errors.py")
