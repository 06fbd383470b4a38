"""RPL3xx: error-contract consistency.

A *project* rule: it parses several files and cross-checks them, so it
runs once per lint against the repo root.  The registry/spec checks
that once lived here are held without pattern-matching source now:
``StoreSpec``'s parse/``to_dict`` coverage (once RPL302) by
``tests/test_specgrammar.py::TestStoreSpecTable``, every registered
backend's documentation (once RPL301) by
``tests/test_store_spec.py::TestRegistry``, and ``_COMPOSITE_RESETS``
(once RPL303) by indexing the dataclass fields, so a misspelt name
fails at import.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from tools.reprolint.engine import Finding, rule

_ERRORS = "src/repro/errors.py"


def _parse(root: Path, rel: str) -> ast.Module | None:
    path = root / rel
    if not path.is_file():
        return None
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None


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
