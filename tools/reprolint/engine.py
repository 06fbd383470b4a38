"""Rule framework: findings, suppressions, scoping, and the lint driver.

A **file rule** visits one module's AST and yields findings; a
**project rule** runs once against the repository root (cross-file
contracts such as the device-error contract module).  Rules
register themselves with the :func:`rule` decorator and carry:

* ``code`` — ``RPL###``; the suppression and catalogue key.
* ``name`` — short kebab-case label.
* ``hint`` — the one-line fix direction appended to every finding.
* ``include``/``exclude`` — fnmatch globs over repo-relative posix
  paths; a file rule only sees files inside its scope.  Scopes are
  policy, so they live in :mod:`tools.reprolint.config` and override
  the rule's declared defaults.

Suppressions are comments parsed from the token stream (never from
string literals)::

    expr  # reprolint: ok RPL105 (reason text)
    # reprolint: file ok RPL104, RPL105 (reason text)

The reason is mandatory, the code must exist, and a suppression that
matches no finding is itself reported (RPL004) — dead waivers rot.
Meta findings (RPL0xx) cannot be suppressed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Suppression pragma grammar.  ``file`` makes it file-wide.
_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*(?P<body>.*)$")
_OK_RE = re.compile(
    r"^(?P<scope>file\s+)?ok\s+(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
    r"\s*(?:\((?P<reason>[^)]*)\))?\s*$"
)

#: Codes of the meta rules; never suppressible.
META_CODES = ("RPL001", "RPL002", "RPL003", "RPL004")


@dataclass(frozen=True)
class Finding:
    """One reported violation."""

    path: str
    line: int
    code: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.code} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text


@dataclass
class Suppression:
    """One parsed ``reprolint: ok`` pragma."""

    line: int
    codes: tuple[str, ...]
    reason: str
    file_wide: bool
    used: set[str] = field(default_factory=set)


class FileContext:
    """Everything a file rule sees: path, source, AST, import aliases."""

    def __init__(self, relpath: str, text: str, tree: ast.AST) -> None:
        self.path = relpath
        self.text = text
        self.tree = tree
        #: Local name -> dotted module path, from this file's imports
        #: (``from random import Random`` maps ``Random`` ->
        #: ``random.Random``).  Names never imported do not resolve, so
        #: a method named ``random`` on a local object cannot misfire.
        self.aliases = _import_aliases(tree)

    def dotted(self, node: ast.AST) -> str | None:
        """Resolve ``a.b.c`` to a dotted import path, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = \
                    f"{node.module}.{name.name}"
    return aliases


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleInfo:
    """One registered rule."""

    code: str
    name: str
    description: str
    hint: str
    #: ``check(ctx) -> iterable[Finding]`` for file rules,
    #: ``check(root) -> iterable[Finding]`` for project rules.
    check: Callable[..., Iterable[Finding]]
    project: bool = False
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()


_RULES: dict[str, RuleInfo] = {}


def rule(code: str, name: str, *, hint: str, project: bool = False,
         include: tuple[str, ...] = ("*",),
         exclude: tuple[str, ...] = ()):
    """Register a rule function under ``code`` (its docstring documents it)."""
    def deco(fn: Callable[..., Iterable[Finding]]):
        if code in _RULES:
            raise ValueError(f"rule {code} registered twice")
        _RULES[code] = RuleInfo(
            code=code, name=name,
            description=(fn.__doc__ or "").strip().splitlines()[0],
            hint=hint, check=fn, project=project,
            include=include, exclude=exclude,
        )
        return fn
    return deco


def _ensure_loaded() -> None:
    """Import the rule modules so their decorators have run."""
    import tools.reprolint.rules_consistency  # noqa: F401
    import tools.reprolint.rules_determinism  # noqa: F401
    import tools.reprolint.rules_hygiene      # noqa: F401


def all_rules() -> dict[str, RuleInfo]:
    """Every registered rule, including the meta codes, keyed by code."""
    _ensure_loaded()
    catalogue = dict(_RULES)
    for code, (name, desc) in _META_RULES.items():
        catalogue.setdefault(code, RuleInfo(
            code=code, name=name, description=desc,
            hint="fix the pragma rather than the code", check=lambda: (),
        ))
    return dict(sorted(catalogue.items()))


#: The meta rules are implemented by the engine itself (they concern
#: pragmas, not code), but they appear in the catalogue like any other.
_META_RULES = {
    "RPL001": ("bad-pragma",
               "a `# reprolint:` comment does not parse"),
    "RPL002": ("suppression-needs-reason",
               "a suppression carries no (reason)"),
    "RPL003": ("suppression-unknown-code",
               "a suppression names a rule code that does not exist"),
    "RPL004": ("unused-suppression",
               "a suppression matched no finding on its line"),
}


def _in_scope(relpath: str, info: RuleInfo,
              scopes: dict[str, dict] | None) -> bool:
    include, exclude = info.include, info.exclude
    if scopes and info.code in scopes:
        include = tuple(scopes[info.code].get("include", include))
        exclude = tuple(scopes[info.code].get("exclude", exclude))
    if not any(fnmatch(relpath, pat) for pat in include):
        return False
    return not any(fnmatch(relpath, pat) for pat in exclude)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _parse_suppressions(relpath: str, text: str,
                        known_codes: set[str],
                        ) -> tuple[list[Suppression], list[Finding]]:
    suppressions: list[Suppression] = []
    meta: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        body = match.group("body").strip()
        parsed = _OK_RE.match(body)
        if parsed is None:
            meta.append(Finding(
                relpath, line, "RPL001",
                f"unparseable reprolint pragma {body!r}",
                "write `# reprolint: ok RPL### (reason)`",
            ))
            continue
        codes = tuple(c.strip()
                      for c in parsed.group("codes").split(","))
        reason = (parsed.group("reason") or "").strip()
        if not reason:
            meta.append(Finding(
                relpath, line, "RPL002",
                f"suppression of {', '.join(codes)} carries no reason",
                "append `(why this is safe)` to the pragma",
            ))
            continue
        bad = [c for c in codes
               if c not in known_codes or c in META_CODES]
        if bad:
            meta.append(Finding(
                relpath, line, "RPL003",
                f"suppression names unknown or unsuppressible "
                f"code(s) {', '.join(bad)}",
                "check the rule catalogue in docs/architecture.md",
            ))
            continue
        suppressions.append(Suppression(
            line=line, codes=codes, reason=reason,
            file_wide=bool(parsed.group("scope")),
        ))
    return suppressions, meta


def _apply_suppressions(findings: list[Finding],
                        suppressions: list[Suppression],
                        ) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        for sup in suppressions:
            if finding.code not in sup.codes:
                continue
            if sup.file_wide or sup.line == finding.line:
                sup.used.add(finding.code)
                suppressed = True
        if not suppressed:
            kept.append(finding)
    return kept


def _unused_suppressions(relpath: str,
                         suppressions: list[Suppression]) -> list[Finding]:
    out = []
    for sup in suppressions:
        dead = [c for c in sup.codes if c not in sup.used]
        if dead:
            out.append(Finding(
                relpath, sup.line, "RPL004",
                f"suppression of {', '.join(dead)} matched no finding",
                "delete the stale pragma",
            ))
    return out


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def lint_source(text: str, relpath: str, *,
                scopes: dict[str, dict] | None = None,
                codes: tuple[str, ...] | None = None) -> list[Finding]:
    """Lint one in-memory module with the file rules (fixture tests).

    ``codes`` restricts to specific rules; ``scopes`` overrides the
    per-rule path scoping (defaults to each rule's declaration, *not*
    the repo config — pass ``tools.reprolint.config.RULE_SCOPES`` for
    production behaviour).
    """
    _ensure_loaded()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return [Finding(relpath, exc.lineno or 1, "RPL001",
                        f"syntax error: {exc.msg}", "fix the file")]
    ctx = FileContext(relpath, text, tree)
    findings: list[Finding] = []
    for info in _RULES.values():
        if info.project:
            continue
        if codes is not None and info.code not in codes:
            continue
        if not _in_scope(relpath, info, scopes):
            continue
        findings.extend(info.check(ctx))
    known = set(all_rules())
    suppressions, meta = _parse_suppressions(relpath, text, known)
    findings = _apply_suppressions(findings, suppressions)
    findings.extend(meta)
    findings.extend(_unused_suppressions(relpath, suppressions))
    return sorted(findings, key=lambda f: (f.path, f.line, f.code))


def _iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    yield sub
        elif not path.exists():
            raise ValueError(f"{path}: no such file or directory")


def run_lint(paths: Iterable[str | Path], *, root: str | Path,
             scopes: dict[str, dict] | None = None,
             project_rules: bool = True) -> list[Finding]:
    """Lint the given files/trees; returns every surviving finding.

    File rules run over each ``*.py`` beneath ``paths`` (a path that
    does not exist is a usage error); project rules run once against
    ``root`` when ``project_rules`` is true, and their findings pass
    through the same per-line suppression filter as everything else.
    """
    _ensure_loaded()
    root = Path(root).resolve()
    known = set(all_rules())
    findings: list[Finding] = []
    tables: dict[str, list[Suppression]] = {}
    per_file: dict[str, list[Finding]] = {}
    for file in _iter_py_files(Path(p) if Path(p).is_absolute()
                               else root / p for p in paths):
        resolved = file.resolve()
        try:
            relpath = resolved.relative_to(root).as_posix()
        except ValueError:
            raise ValueError(
                f"{file} lies outside the lint root {root}; "
                "pass --root or only paths beneath it") from None
        text = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            findings.append(Finding(relpath, exc.lineno or 1, "RPL001",
                                    f"syntax error: {exc.msg}",
                                    "fix the file"))
            continue
        ctx = FileContext(relpath, text, tree)
        raw: list[Finding] = []
        for info in _RULES.values():
            if info.project or not _in_scope(relpath, info, scopes):
                continue
            raw.extend(info.check(ctx))
        suppressions, meta = _parse_suppressions(relpath, text, known)
        per_file[relpath] = _apply_suppressions(raw, suppressions)
        findings.extend(meta)
        tables[relpath] = suppressions
    if project_rules:
        project_findings: list[Finding] = []
        for info in _RULES.values():
            if info.project:
                project_findings.extend(info.check(root))
        # Project findings anchor to real lines, so the same suppression
        # tables apply; a finding in a file outside the scanned paths
        # gets its table parsed on demand (pragma hygiene and unused
        # checks stay with the scan, since file rules never ran there).
        by_path: dict[str, list[Finding]] = {}
        for finding in project_findings:
            by_path.setdefault(finding.path, []).append(finding)
        for relpath, group in by_path.items():
            sups = tables.get(relpath)
            if sups is None:
                sups = _file_suppressions(root, relpath, known)
            per_file.setdefault(relpath, []).extend(
                _apply_suppressions(group, sups))
    for relpath, kept in per_file.items():
        findings.extend(kept)
    for relpath, suppressions in tables.items():
        findings.extend(_unused_suppressions(relpath, suppressions))
    return sorted(findings, key=lambda f: (f.path, f.line, f.code))


def _file_suppressions(root: Path, relpath: str,
                       known: set[str]) -> list[Suppression]:
    """Suppression table of a file that was not part of the scan."""
    path = root / relpath
    if not path.is_file():
        return []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    suppressions, _ = _parse_suppressions(relpath, text, known)
    return suppressions
