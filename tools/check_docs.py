#!/usr/bin/env python
"""Fail on broken links, stale lint-rule references and drifted figures.

Scans ``README.md``, ``docs/*.md``, ``benchmarks/README.md``,
``ROADMAP.md``, and ``CHANGES.md`` for inline markdown links/images
whose target is a relative path, resolves each against the linking
file's directory, and exits non-zero listing every target that does
not exist.  External links (``http(s):``, ``mailto:``) are ignored.
The ``#anchor`` of a ``path.md#anchor`` or in-page ``#anchor`` link
must be the GitHub slug of one of the target's headings
(:func:`heading_slugs`).  A ``NAME.md`` written anywhere in
``src/**/*.py`` or ``benchmarks/*.py`` must exist too, as a path from
the repo root, and a quoted heading written right after
``docs/NAME.md`` in ``src/``, ``benchmarks/*.py`` or ``tools/``
(``docs/benchmarks.md, "Contract, scaling and calibration"``) must be
a heading of that doc, compared case-blind with whitespace folded
across line breaks.

Also cross-checks the reprolint rule catalogue: every ``RPL###`` code
mentioned in the docs (the history files aside) must exist in the rule
registry, and every
registered rule must appear in the ``docs/architecture.md`` catalogue
— so the "Enforced invariants" section cannot rot.

Every repo path written in backticks in ``README.md``, ``docs/*.md``
or ``benchmarks/README.md`` must name something that exists, so a
deleted module cannot stay in the current docs: ``src/…``,
``benchmarks/…``, ``tests/…``, ``tools/…``, ``examples/…`` and
``repro/…`` (read from ``src/``), globs included, a ``::name`` or
``:line`` suffix ignored.  ROADMAP and CHANGES are history and may
name it.  So may they, and only they, tell a PR's story: a heading
that begins ``PR <n>`` in the current docs fails.  And a backticked
``Class.member`` there whose ``Class`` is a ``src/repro`` class must
name a method, class attribute, annotated field, ``__slots__`` name or
``self.x`` assignment of that class or of its ``src/repro`` bases
(dunders aside), so a renamed member cannot linger in the docs.

And holds what ``README.md``, ``docs/*.md`` and ``benchmarks/README.md``
quote from the committed baselines under ``benchmarks/`` to those
files:

* a backticked key shaped ``op@scale`` must be in ``BENCH_alloc.json``'s
  ``speedups_naive_over_tiered`` map, and a number written right after
  it (`` `key` 320.0× ``, `` | `key` | 320.0 | ``) must equal the
  committed value;
* in a table row naming ``BENCH_e2e_prNN.json``, a figure written
  `` `workload` A → B `sim_ops_per_host_s` `` must equal, to the
  printed precision, the committed medians of ``pr(NN-1)`` and
  ``prNN`` — or of the two files the row names, in that order (a
  parent re-measured beside its change, ``BENCH_e2e_prNN_base.json``,
  included), and every committed ``BENCH_e2e_pr*.json`` must be named
  in such a row;
* a backticked `` `figure.check-key` `` (``fig1.db_aging_512K``) must
  name a shape check of the committed ``benchmarks/BENCH_paper.json``,
  and a number written right after it must equal that check's measured
  value to the printed precision.

And ``docs/architecture.md``'s `` `reach.KEY` N `` quotes must equal
what ``tools/reach.json`` gives (:func:`reach_counts`).

And a ``ROADMAP <label>`` cite in README, ``docs/``, ``src/``,
``tests/``, ``tools/``, ``benchmarks/*.py`` or ``.claude/`` must name a
label ``ROADMAP.md`` defines (:func:`roadmap_labels`: a direction
``9``, a step ``8(b)``, a defect ``1c``, ``Carried G``; an ``item`` or
``direction`` word may precede it), so a cite cannot outlive a
re-anchor.

Stdlib-only so the CI lint job needs no installs::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_GLOBS = ("README.md", "ROADMAP.md", "CHANGES.md", "docs/*.md",
             "benchmarks/*.md")
#: Inline links and images: [text](target) / ![alt](target).  Ignores
#: fenced code by stripping those blocks first.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    files: list[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(ROOT.glob(pattern)))
    return files


def broken_links(path: Path) -> list[str]:
    text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    bad: list[str] = []
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        rel, _, anchor = target.partition("#")
        resolved = (path.parent / rel).resolve() if rel else path
        if ROOT not in resolved.parents and resolved != ROOT:
            bad.append(f"{target} (escapes the repo)")
        elif not resolved.exists():
            bad.append(target)
        elif anchor and resolved.suffix == ".md" \
                and anchor not in heading_slugs(resolved):
            bad.append(f"{target} (no such heading)")
    return bad


HEADING_RE = re.compile(r"^#{1,6}[ \t]+(.+?)[ \t#]*$", re.MULTILINE)
INLINE_LINK_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")


def headings(path: Path) -> list[str]:
    """The text of every markdown heading of ``path``, fenced code aside."""
    text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return HEADING_RE.findall(text)


def heading_slugs(path: Path) -> set[str]:
    """The anchors GitHub gives ``path``'s headings: link text kept,
    lower case, punctuation but ``-`` and ``_`` dropped, each space a
    ``-``, and a repeated slug suffixed ``-1``, ``-2``…"""
    slugs: set[str] = set()
    for heading in headings(path):
        slug = re.sub(r"[^\w\- ]", "",
                      INLINE_LINK_RE.sub(r"\1", heading).lower())
        slug = slug.replace(" ", "-")
        base, n = slug, 0
        while slug in slugs:
            n += 1
            slug = f"{base}-{n}"
        slugs.add(slug)
    return slugs


RPL_RE = re.compile(r"\bRPL\d{3}\b")
#: The rule catalogue every registered code must be documented in.
CATALOGUE_DOC = "docs/architecture.md"
#: History, which may name a retired rule.
HISTORY_DOCS = ("ROADMAP.md", "CHANGES.md")


def registered_rule_codes() -> set[str]:
    """Codes known to the reprolint registry (engine + meta rules)."""
    sys.path.insert(0, str(ROOT))
    try:
        from tools.reprolint import all_rules
    finally:
        sys.path.pop(0)
    return set(all_rules())


def rule_code_problems() -> list[str]:
    """Docs referencing unknown codes, and undocumented known codes."""
    known = registered_rule_codes()
    problems: list[str] = []
    catalogued: set[str] = set()
    for path in doc_files():
        rel = path.relative_to(ROOT).as_posix()
        mentioned = set(RPL_RE.findall(path.read_text(encoding="utf-8")))
        if rel == CATALOGUE_DOC:
            catalogued = mentioned
        if rel in HISTORY_DOCS:
            continue
        for code in sorted(mentioned - known):
            problems.append(f"{rel}: references unknown rule {code}")
    for code in sorted(known - catalogued):
        problems.append(
            f"{CATALOGUE_DOC}: registered rule {code} missing from the "
            "catalogue")
    return problems


#: Source files whose ``NAME.md`` mentions must name a file that exists.
SOURCE_GLOBS = ("src/**/*.py", "benchmarks/*.py")
MD_MENTION_RE = re.compile(r"[\w./-]*\w\.md\b")


def dangling_md_mentions() -> list[str]:
    """``NAME.md`` mentions in source files that name no file."""
    problems: list[str] = []
    for pattern in SOURCE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            mentions = set(MD_MENTION_RE.findall(
                path.read_text(encoding="utf-8")))
            problems += [
                f"{path.relative_to(ROOT).as_posix()}: mentions {mention}, "
                "which is not a file in the repo"
                for mention in sorted(mentions)
                if not (ROOT / mention).is_file()]
    return problems


#: Docs whose bench quotes are held to the committed JSON (ROADMAP and
#: CHANGES are history and may name retired keys).
FIGURE_GLOBS = ("README.md", "docs/*.md", "benchmarks/*.md")


def current_docs() -> list[Path]:
    """The docs that state the current system (:data:`FIGURE_GLOBS`)."""
    return [path for pattern in FIGURE_GLOBS
            for path in sorted(ROOT.glob(pattern))]
TOKEN = r"`([A-Za-z0-9_@.]+)`"
ALLOC_KEY_RE = re.compile(r"`([a-z0-9_]+@[0-9]+)`")
QUOTED_VALUE_RE = re.compile(TOKEN + r"[\s:=(|]*([0-9]+(?:\.[0-9]+)?)")
E2E_FILE_RE = re.compile(r"BENCH_e2e_pr([0-9]+(?:_base)?)\.json")
E2E_QUOTE_RE = re.compile(r"`([a-z0-9_]+)` ([0-9.]+) → ([0-9.]+) "
                          r"`sim_ops_per_host_s`")


SPAN_RE = re.compile(r"`([^`]+)`")
PARAGRAPH_RE = re.compile(r"\n[ \t]*\n")
REPO_PATH_RE = re.compile(
    r"(?<![\w/.-])((?:src|repro|benchmarks|tests|tools|examples)/[\w./*-]*)")


def code_spans(text: str) -> list[str]:
    """Backticked spans, paired within each paragraph so that a span
    may wrap a line but a stray backtick cannot pair across paragraphs."""
    return [span for paragraph in PARAGRAPH_RE.split(text)
            for span in SPAN_RE.findall(paragraph)]


def missing_repo_paths() -> list[str]:
    """Backticked repo paths in the current docs that name nothing."""
    problems: list[str] = []
    for path in current_docs():
        text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
        for span in code_spans(text):
            for mention in REPO_PATH_RE.findall(span):
                base = ROOT / "src" if mention.startswith("repro/") else ROOT
                if not any(base.glob(mention.rstrip("./"))):
                    problems.append(
                        f"{path.relative_to(ROOT).as_posix()}: "
                        f"`{mention}` names no file in the repo")
    return problems


#: A heading that tells one PR's story, which belongs in CHANGES.md.
NARRATIVE_HEADING_RE = re.compile(r"PR\s+\d")


def narrative_headings() -> list[str]:
    """``PR <n>`` headings in the current docs."""
    return [f"{path.relative_to(ROOT).as_posix()}: heading \"{heading}\" "
            "tells a PR's story; that lives in CHANGES.md"
            for path in current_docs()
            for heading in headings(path)
            if NARRATIVE_HEADING_RE.match(heading)]


#: Source files whose section cites of ``docs/NAME.md`` are checked.
SECTION_CITE_GLOBS = ("src/**/*.py", "benchmarks/*.py", "tools/**/*.py")
#: ``docs/NAME.md`` with a quoted heading right after it:
#: ``docs/benchmarks.md, "Contract, scaling and calibration"``,
#: ``docs/architecture.md`` § "Enforced invariants"``.
SECTION_CITE_RE = re.compile(
    r"\b(docs/[\w-]+\.md)(?:``)?(?:'s)?[\s,(§]+\"([^\"\n]+(?:\n[^\"\n]+)*)\"")


def fold(text: str) -> str:
    """``text`` with its whitespace runs folded to one space, case-blind."""
    return " ".join(text.split()).casefold()


def stale_section_cites() -> list[str]:
    """Quoted headings cited after ``docs/NAME.md`` that it lacks."""
    problems: list[str] = []
    for pattern in SECTION_CITE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            text = path.read_text(encoding="utf-8")
            for match in SECTION_CITE_RE.finditer(text):
                doc, cited = ROOT / match.group(1), match.group(2)
                if doc.is_file() and fold(cited) not in {
                        fold(heading) for heading in headings(doc)}:
                    line = text.count("\n", 0, match.start()) + 1
                    problems.append(
                        f"{path.relative_to(ROOT).as_posix()}:{line}: cites "
                        f"\"{' '.join(cited.split())}\", which is no heading"
                        f" of {match.group(1)}")
    return problems


#: A backticked ``Class.member`` (the class may be module-qualified).
MEMBER_RE = re.compile(r"\b([A-Z]\w*)\.([A-Za-z_]\w*)\b")


def class_members() -> dict[str, set[str]]:
    """What each ``src/repro`` class defines, its ``src/repro`` bases'
    members included: methods, class attributes, annotated fields,
    ``__slots__`` names and ``self.x`` assignments.  Two classes of one
    name pool their members."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in cls.bases
                if isinstance(base, (ast.Name, ast.Attribute)))
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
                elif isinstance(node, ast.Assign):
                    targets = {target.id for target in node.targets
                               if isinstance(target, ast.Name)}
                    names |= targets
                    if "__slots__" in targets:
                        names.update(
                            elt.value for elt in ast.walk(node.value)
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str))
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    names.add(node.attr)

    def closure(name: str, seen: set[str]) -> set[str]:
        seen.add(name)
        members = set(own[name])
        for base in (bases[name] & own.keys()) - seen:
            members |= closure(base, seen)
        return members
    return {name: closure(name, set()) for name in own}


def stale_member_mentions() -> list[str]:
    """Backticked ``Class.member`` names in the current docs that no
    ``src/repro`` class of that name defines."""
    members = class_members()
    problems: list[str] = []
    for path in current_docs():
        text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
        for span in code_spans(text):
            for cls, member in MEMBER_RE.findall(span):
                if cls in members and member not in members[cls] \
                        and not (member.startswith("__")
                                 and member.endswith("__")):
                    problems.append(
                        f"{path.relative_to(ROOT).as_posix()}: "
                        f"`{cls}.{member}` names nothing {cls} defines")
    return problems


def committed_alloc_speedups() -> dict[str, float]:
    """The ``op@scale`` ratios of the committed ``BENCH_alloc.json``."""
    path = ROOT / "benchmarks" / "BENCH_alloc.json"
    return json.loads(path.read_text())["speedups_naive_over_tiered"]


def committed_paper_checks() -> tuple[set[str], dict[str, float]]:
    """Figure names of the committed ``BENCH_paper.json`` and the
    measured value of each shape check, keyed ``figure.check-key``."""
    path = ROOT / "benchmarks" / "BENCH_paper.json"
    figures = json.loads(path.read_text())["figures"]
    return set(figures), {
        f"{name}.{key}": check["value"]
        for name, entry in figures.items()
        for key, check in entry["checks"].items()}


def as_printed(value: float, quoted: str) -> str:
    """``value`` at the precision ``quoted`` was written with."""
    return f"{value:.{len(quoted.partition('.')[2])}f}"


def e2e_median(pr: str, workload: str) -> float | None:
    """Committed ``sim_ops_per_host_s`` median, None when there is none."""
    path = ROOT / "benchmarks" / f"BENCH_e2e_pr{pr}.json"
    try:
        metrics = json.loads(path.read_text())["workloads"][workload]
        return float(metrics["end_to_end"]["sim_ops_per_host_s"]["value"])
    except (OSError, KeyError):
        return None


def e2e_quote_problems(text: str) -> list[str]:
    """Before → after whole-run figures that drifted from their files."""
    problems: list[str] = []
    for line in text.splitlines():
        prs = E2E_FILE_RE.findall(line)
        quotes = E2E_QUOTE_RE.findall(line)
        if not line.startswith("|") or not prs or not quotes:
            continue
        pair = (str(int(prs[0]) - 1), prs[0]) if len(prs) == 1 else prs[:2]
        for workload, *quoted in quotes:
            for pr, figure in zip(pair, quoted):
                median = e2e_median(pr, workload)
                if median is None:
                    problems.append(
                        f"`{workload}` {figure}: no committed median in "
                        f"BENCH_e2e_pr{pr}.json")
                elif as_printed(median, figure) != figure:
                    problems.append(
                        f"`{workload}` quoted as {figure}, BENCH_e2e_pr{pr}"
                        f".json has {as_printed(median, figure)}")
    return problems


def unquoted_e2e_files() -> list[str]:
    """Committed ``BENCH_e2e_pr*.json`` files that no table row holding
    a whole-run quote names, so that each one's figures keep a gate."""
    named: set[str] = set()
    for path in current_docs():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("|") and E2E_QUOTE_RE.search(line):
                named.update(E2E_FILE_RE.findall(line))
    committed = sorted((ROOT / "benchmarks").glob("BENCH_e2e_pr*.json"))
    return [f"benchmarks/{path.name}: no table row quotes its "
            "`sim_ops_per_host_s`" for path in committed
            if E2E_FILE_RE.fullmatch(path.name).group(1) not in named]


def figure_problems() -> list[str]:
    """Quoted ``op@scale`` keys, paper checks and values that drifted."""
    speedups = committed_alloc_speedups()
    paper_figures, paper = committed_paper_checks()
    problems: list[str] = []
    for path in current_docs():
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text(encoding="utf-8")
        keys = set(ALLOC_KEY_RE.findall(text))
        for key in sorted(keys - speedups.keys()):
            problems.append(
                f"{rel}: `{key}` is not a committed speedups key")
        for key in sorted(set(re.findall(TOKEN, text)) - paper.keys()):
            figure, dot, _ = key.partition(".")
            if dot and figure in paper_figures:
                problems.append(
                    f"{rel}: `{key}` is not a committed paper check")
        for key, quoted in QUOTED_VALUE_RE.findall(text):
            if key in speedups and float(quoted) != speedups[key]:
                problems.append(
                    f"{rel}: `{key}` quoted as {quoted}, committed "
                    f"value is {speedups[key]}")
            elif key in paper and as_printed(paper[key], quoted) != quoted:
                problems.append(
                    f"{rel}: `{key}` quoted as {quoted}, BENCH_paper.json"
                    f" has {as_printed(paper[key], quoted)}")
        problems += [f"{rel}: {problem}"
                     for problem in e2e_quote_problems(text)]
    return problems


#: ``docs/architecture.md``'s "What runs" quotes: `` `reach.KEY` N ``.
REACH_QUOTE_RE = re.compile(r"`reach\.([a-z0-9_-]+)`[\s:=(|]*([0-9]+)")


def reach_counts() -> dict[str, int]:
    """What ``tools/reach.json`` says of ``src/repro``: every named
    function, the listed ones (also per reason category), and the rest,
    which a clean ``tools/reach.py`` report says the run paths enter."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import reach
    finally:
        sys.path.pop(0)
    functions = len(reach.named_functions(ROOT / "src" / "repro"))
    listed = json.loads((ROOT / "tools" / "reach.json").read_text())
    counts = {"functions": functions, "listed": len(listed),
              "entered": functions - len(listed)}
    for reason in listed.values():
        key = reach.category(reason)
        counts[key] = counts.get(key, 0) + 1
    return counts


def reach_problems() -> list[str]:
    """Reach counts quoted in the catalogue doc that drifted."""
    text = (ROOT / CATALOGUE_DOC).read_text(encoding="utf-8")
    quotes = REACH_QUOTE_RE.findall(text)
    counts = reach_counts() if quotes else {}
    return [f"{CATALOGUE_DOC}: `reach.{key}` quoted as {quoted}, "
            f"tools/reach.json gives {counts.get(key)}"
            for key, quoted in quotes if counts.get(key) != int(quoted)]


#: Where a ``ROADMAP <label>`` cite must name a current label.
CITE_GLOBS = ("README.md", "docs/**/*.md", "src/**/*.py", "tests/**/*.py",
              "tools/**/*.py", "tools/*.json", "benchmarks/*.py",
              ".claude/**/*.md")
CITE_RE = re.compile(r"\bROADMAP\s+(?:(?:item|direction)\s+)?"
                     r"(Carried\s+[A-Z]\b|\d+[A-Za-z]?(?:\([a-z]\))?)")
#: ROADMAP.md's definition sites: a numbered direction (``9. **``), a
#: lettered step inside one (``- (b) *``), a named defect (``- **1c:``,
#: ``- **11 first:`` or ``- 11:``) and a carried item (``D. **``).
DIRECTION_RE = re.compile(r"^(\d+)\. ")
STEP_RE = re.compile(r"^\s+- \(([a-z])\) ")
DEFECT_RE = re.compile(r"^\s*- (?:\*\*)?(\d+[a-z]?)(?: first)?:")
CARRIED_RE = re.compile(r"^([A-Z])\. \*\*")


def roadmap_labels() -> set[str]:
    """Every label ``ROADMAP.md`` defines: ``9``, ``9(b)``, ``1c``,
    ``Carried D``."""
    labels: set[str] = set()
    direction = None
    for line in (ROOT / "ROADMAP.md").read_text(encoding="utf-8").splitlines():
        if match := DIRECTION_RE.match(line):
            direction = match.group(1)
            labels.add(direction)
        elif match := CARRIED_RE.match(line):
            direction = None
            labels.add(f"Carried {match.group(1)}")
        elif (match := STEP_RE.match(line)) and direction is not None:
            labels.add(f"{direction}({match.group(1)})")
        elif match := DEFECT_RE.match(line):
            labels.add(match.group(1))
    return labels


def stale_roadmap_cites() -> list[str]:
    """``ROADMAP <label>`` cites naming a label ROADMAP.md lacks."""
    labels = roadmap_labels()
    problems: list[str] = []
    for pattern in CITE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            text = path.read_text(encoding="utf-8")
            for match in CITE_RE.finditer(text):
                label = " ".join(match.group(1).split())
                if label not in labels:
                    line = text.count("\n", 0, match.start()) + 1
                    problems.append(
                        f"{path.relative_to(ROOT).as_posix()}:{line}: cites "
                        f"ROADMAP {label}, which ROADMAP.md does not define")
    return problems


def main() -> int:
    failures = 0
    checked = 0
    for path in doc_files():
        checked += 1
        for target in broken_links(path):
            failures += 1
            print(f"{path.relative_to(ROOT)}: broken link -> {target}")
    for problem in (dangling_md_mentions() + missing_repo_paths()
                    + narrative_headings() + stale_section_cites()
                    + stale_member_mentions() + rule_code_problems()
                    + figure_problems() + unquoted_e2e_files()
                    + reach_problems() + stale_roadmap_cites()):
        failures += 1
        print(problem)
    if failures:
        print(f"\n{failures} problem(s) across {checked} file(s)")
        return 1
    print(f"ok: {checked} file(s); links and anchors, repo paths, section "
          "cites, code names, rule catalogue, quoted bench figures, reach "
          "counts and ROADMAP cites in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
