#!/usr/bin/env python
"""Fail on broken links, stale lint-rule references and drifted figures.

Scans ``README.md``, ``docs/*.md``, ``benchmarks/README.md``,
``ROADMAP.md``, and ``CHANGES.md`` for inline markdown links/images
whose target is a relative path, resolves each against the linking
file's directory, and exits non-zero listing every target that does
not exist.  External links (``http(s):``, ``mailto:``) and pure
in-page anchors (``#...``) are ignored; a ``path#anchor`` target is
checked for the path only.  A ``NAME.md`` written anywhere in
``src/**/*.py`` or ``benchmarks/*.py`` must exist too, as a path from
the repo root.

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
name it.

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
  included);
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
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if ROOT not in resolved.parents and resolved != ROOT:
            bad.append(f"{target} (escapes the repo)")
        elif not resolved.exists():
            bad.append(target)
    return bad


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
TOKEN = r"`([A-Za-z0-9_@.]+)`"
ALLOC_KEY_RE = re.compile(r"`([a-z0-9_]+@[0-9]+)`")
QUOTED_VALUE_RE = re.compile(TOKEN + r"[\s:=(|]*([0-9]+(?:\.[0-9]+)?)")
E2E_FILE_RE = re.compile(r"BENCH_e2e_pr([0-9]+(?:_base)?)\.json")
E2E_QUOTE_RE = re.compile(r"`([a-z0-9_]+)` ([0-9.]+) → ([0-9.]+) "
                          r"`sim_ops_per_host_s`")


SPAN_RE = re.compile(r"`([^`\n]+)`")
REPO_PATH_RE = re.compile(
    r"(?<![\w/.-])((?:src|repro|benchmarks|tests|tools|examples)/[\w./*-]*)")


def missing_repo_paths() -> list[str]:
    """Backticked repo paths in the current docs that name nothing."""
    problems: list[str] = []
    for pattern in FIGURE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
            for span in SPAN_RE.findall(text):
                for mention in REPO_PATH_RE.findall(span):
                    base = ROOT / "src" if mention.startswith("repro/") \
                        else ROOT
                    if not any(base.glob(mention.rstrip("./"))):
                        problems.append(
                            f"{path.relative_to(ROOT).as_posix()}: "
                            f"`{mention}` names no file in the repo")
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


def figure_problems() -> list[str]:
    """Quoted ``op@scale`` keys, paper checks and values that drifted."""
    speedups = committed_alloc_speedups()
    paper_figures, paper = committed_paper_checks()
    problems: list[str] = []
    for pattern in FIGURE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
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
                    + rule_code_problems() + figure_problems()
                    + reach_problems() + stale_roadmap_cites()):
        failures += 1
        print(problem)
    if failures:
        print(f"\n{failures} problem(s) across {checked} file(s)")
        return 1
    print(f"ok: {checked} file(s); links, repo paths, rule catalogue, "
          "quoted bench figures, reach counts and ROADMAP cites in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
