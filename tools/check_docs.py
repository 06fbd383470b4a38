#!/usr/bin/env python
"""Fail on broken links, stale lint-rule references and drifted figures.

Scans ``README.md``, ``docs/*.md``, ``benchmarks/README.md``,
``ROADMAP.md``, and ``CHANGES.md`` for inline markdown links/images
whose target is a relative path, resolves each against the linking
file's directory, and exits non-zero listing every target that does
not exist.  External links (``http(s):``, ``mailto:``) and pure
in-page anchors (``#...``) are ignored; a ``path#anchor`` target is
checked for the path only.

Also cross-checks the reprolint rule catalogue: every ``RPL###`` code
mentioned in the docs must exist in the rule registry, and every
registered rule must appear in the ``docs/architecture.md`` catalogue
— so the "Enforced invariants" section cannot rot.

And holds what ``README.md``, ``docs/*.md`` and ``benchmarks/README.md``
quote from the committed ``benchmarks/BENCH_scale_volume.json`` and
``BENCH_alloc.json`` to those files:

* a scenario named after ``--scenarios``, as `` `name` rows`` /
  `` `name` scenario``, or in the first column of a table headed
  ``scenario`` must be one the committed run recorded;
* a key written `` `speedups.key` ``, shaped ``op@scale``, or in the
  first column of a table headed `` `speedups` key`` must be in a
  committed ``speedups`` map;
* a number written right after a backticked ``speedups`` key
  (`` `key` 5.21× ``, `` | `key` | 5.21 | ``) must equal the committed
  value;
* in a table row naming ``BENCH_e2e_prNN.json``, a figure written
  `` `workload` A → B `sim_ops_per_host_s` `` must equal, to the
  printed precision, the committed medians of ``pr(NN-1)`` and
  ``prNN`` — or of the two files the row names, in that order;
* a backticked `` `figure.check-key` `` (``fig1.db_aging_512K``) must
  name a shape check of the committed ``benchmarks/BENCH_paper.json``,
  and a number written right after it must equal that check's measured
  value to the printed precision.

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
        for code in sorted(mentioned - known):
            problems.append(f"{rel}: references unknown rule {code}")
    for code in sorted(known - catalogued):
        problems.append(
            f"{CATALOGUE_DOC}: registered rule {code} missing from the "
            "catalogue")
    return problems


#: Docs whose bench quotes are held to the committed JSON (ROADMAP and
#: CHANGES are history and may name retired scenarios).
FIGURE_GLOBS = ("README.md", "docs/*.md", "benchmarks/*.md")
TOKEN = r"`(?:speedups\.)?([A-Za-z0-9_@.]+)`"
SCENARIOS_FLAG_RE = re.compile(r"--scenarios[ =]([a-z0-9_,]+)")
SCENARIO_MENTION_RE = re.compile(r"`([a-z0-9_]+)` (?:rows|scenario)\b")
SPEEDUPS_KEY_RE = re.compile(r"`speedups\.([A-Za-z0-9_@.]+)`"
                             r"|`([a-z0-9_]+@[0-9]+)`")
QUOTED_VALUE_RE = re.compile(TOKEN + r"[\s:=(|]*([0-9]+(?:\.[0-9]+)?)")
TABLE_ROW_RE = re.compile(r"\| *(.+?) *\|")
E2E_FILE_RE = re.compile(r"BENCH_e2e_pr([0-9]+)\.json")
E2E_QUOTE_RE = re.compile(r"`([a-z0-9_]+)` ([0-9.]+) → ([0-9.]+) "
                          r"`sim_ops_per_host_s`")


def committed_figures() -> tuple[set[str], dict[str, float]]:
    """Scenario names and ``speedups`` values of the committed baselines."""
    bench = ROOT / "benchmarks"
    scale = json.loads((bench / "BENCH_scale_volume.json").read_text())
    alloc = json.loads((bench / "BENCH_alloc.json").read_text())
    speedups = {**alloc["speedups_naive_over_tiered"], **scale["speedups"]}
    return set(scale["config"]["scenarios"]), speedups


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


def table_first_cells(text: str, header: str) -> list[str]:
    """Backticked first-column tokens of every table headed ``header``."""
    cells: list[str] = []
    inside = False
    for line in text.splitlines():
        match = TABLE_ROW_RE.match(line)
        if not match:
            inside = False
        elif match.group(1) == header:
            inside = True
        elif inside and (token := re.fullmatch(TOKEN, match.group(1))):
            cells.append(token.group(1))
    return cells


def e2e_median(pr: int, workload: str) -> float | None:
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
        prs = [int(n) for n in E2E_FILE_RE.findall(line)]
        if not line.startswith("|") or not prs:
            continue
        pair = (prs[0] - 1, prs[0]) if len(prs) == 1 else prs[:2]
        for workload, *quoted in E2E_QUOTE_RE.findall(line):
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
    """Quoted scenarios, ``speedups`` keys, paper checks and values
    that drifted."""
    scenarios, speedups = committed_figures()
    paper_figures, paper = committed_paper_checks()
    problems: list[str] = []
    for pattern in FIGURE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            rel = path.relative_to(ROOT).as_posix()
            text = path.read_text(encoding="utf-8")
            named = [name for listed in SCENARIOS_FLAG_RE.findall(text)
                     for name in listed.split(",")]
            named += SCENARIO_MENTION_RE.findall(text)
            named += table_first_cells(text, "scenario")
            for name in sorted(set(named) - scenarios):
                problems.append(
                    f"{rel}: `{name}` is not a committed bench scenario")
            keys = [a or b for a, b in SPEEDUPS_KEY_RE.findall(text)]
            keys += table_first_cells(text, "`speedups` key")
            for key in sorted(set(keys) - speedups.keys()):
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


def main() -> int:
    failures = 0
    checked = 0
    for path in doc_files():
        checked += 1
        for target in broken_links(path):
            failures += 1
            print(f"{path.relative_to(ROOT)}: broken link -> {target}")
    for problem in rule_code_problems() + figure_problems():
        failures += 1
        print(problem)
    if failures:
        print(f"\n{failures} problem(s) across {checked} file(s)")
        return 1
    print(f"ok: {checked} file(s); links, rule catalogue and quoted "
          "bench figures in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
