"""``tools/check_docs.py``: quoted bench figures are held to the JSON."""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import check_docs  # noqa: E402


@pytest.fixture
def docs_root(tmp_path, monkeypatch):
    """A throw-away repo root with tiny committed baselines."""
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "BENCH_alloc.json").write_text(json.dumps({
        "speedups_naive_over_tiered": {"mixed_policy@100000": 320.0},
    }))
    for pr, medians in ((13, {"db_large_churn": 250.129,
                              "fs_small_churn": 5971.88}),
                        (14, {"db_large_churn": 726.819}),
                        (16, {"db_large_churn": 13288.4}),
                        ("16_base", {"db_large_churn": 12001.7})):
        (bench / f"BENCH_e2e_pr{pr}.json").write_text(json.dumps({
            "workloads": {
                name: {"end_to_end": {"sim_ops_per_host_s": {"value": v}}}
                for name, v in medians.items()},
        }))
    (bench / "BENCH_paper.json").write_text(json.dumps({
        "figures": {"fig1": {"checks": {
                        "db_aging_512K": {"value": 1.8749}}},
                    "tail_latency": {"checks": {
                        "aged_p99_inflation": {"value": 1.19}}},
                    "scenario_matrix": {"checks": {
                        "divergent_winners": {"value": 1}}}},
    }))
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)

    def problems(readme: str) -> list[str]:
        (tmp_path / "README.md").write_text(readme)
        return check_docs.figure_problems()
    return problems


def test_the_repos_own_docs_are_in_sync():
    assert check_docs.figure_problems() == []


def test_matching_quotes_pass(docs_root):
    assert docs_root(
        "Run `--only shard_skew,tail_latency`; the `tail_latency` rows\n"
        "show `tail_latency.aged_p99_inflation` 1.19× and\n"
        "`scenario_matrix.divergent_winners` = 1;\n"
        "`mixed_policy@100000`\n  320× through the policy path.\n\n"
        "Aging costs the database `fig1.db_aging_512K` 1.87× of its reads\n"
        "| Figure 1 | `fig1.db_aging_512K` 1.9× | roughly halves |\n\n"
        "| check | committed |\n| --- | --- |\n"
        "| `tail_latency.aged_p99_inflation` | 1.19 |\n\n"
        "| file | what moved |\n| --- | --- |\n"
        "| `BENCH_e2e_pr14.json` | `db_large_churn` 250 → 727"
        " `sim_ops_per_host_s`, `setup_s` 1.02 → 0.50 |\n"
        "| `BENCH_e2e_pr14.json` | `db_large_churn` 250.1 → 726.82"
        " `sim_ops_per_host_s` |\n"
        "| `BENCH_e2e_pr14.json` → `BENCH_e2e_pr16.json` |"
        " `db_large_churn` 727 → 13288 `sim_ops_per_host_s` |\n"
        "| `BENCH_e2e_pr16_base.json` → `BENCH_e2e_pr16.json` |"
        " `db_large_churn` 12002 → 13288 `sim_ops_per_host_s` |\n"
        "| `BENCH_e2e_pr16_base.json` | the parent, no claim |\n"
        "Prose is not held: `BENCH_e2e_pr14.json` moved `db_large_churn`"
        " 1 → 2 `sim_ops_per_host_s`.\n") == []


@pytest.mark.parametrize("text, complaint", [
    ("`mixed_policy@100000` 321×", "quoted as 321, committed value is 320.0"),
    ("| check | committed |\n| --- | --- |\n"
     "| `scenario_matrix.divergent_winners` | 2 |",
     "`scenario_matrix.divergent_winners` quoted as 2"),
    ("`tail_latency.aged_p99_inflation` 1.18×",
     "quoted as 1.18, BENCH_paper.json has 1.19"),
    ("the `tail_latency.speedup` check", "`tail_latency.speedup` is not"),
    ("`segment_store_read@100000` 3.06×", "is not a committed speedups key"),
    ("| `BENCH_e2e_pr14.json` | `db_large_churn` 250 → 728"
     " `sim_ops_per_host_s` |",
     "quoted as 728, BENCH_e2e_pr14.json has 727"),
    ("| `BENCH_e2e_pr14.json` | `db_large_churn` 250.2 → 726.8"
     " `sim_ops_per_host_s` |",
     "quoted as 250.2, BENCH_e2e_pr13.json has 250.1"),
    ("| `BENCH_e2e_pr16.json` | `db_large_churn` 727 → 13288"
     " `sim_ops_per_host_s` |",
     "`db_large_churn` 727: no committed median in BENCH_e2e_pr15.json"),
    ("| `BENCH_e2e_pr14.json` | `fs_small_churn` 5972 → 5943"
     " `sim_ops_per_host_s` |",
     "`fs_small_churn` 5943: no committed median in BENCH_e2e_pr14.json"),
    ("| `BENCH_e2e_pr16_base.json` → `BENCH_e2e_pr16.json` |"
     " `db_large_churn` 12001 → 13288 `sim_ops_per_host_s` |",
     "quoted as 12001, BENCH_e2e_pr16_base.json has 12002"),
    ("| Figure 1 | `fig1.db_aging_512K` 1.88× | roughly halves |",
     "`fig1.db_aging_512K` quoted as 1.88, BENCH_paper.json has 1.87"),
    ("the `fig1.db_halves` check", "`fig1.db_halves` is not a committed"),
])
def test_drift_is_reported(docs_root, text, complaint):
    problems = docs_root(text)
    assert len(problems) == 1 and complaint in problems[0], problems


def test_a_readme_number_edited_away_from_the_record_is_caught(
        tmp_path, monkeypatch):
    """The repo's own README against the repo's own baselines, with one
    quoted paper figure nudged."""
    (tmp_path / "benchmarks").mkdir()
    for baseline in (check_docs.ROOT / "benchmarks").glob("BENCH_*.json"):
        shutil.copy(baseline, tmp_path / "benchmarks")
    readme = (check_docs.ROOT / "README.md").read_text()
    quote = re.search(r"`(fig2\.db_over_fs)` ([0-9.]+)", readme)
    nudged = f"{float(quote.group(2)) + 1:.2f}"
    (tmp_path / "README.md").write_text(readme.replace(
        quote.group(0), f"`{quote.group(1)}` {nudged}"))
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    problems = check_docs.figure_problems()
    assert len(problems) == 1 and f"quoted as {nudged}" in problems[0]


def test_only_history_may_name_a_retired_rule(tmp_path, monkeypatch):
    """A retired lint code in the changelog is history; anywhere else
    in the docs it is a stale reference."""
    catalogue = " ".join(sorted(check_docs.registered_rule_codes()))
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text(catalogue + "\n")
    (tmp_path / "CHANGES.md").write_text("RPL301 and RPL303 retired\n")
    (tmp_path / "README.md").write_text("RPL303 guards the resets\n")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.rule_code_problems() == [
        "README.md: references unknown rule RPL303"]


def test_a_source_file_citing_a_missing_md_is_caught(tmp_path, monkeypatch):
    """Regression: eleven docstrings cited DESIGN.md / EXPERIMENTS.md
    long after both files had left the repository."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "benchmarks.md").write_text("# here\n")
    (tmp_path / "README.md").write_text("# here too\n")
    for path, body in (
            ("src/repro/alloc/policy.py",
             '"""See DESIGN.md §3, docs/benchmarks.md and README.md."""\n'),
            ("benchmarks/bench_fig9.py", "# as EXPERIMENTS.md records\n"),
            ("benchmarks/e2e/child.py", "# NOWHERE.md is not ours to lint\n")):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(body)
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.dangling_md_mentions() == [
        "src/repro/alloc/policy.py: mentions DESIGN.md, which is not a "
        "file in the repo",
        "benchmarks/bench_fig9.py: mentions EXPERIMENTS.md, which is not a "
        "file in the repo",
    ]
    monkeypatch.undo()
    assert check_docs.dangling_md_mentions() == []


def test_a_backticked_path_that_names_nothing_is_caught(tmp_path,
                                                        monkeypatch):
    """A deleted module named in the current docs keeps sending readers
    to it; the history files may name it."""
    for path in ("src/repro/core/workload.py", "tests/test_a.py"):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "`src/repro/core/workload.py`, `repro/core/workload.py`,\n"
        "`src/repro/core/`, `tests/test_a.py::test_x`, `tests/test_*.py`,\n"
        "`src/repro/**/*.py`, `PYTHONPATH=src python tests/test_a.py`.\n"
        "```\nsrc/repro/core/gone.py\n```\n")
    (tmp_path / "docs" / "architecture.md").write_text(
        "`src/repro/core/repository.py`, `python examples/quickstart.py`\n")
    (tmp_path / "CHANGES.md").write_text(
        "`src/repro/core/repository.py` is deleted\n")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.missing_repo_paths() == [
        "docs/architecture.md: `src/repro/core/repository.py` names no "
        "file in the repo",
        "docs/architecture.md: `examples/quickstart.py` names no file in "
        "the repo",
    ]
    monkeypatch.undo()
    assert check_docs.missing_repo_paths() == []


def test_the_reach_counts_in_the_docs_are_in_sync():
    assert check_docs.reach_problems() == []


def test_a_drifted_reach_count_is_caught(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    # A class body is not a function, and neither is a ``...`` body.
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return 2\n\n\n"
        "def checked():\n    return 3\n\n\n"
        "def declared():\n    ...\n\n\n"
        "class Holder:\n    size = 1\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "reach.json").write_text(json.dumps(
        {"repro.mod.unused": "readout: tests call it",
         "repro.mod.checked": "tier1: the crash tests call it"}))
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "architecture.md"
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    doc.write_text("`reach.functions` 3 named, `reach.entered` 1 entered;\n"
                   "| `reach.readout` | 1 |\n| `reach.tier1` 1 |\n")
    assert check_docs.reach_problems() == []
    doc.write_text("`reach.functions` 4 named, `reach.listed` 2 listed\n"
                   "| `reach.tier1` 2 |\n")
    assert check_docs.reach_problems() == [
        "docs/architecture.md: `reach.functions` quoted as 4, "
        "tools/reach.json gives 3",
        "docs/architecture.md: `reach.tier1` quoted as 2, "
        "tools/reach.json gives 1"]


def test_the_repos_roadmap_cites_name_current_labels():
    assert check_docs.stale_roadmap_cites() == []


def test_a_cite_of_a_label_the_roadmap_lacks_is_caught(tmp_path, monkeypatch):
    (tmp_path / "ROADMAP.md").write_text(
        "## Open items\n\n"
        "1. **Keystone.**\n   - (a) *Golden file.*\n"
        "   - **1c: modelled time.**\n\n"
        "8. **Checkpoints.**\n   - (b) *Explicit encoding.*\n\n"
        "### Carried\n\nG. **Perf notes.**\n")
    # The word and its label are split here, so this file cites nothing.
    cite = "ROADMAP"
    (tmp_path / "README.md").write_text(
        f"Current: {cite} 1(a), {cite} 1c, {cite} item 8, {cite}\n"
        f"Carried G and {cite} direction 8(b); {cite}.md is a file.\n"
        f"Stale: {cite} item 3, {cite} 1B(d) and {cite} 8(c).\n")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.stale_roadmap_cites() == [
        f"README.md:3: cites ROADMAP {label}, which ROADMAP.md does not "
        "define" for label in ("3", "1B(d)", "8(c)")]


def test_the_repos_docs_tell_no_pr_story_and_cite_what_exists():
    assert check_docs.narrative_headings() == []
    assert check_docs.stale_section_cites() == []
    assert check_docs.stale_member_mentions() == []
    assert check_docs.unquoted_e2e_files() == []
    assert [bad for path in check_docs.doc_files()
            for bad in check_docs.broken_links(path)] == []


def test_a_pr_narrative_heading_in_the_current_docs_is_caught(tmp_path,
                                                              monkeypatch):
    """A PR's story belongs in CHANGES.md, which may head it so."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "# Baselines\n\n### PR 1 → PR 2\n\nWhat moved.\n\n"
        "## PRs that claim a gain\n")
    (tmp_path / "README.md").write_text(
        "# Readme\n\n```sh\n# PR 3 ran this\n```\n")
    (tmp_path / "CHANGES.md").write_text("### PR 1 → PR 2\n")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.narrative_headings() == [
        "docs/benchmarks.md: heading \"PR 1 → PR 2\" tells a PR's story; "
        "that lives in CHANGES.md"]


def test_an_anchor_must_name_a_heading_of_its_target(tmp_path, monkeypatch):
    """GitHub's slugs: lower case, punctuation but ``-``/``_`` dropped,
    spaces to ``-``, a repeat suffixed ``-1``; code fences hold no
    headings."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n\n## Persistence & recovery\n\n"
        "## Declarative stores: `--store`\n\n## Notes\n\n## Notes\n\n"
        "```sh\n# Fenced comment\n```\n")
    readme = tmp_path / "README.md"
    readme.write_text(
        "[a](docs/guide.md#persistence--recovery) "
        "[b](docs/guide.md#declarative-stores---store) "
        "[c](docs/guide.md#notes-1) [d](#readme) [e](docs/guide.md)\n\n"
        "# Readme\n\n"
        "[f](docs/guide.md#notes-2) [g](docs/guide.md#fenced-comment) "
        "[h](#whole-run-benchmark)\n")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.broken_links(readme) == [
        "docs/guide.md#notes-2 (no such heading)",
        "docs/guide.md#fenced-comment (no such heading)",
        "#whole-run-benchmark (no such heading)"]


def test_a_section_cite_must_name_a_heading_of_its_doc(tmp_path, monkeypatch):
    """Regression: a docstring sent readers to docs/architecture.md,
    "add a backend in one file", a heading that doc never had."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text(
        "# Architecture\n\n### Adding a backend in one file\n\n"
        "## Enforced invariants\n")
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "## Contract, scaling and calibration\n")
    for path, body in (
            ("src/repro/registry.py",
             '"""One file (see docs/architecture.md, "adding a backend\n'
             'in one file"); not docs/architecture.md, "add\n'
             'a backend in one file")."""\n'),
            ("benchmarks/paperfig.py",
             '"""Scaled (docs/benchmarks.md, "Contract,\n'
             '    scaling and calibration"); docs/benchmarks.md\n'
             '("Contract, scaling and calibrations")."""\n'),
            ("tools/lint/__init__.py",
             '"""Catalogue in ``docs/architecture.md`` § "Enforced\n'
             'invariants"; docs/missing.md, "Anything" is not ours."""\n'
             'HINT = "see docs/architecture.md", "elsewhere"\n')):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(body)
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.stale_section_cites() == [
        "src/repro/registry.py:2: cites \"add a backend in one file\", "
        "which is no heading of docs/architecture.md",
        "benchmarks/paperfig.py:2: cites \"Contract, scaling and "
        "calibrations\", which is no heading of docs/benchmarks.md"]


def test_a_stale_class_member_in_the_current_docs_is_caught(tmp_path,
                                                            monkeypatch):
    """Regression: the docs named ``LobTree.append_runs`` long after the
    method had become ``append_run``."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "lob.py").write_text(
        "import dataclasses\n\n\n"
        "class Tree:\n    def destroy(self):\n        self.pages = []\n\n\n"
        "class LobTree(Tree):\n    FANOUT = 64\n"
        "    __slots__ = ('root',)\n    depth: int\n\n"
        "    def append_run(self, run):\n        self.tail = run\n\n\n"
        "@dataclasses.dataclass\nclass Cursor(dict):\n    leaf: int = 0\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text(
        "`LobTree.append_run`, `repro.db.LobTree.destroy`, `LobTree.FANOUT`"
        ",\n`LobTree.root`, `LobTree.depth`, `LobTree.tail(x)`, "
        "`LobTree.pages`, `LobTree.__init__`,\n`Cursor.leaf`, "
        "`Cursor.keys`, `BlockDevice.gone`, `lob.Tree`.\n")
    (tmp_path / "README.md").write_text(
        "One step, `LobTree.append_runs(\nk)`, per run.\n")
    (tmp_path / "CHANGES.md").write_text("`LobTree.append_runs` went\n")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.stale_member_mentions() == [
        "README.md: `LobTree.append_runs` names nothing LobTree defines",
        "docs/architecture.md: `Cursor.keys` names nothing Cursor defines"]


def test_a_committed_e2e_file_without_a_quoting_row_is_caught(docs_root):
    """Every committed file keeps a gated row; prose does not count."""
    docs_root(
        "| `BENCH_e2e_pr13.json` → `BENCH_e2e_pr14.json` |"
        " `db_large_churn` 250 → 727 `sim_ops_per_host_s` |\n"
        "| `BENCH_e2e_pr16_base.json` | the parent, no claim |\n"
        "`BENCH_e2e_pr16.json` moved `db_large_churn` 1 → 2"
        " `sim_ops_per_host_s`.\n")
    assert check_docs.unquoted_e2e_files() == [
        f"benchmarks/BENCH_e2e_pr{pr}.json: no table row quotes its "
        "`sim_ops_per_host_s`" for pr in ("16", "16_base")]
