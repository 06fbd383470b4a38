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
                        (16, {"db_large_churn": 13288.4})):
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
        "Run `--only fs_churn,tail_latency`; the `tail_latency` rows\n"
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
