"""``benchmarks/paperfig.py``: one spec path, one ``main()``, one record."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.compare import check_between
from repro.backends import build_store
from repro.core.workload import ConstantSize
from repro.db.database import DbConfig
from repro.fs.filesystem import FsConfig
from repro.units import GB, KB, MB

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH))
import paperfig  # noqa: E402

COMMITTED = json.loads((BENCH / "BENCH_paper.json").read_text())
#: The figures that recompute in under 2 s each.  (Of the store
#: scenarios ``continuous_operation`` would fit, but it charges pickled
#: bytes to the modelled clock, so only CI's two pinned legs compare it.)
FAST = ("table1", "ablation_policies", "ablation_zones",
        "extension_interleaved", "fig4", "sharded_aging", "shard_skew",
        "degraded_aging", "tail_latency")


def curve_config(argv, backend, **kwargs):
    """The experiment one curve becomes under the given flags."""
    return paperfig.curve_config(
        paperfig.parse_args(argv), backend, ConstantSize(256 * KB),
        volume=64 * MB, **kwargs)


def test_shards_override_keeps_fs_config():
    """Regression: a shard override popped and discarded
    ``fs_config``/``db_config``, so every curve of the write-size and
    deferred-free ablations ran the same configuration."""
    config = curve_config(["--store", ":shards=2"], "filesystem",
                          fs_config=FsConfig(commit_interval_ops=1))
    store = build_store(config.store)
    assert [shard.fs.config.commit_interval_ops
            for shard in store.shards] == [1, 1]
    assert config.to_dict()["store"]["options"]["fs_config"][
        "commit_interval_ops"] == 1


def test_store_override_keeps_db_config_and_matches_backend():
    db_config = DbConfig(ghost_cleanup_interval_ops=0)
    config = curve_config(["--store", ":reorder=clook"], "database",
                          db_config=db_config, fs_config=FsConfig())
    assert config.store.options_dict() == {"db_config": db_config}
    assert config.label == "database"
    # The sugar follows the backend the spec ends up naming.
    config = curve_config(["--store", "lfs"], "filesystem",
                          fs_config=FsConfig(), size_hints=True)
    assert config.store.options == ()


def test_no_override_builds_the_same_spec_options():
    config = curve_config([], "filesystem",
                          size_hints=True, write_request=16 * KB)
    assert config.store.options_dict() == {"size_hints": True}
    assert config.store.write_request == 16 * KB
    assert config.label == ""
    # An option written in the --store text survives absent sugar.
    config = curve_config(["--store", "filesystem:size_hints=true"],
                          "filesystem")
    assert config.store.option("size_hints") == "true"


def test_paper_scale_maps_volume_roles_not_values():
    """Regression: volumes were looked up by value, so 8 GB (no entry)
    stayed 8 GB while 2 GB became 400 GB — Figure 6c's pair ran upside
    down — and a literal 512 MB silently became 400 GB."""
    paper = {role: paperfig.volume_bytes(role, True)
             for role in paperfig.VOLUMES}
    assert paper["small"] == paper["small_stepped"] == 40 * GB
    assert {paper[role] for role in paper
            if not role.startswith("small")} == {400 * GB}
    for scale in (False, True):
        assert paperfig.volume_bytes("small_stepped", scale) \
            < paperfig.volume_bytes("large_stepped", scale)
    assert paperfig.volume_bytes(512 * MB, True) == 512 * MB
    assert curve_config(["--paper-scale"], "filesystem") \
        .store.volume_bytes == 64 * MB


@pytest.mark.parametrize("name", paperfig.FIGURES)
def test_every_figure_has_a_committed_passing_entry(name):
    entry = COMMITTED["figures"][name]
    assert entry["checks"]
    for key, check in entry["checks"].items():
        assert check["passed"], key
        assert isinstance(check["value"], (int, float)), key
        assert check["bound"] is not None, key
    assert entry["sha256"] == paperfig.modelled_sha256(entry["modelled"])


def test_the_committed_record_is_a_full_run_without_overrides():
    assert COMMITTED["schema"] == paperfig.SCHEMA
    assert list(COMMITTED["figures"]) == list(paperfig.FIGURES)
    assert COMMITTED["config"] == {"only": None, "paper_scale": False,
                                   "store": None}


def test_figure_modules_hold_no_driver_of_their_own():
    """``paperfig.py`` serves every modelled bench; the allocator ladder
    measures the host and keeps its own ``main()``."""
    import bench_store_scenarios
    modules = {path.name: path.read_text()
               for path in BENCH.glob("bench_*.py")}
    del modules["bench_alloc_micro.py"]
    # A paper figure is a module of its own; the store scenarios share one.
    assert len(modules) == len(paperfig.FIGURES) \
        - len(bench_store_scenarios.FIGURES) + 1
    for name, text in modules.items():
        for driver in ("__main__", "sys.argv", "def test_", "argparse"):
            assert driver not in text, (name, driver)


@pytest.mark.parametrize("name", FAST)
def test_fast_figures_recompute_to_the_committed_hash(name, capsys):
    entry = paperfig.run_figure(name, paperfig.parse_args([]))
    assert entry["sha256"] == COMMITTED["figures"][name]["sha256"]
    assert json.loads(json.dumps(entry["checks"])) \
        == COMMITTED["figures"][name]["checks"]


def test_modelled_part_is_independent_of_the_hash_seed(tmp_path):
    """A metamorphic check in miniature: no modelled number of a paper
    figure may depend on ``PYTHONHASHSEED``."""
    outs = [tmp_path / f"seed{seed}.json" for seed in (1, 2)]
    procs = [subprocess.Popen(
        [sys.executable, str(BENCH / "paperfig.py"), "--only",
         "fig4,ablation_size_hint,shard_skew,degraded_aging",
         "--out", str(out)],
        env={**os.environ, "PYTHONHASHSEED": out.stem[-1],
             "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.DEVNULL) for out in outs]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    first, second = (
        {name: (entry["modelled"], entry["checks"]) for name, entry
         in json.loads(out.read_text())["figures"].items()}
        for out in outs)
    assert first == second
    for name in ("fig4", "degraded_aging"):
        assert first[name][0] == COMMITTED["figures"][name]["modelled"]


def test_a_failed_check_fails_main_unless_the_store_is_overridden(
        monkeypatch, capsys):
    monkeypatch.setitem(paperfig.FIGURES, "off_by_one", paperfig.Figure(
        compute=lambda run: {"cell": 1.0},
        render=lambda results: "a table",
        checks=lambda results: {"cell_is_two": check_between(
            "the cell is two", results["cell"], 2, 2)},
    ))
    assert paperfig.main(["--only", "off_by_one"]) == 1
    assert "off_by_one.cell_is_two" in capsys.readouterr().out
    assert paperfig.main(["--only", "off_by_one",
                          "--store", ":shards=2"]) == 0
    assert "reported, not enforced" in capsys.readouterr().out
    # A shard override is spelt in the spec, like every store knob.
    with pytest.raises(SystemExit) as exit_info:
        paperfig.main(["--only", "off_by_one", "--shards", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        paperfig.main(["--only", "fig7"])
    assert exit_info.value.code == 2
    assert "no figure named fig7" in capsys.readouterr().err
    # A store scenario runs at one size: there is no smoke-run flag.
    with pytest.raises(SystemExit) as exit_info:
        paperfig.main(["--only", "tail_latency", "--quick"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err
    # One free-space engine: there is no engine flag either.
    with pytest.raises(SystemExit) as exit_info:
        paperfig.main(["--only", "fig3", "--index", "naive"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --index" in capsys.readouterr().err
