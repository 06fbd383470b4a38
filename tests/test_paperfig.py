"""``benchmarks/paperfig.run_curve``: one spec path, override or not."""

import sys
from pathlib import Path

import pytest

from repro.backends import build_store
from repro.core.workload import ConstantSize
from repro.db.database import DbConfig
from repro.fs.filesystem import FsConfig
from repro.units import KB, MB

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import paperfig  # noqa: E402


@pytest.fixture
def curve_config(monkeypatch):
    """Run ``run_curve`` under the given argv; return the config it built."""
    def build(argv, backend, **kwargs):
        seen = []
        monkeypatch.setattr(sys, "argv", ["bench", *argv])
        monkeypatch.setattr(paperfig, "run_experiment", seen.append)
        paperfig.run_curve(backend, ConstantSize(256 * KB), volume=64 * MB,
                           **kwargs)
        return seen[0]
    return build


def test_shards_override_keeps_fs_config(curve_config):
    """Regression: ``--store``/``--shards`` popped and discarded
    ``fs_config``/``db_config``, so every curve of the write-size and
    deferred-free ablations ran the same configuration."""
    config = curve_config(["--shards", "2"], "filesystem",
                          fs_config=FsConfig(commit_interval_ops=1))
    store = build_store(config.store)
    assert [shard.fs.config.commit_interval_ops
            for shard in store.shards] == [1, 1]
    assert config.to_dict()["store"]["options"]["fs_config"][
        "commit_interval_ops"] == 1


def test_store_override_keeps_db_config_and_matches_backend(curve_config):
    db_config = DbConfig(ghost_cleanup_interval_ops=0)
    config = curve_config(["--store", ":reorder=clook"], "database",
                          db_config=db_config, fs_config=FsConfig())
    assert config.store.options_dict() == {"db_config": db_config}
    assert config.label == "database"
    # The sugar follows the backend the spec ends up naming.
    config = curve_config(["--store", "lfs"], "filesystem",
                          fs_config=FsConfig(), size_hints=True)
    assert config.store.options == ()


def test_no_override_builds_the_same_spec_options(curve_config):
    config = curve_config(["--index", "naive"], "filesystem",
                          size_hints=True, write_request=16 * KB)
    assert config.store.options_dict() == {"index_kind": "naive",
                                           "size_hints": True}
    assert config.store.write_request == 16 * KB
    assert config.label == ""
    # An option written in the --store text survives absent sugar.
    config = curve_config(["--store", "filesystem:index_kind=naive"],
                          "filesystem")
    assert config.store.option("index_kind") == "naive"
