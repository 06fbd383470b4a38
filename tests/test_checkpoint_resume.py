"""Checkpoint/resume of aging runs: killed and resumed == uninterrupted.

The acceptance bar: an aging run checkpointed mid-way, killed, and
resumed produces a run record *identical* to the same run uninterrupted
— every sample (fragmentation metrics, read/write throughput over
modelled IoStats, occupancy, seek counts), on a filesystem over the
production free-space engine and over the flat-list oracle, and on a
3-shard composite.  Plus the failure half: checkpoints
from a different configuration are refused, torn checkpoints fall back
to the previous valid one, and a fully torn directory falls back to a
fresh (still identical) run.
"""

from pathlib import Path

import pytest

from freeindexoracle import NaiveFreeExtentIndex
from repro.backends.spec import StoreSpec
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentRunner,
    run_experiment,
)
from repro.core.workload import ConstantSize
from repro.errors import ConfigError
from repro.fs import filesystem
from repro.persist import CheckpointManager
from repro.units import KB, MB

AGES = (0.0, 1.0, 2.0)


def config_for(store_kind: str, seed: int = 11) -> ExperimentConfig:
    specs = {
        "tiered": StoreSpec("filesystem", volume_bytes=64 * MB),
        # The same store; the test substitutes the oracle engine.
        "naive": StoreSpec("filesystem", volume_bytes=64 * MB),
        "sharded": StoreSpec("filesystem", volume_bytes=96 * MB, shards=3),
    }
    return ExperimentConfig(
        store=specs[store_kind],
        sizes=ConstantSize(256 * KB),
        occupancy=0.4,
        ages=AGES,
        reads_per_sample=8,
        seed=seed,
    )


class _Killed(Exception):
    """Stands in for SIGKILL right after a checkpoint lands."""


def run_interrupted(config: ExperimentConfig, directory,
                    kill_after_age: float) -> None:
    """Run with checkpoints; die immediately after one is written."""
    def killer(phase: str, value: float) -> None:
        if phase == "checkpoint" and value == kill_after_age:
            raise _Killed

    runner = ExperimentRunner(config, progress=killer,
                              checkpoint_dir=directory)
    with pytest.raises(_Killed):
        runner.run()


class TestResumeIdentity:
    @pytest.mark.parametrize("store_kind", ["tiered", "naive", "sharded"])
    @pytest.mark.parametrize("kill_after_age", [0.0, 1.0])
    def test_killed_and_resumed_equals_uninterrupted(
            self, tmp_path, monkeypatch, store_kind, kill_after_age):
        if store_kind == "naive":
            monkeypatch.setattr(filesystem, "FreeExtentIndex",
                                NaiveFreeExtentIndex)
        config = config_for(store_kind)
        baseline = ExperimentRunner(config).run()
        run_interrupted(config, tmp_path, kill_after_age)
        resumed = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                   resume=True).run()
        # Full record equality: config echo, bulk-load stats, and every
        # sample's fragmentation/throughput/occupancy/seek numbers.
        assert resumed.to_dict() == baseline.to_dict()

    def test_completed_run_resumes_to_identical_record(self, tmp_path):
        """Resuming a finished run re-runs nothing and matches."""
        config = config_for("tiered")
        first = run_experiment(config, checkpoint_dir=tmp_path)
        again = run_experiment(config, checkpoint_dir=tmp_path, resume=True)
        assert again.to_dict() == first.to_dict()

    def test_resume_without_checkpoint_runs_fresh(self, tmp_path):
        config = config_for("tiered")
        baseline = ExperimentRunner(config).run()
        fresh = run_experiment(config, checkpoint_dir=tmp_path / "empty",
                               resume=True)
        assert fresh.to_dict() == baseline.to_dict()


class TestCheckpointContents:
    def test_per_shard_snapshot_files(self, tmp_path):
        config = config_for("sharded")
        run_interrupted(config, tmp_path, kill_after_age=0.0)
        ckpt = CheckpointManager(tmp_path).load_latest()
        assert ckpt is not None
        names = set(ckpt.names())
        assert "state.pkl" in names
        for i in range(3):
            assert f"free_index-shard{i}.bin" in names
            assert f"journal-shard{i}.bin" in names
        assert ckpt.meta["done_ages"] == [0.0]

    def test_single_volume_snapshot_files(self, tmp_path):
        config = config_for("tiered")
        run_interrupted(config, tmp_path, kill_after_age=0.0)
        ckpt = CheckpointManager(tmp_path).load_latest()
        assert {"state.pkl", "free_index-vol0.bin",
                "journal-vol0.bin"} <= set(ckpt.names())


class TestResumeFailureModes:
    def test_config_mismatch_is_refused(self, tmp_path):
        run_interrupted(config_for("tiered"), tmp_path, kill_after_age=0.0)
        other = config_for("tiered", seed=99)
        with pytest.raises(ConfigError):
            run_experiment(other, checkpoint_dir=tmp_path, resume=True)

    def test_torn_latest_falls_back_to_previous(self, tmp_path):
        """Corrupting the newest checkpoint resumes from the older one
        — and still reproduces the uninterrupted record exactly."""
        config = config_for("tiered")
        baseline = ExperimentRunner(config).run()
        run_interrupted(config, tmp_path, kill_after_age=1.0)
        manager = CheckpointManager(tmp_path)
        published = manager._published()
        assert len(published) == 2  # ages 0.0 and 1.0
        newest = published[-1][1]
        blob = (newest / "free_index-vol0.bin").read_bytes()
        (newest / "free_index-vol0.bin").write_bytes(blob[: len(blob) // 2])
        resumed = run_experiment(config, checkpoint_dir=tmp_path,
                                 resume=True)
        assert resumed.to_dict() == baseline.to_dict()

    def test_everything_torn_falls_back_to_fresh(self, tmp_path):
        config = config_for("tiered")
        baseline = ExperimentRunner(config).run()
        run_interrupted(config, tmp_path, kill_after_age=0.0)
        for _, path in CheckpointManager(tmp_path)._published():
            (path / "state.pkl").write_bytes(b"scribble")
        resumed = run_experiment(config, checkpoint_dir=tmp_path,
                                 resume=True)
        assert resumed.to_dict() == baseline.to_dict()

    def test_pickle_and_snapshot_divergence_is_refused(self, tmp_path):
        """A checkpoint whose digests verify but whose snapshot
        disagrees with the pickled state is real corruption, not a torn
        write — resume must refuse it loudly rather than mount it."""
        config = config_for("tiered")
        run_interrupted(config, tmp_path, kill_after_age=0.0)
        manager = CheckpointManager(tmp_path)
        ckpt = manager.load_latest()
        # Swap in a *valid* snapshot of a different (empty) free map,
        # rewriting the manifest so digests still verify.
        from repro.alloc.freelist import FreeExtentIndex
        from repro.persist import encode_free_index
        import hashlib as _hashlib
        import json as _json
        alien = encode_free_index(
            FreeExtentIndex(64 * MB, initially_free=False))
        (ckpt.path / "free_index-vol0.bin").write_bytes(alien)
        manifest = _json.loads((ckpt.path / "MANIFEST.json").read_text())
        manifest["files"]["free_index-vol0.bin"] = {
            "sha256": _hashlib.sha256(alien).hexdigest(),
            "bytes": len(alien),
            "encoding": "full",
        }
        (ckpt.path / "MANIFEST.json").write_text(_json.dumps(manifest))
        from repro.errors import SnapshotError
        with pytest.raises(SnapshotError):
            run_experiment(config, checkpoint_dir=tmp_path, resume=True)


class TestSourceFingerprint:
    def test_a_field_added_anywhere_changes_the_schema(self, tmp_path):
        """The checkpoint tag fingerprints every module of the package,
        so a pickled field that no hand-kept list names still refuses
        older checkpoints.  A verbatim copy elsewhere keeps the tag:
        paths enter it relative to the package."""
        import shutil

        import repro
        from repro.core.experiment import checkpoint_schema

        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert checkpoint_schema(copy) == checkpoint_schema()
        module = copy / "fs" / "filesystem.py"
        anchor = "        self.device = device\n"
        source = module.read_text()
        assert source.count(anchor) == 1
        module.write_text(source.replace(
            anchor, anchor + "        self.extra = 0\n"))
        checkpoint_schema.cache_clear()
        assert checkpoint_schema(copy) != checkpoint_schema()


class TestCrashDuringRestore:
    def test_crash_mid_restore_then_retry_is_identical(
            self, tmp_path, monkeypatch):
        """A crash inside the restore path (satellite: 'during restore')
        mutates nothing: the retried resume mounts the same checkpoint
        and still reproduces the uninterrupted record exactly."""
        import repro.core.experiment as experiment_module
        from repro.errors import CrashPoint

        config = config_for("tiered")
        baseline = ExperimentRunner(config).run()
        run_interrupted(config, tmp_path, kill_after_age=1.0)

        real_cross_check = experiment_module.cross_check
        calls = {"n": 0}

        def dying_cross_check(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise CrashPoint("injected crash during restore")
            return real_cross_check(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "cross_check",
                            dying_cross_check)
        runner = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                  resume=True)
        with pytest.raises(CrashPoint):
            runner.run()
        # The failed restore left the runner unmounted ...
        assert runner.store is None and runner.state is None
        monkeypatch.setattr(experiment_module, "cross_check",
                            real_cross_check)
        # ... and a retry (a fresh process in real life) matches exactly.
        resumed = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                   resume=True).run()
        assert resumed.to_dict() == baseline.to_dict()


class TestChargedContinuousResume:
    """Delta chains + charged checkpoint I/O: the continuous-operation
    configuration.  With ``checkpoint_rate > 0`` the write-back of each
    checkpoint is part of the modelled run (it perturbs device clocks
    and the event-queue timeline), so resume must reproduce not just
    the samples but the charging — including the lag-one byte count the
    next checkpoint will charge for."""

    def config(self) -> ExperimentConfig:
        spec = StoreSpec(
            "filesystem", volume_bytes=96 * MB, shards=3, overlap=True,
            queue="event", queue_depth=16,
            arrival="poisson:rate=400:seed=7",
            checkpoint_rate=0.5,
        )
        return ExperimentConfig(
            store=spec,
            sizes=ConstantSize(256 * KB),
            occupancy=0.4,
            ages=AGES,
            reads_per_sample=8,
            seed=13,
        )

    def chain_links(self, directory) -> list:
        manager = CheckpointManager(directory)
        return [manager._manifest_parent_seq(path)
                for _, path in manager._published()]

    @pytest.mark.parametrize("kill_after_age", [0.0, 1.0])
    def test_killed_and_resumed_through_a_delta_chain(
            self, tmp_path, kill_after_age):
        config = self.config()
        # The baseline checkpoints too: charged checkpoint I/O is part
        # of the run being modelled, not an observer effect.
        baseline = run_experiment(config, checkpoint_dir=tmp_path / "base")
        run_interrupted(config, tmp_path / "kill", kill_after_age)
        resumed = run_experiment(config, checkpoint_dir=tmp_path / "kill",
                                 resume=True)
        assert resumed.to_dict() == baseline.to_dict()
        # Non-vacuity: the default full_interval=4 really chained the
        # checkpoints the resume replayed through.
        links = self.chain_links(tmp_path / "kill")
        assert any(link is not None for link in links)

    def test_charged_checkpoints_perturb_the_run(self, tmp_path):
        """checkpoint_rate=0 must keep the historical uncharged record;
        turning it on must visibly change the modelled run."""
        from dataclasses import replace as dc_replace

        charged_cfg = self.config()
        uncharged_cfg = dc_replace(
            charged_cfg, store=dc_replace(charged_cfg.store,
                                          checkpoint_rate=0.0))
        observer_free = ExperimentRunner(uncharged_cfg).run()
        uncharged = run_experiment(uncharged_cfg,
                                   checkpoint_dir=tmp_path / "u")
        charged = run_experiment(charged_cfg, checkpoint_dir=tmp_path / "c")
        base = observer_free.to_dict()
        assert uncharged.to_dict() == base  # rate 0: observer effect off
        assert charged.to_dict() != base    # rate > 0: I/O is charged

    def test_encoder_swap_leaves_the_modelled_clock_alone(
            self, tmp_path, monkeypatch):
        """Every stored delta's ``bytes`` is charged to the modelled
        clock, so the encoder's output length is part of the model: the
        shipped encoder and the one it replaced (``deltaoracle.py``)
        must produce the same run record and the same manifests."""
        import json
        from dataclasses import replace as dc_replace

        from deltaoracle import encode_delta as oracle_encode_delta
        from repro.persist import checkpoint as checkpoint_module
        from repro.persist.checkpoint import MANIFEST_NAME

        # Six checkpoints: full, three deltas, full again, one delta.
        config = dc_replace(self.config(),
                            ages=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5))

        def run(directory):
            result = run_experiment(config, checkpoint_dir=directory,
                                    checkpoint_keep=8,
                                    checkpoint_full_interval=4)
            manifests = [
                json.loads((path / MANIFEST_NAME).read_text())["files"]
                for _, path in CheckpointManager(directory)._published()]
            return result.to_dict(), manifests

        shipped_record, shipped_files = run(tmp_path / "shipped")
        monkeypatch.setattr(checkpoint_module, "encode_delta",
                            oracle_encode_delta)
        oracle_record, oracle_files = run(tmp_path / "oracle")
        assert shipped_record == oracle_record
        assert shipped_files == oracle_files
        # Non-vacuity: deltas were stored, so their bytes were charged.
        assert len(shipped_files) == 6
        assert any(info["encoding"] == "delta"
                   for files in shipped_files for info in files.values())


class TestCliFlags:
    def test_run_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.cli import main
        args = ["run", "--backend", "filesystem", "--volume", "64M",
                "--object-size", "256K", "--occupancy", "0.4",
                "--ages", "0,1", "--reads", "4",
                "--checkpoint-dir", str(tmp_path / "ck")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second  # resumed tables identical
        assert CheckpointManager(tmp_path / "ck").load_latest() is not None

    def test_resume_requires_checkpoint_dir(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--backend", "filesystem", "--resume"])

    def test_checkpoint_keep_flag_controls_retention(self, tmp_path):
        from repro.cli import main
        args = ["run", "--backend", "filesystem", "--volume", "64M",
                "--object-size", "256K", "--occupancy", "0.4",
                "--ages", "0,1,2", "--reads", "4",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--checkpoint-keep", "3",
                "--checkpoint-full-interval", "1"]
        assert main(args) == 0
        published = CheckpointManager(tmp_path / "ck")._published()
        assert len(published) == 3  # one per age, all retained

    def test_keep_validated_against_cadence(self, tmp_path):
        """keep=1 cannot retain the fallback a delta chain needs."""
        from repro.cli import main
        args = ["run", "--backend", "filesystem", "--volume", "64M",
                "--object-size", "256K", "--occupancy", "0.4",
                "--ages", "0,1", "--reads", "4",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--checkpoint-keep", "1"]
        with pytest.raises(ConfigError, match="keep must be >= 2"):
            main(args)

    def test_keep_plumbed_through_run_experiment(self, tmp_path):
        config = config_for("tiered")
        run_experiment(config, checkpoint_dir=tmp_path,
                       checkpoint_keep=3, checkpoint_full_interval=1)
        assert len(CheckpointManager(tmp_path)._published()) == 3
