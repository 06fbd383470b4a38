"""Checkpoint/resume of scenario runs: killed and resumed == uninterrupted.

The scenario engine's whole mutable state — tenant RNGs, key ownership,
the TTL heap, the arrival-wave cursor — pickles inside the run
checkpoint.  Latency histograms do not: they belong to the measurement
window of the churn phase, which has closed (and been summarised into
the sample) before any checkpoint is taken.  The acceptance bar
mirrors ``test_checkpoint_resume``: a scenario run killed right after a
mid-run checkpoint and resumed must reproduce the
uninterrupted run record *exactly*, including every per-tenant latency
summary, on both the event-queue and plain stores.
"""

import pytest

from repro.backends.spec import StoreSpec
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentRunner,
    run_experiment,
)
from repro.errors import ConfigError
from repro.scenario.spec import ScenarioSpec
from repro.struct import keylist
from repro.units import MB

AGES = (0.0, 1.0, 2.0)


def config_for(store_kind: str, scenario_text: str,
               seed: int = 11) -> ExperimentConfig:
    specs = {
        "event": StoreSpec.parse(
            "lfs:shards=2,overlap=true,queue=event,volume=48M"),
        "plain": StoreSpec("filesystem", volume_bytes=48 * MB),
        # Room for more 64K log segments than one KeyList block holds.
        "plain-large": StoreSpec("filesystem", volume_bytes=96 * MB),
    }
    return ExperimentConfig(
        store=specs[store_kind],
        scenario=ScenarioSpec.parse(scenario_text),
        occupancy=0.4,
        ages=AGES,
        reads_per_sample=8,
        seed=seed,
    )


class _Killed(Exception):
    """Stands in for SIGKILL right after a checkpoint lands."""


def run_interrupted(config: ExperimentConfig, directory,
                    kill_after_age: float) -> None:
    def killer(phase: str, value: float) -> None:
        if phase == "checkpoint" and value == kill_after_age:
            raise _Killed

    runner = ExperimentRunner(config, progress=killer,
                              checkpoint_dir=directory)
    with pytest.raises(_Killed):
        runner.run()


class TestScenarioResumeIdentity:
    @pytest.mark.parametrize("store_kind,scenario_text", [
        ("event", "cdn_churn:tenants=3,seed=5"),
        ("plain", "log_ingest:tenants=2,seed=5"),
    ])
    @pytest.mark.parametrize("kill_after_age", [0.0, 1.0])
    def test_killed_and_resumed_equals_uninterrupted(
            self, tmp_path, store_kind, scenario_text, kill_after_age):
        config = config_for(store_kind, scenario_text)
        baseline = ExperimentRunner(config).run()
        run_interrupted(config, tmp_path, kill_after_age)
        resumed = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                   resume=True).run()
        # Full record equality — including scenario_lat/tenant_lat on
        # every sample, so the per-tenant histograms survived the kill.
        assert resumed.to_dict() == baseline.to_dict()
        aged = [s for s in resumed.samples if s.age > 0]
        assert aged and all(s.tenant_lat for s in aged)

    def test_resume_rebuilds_a_multi_block_key_list(self, tmp_path):
        """The kill lands after > BLOCK creates and a round of expiries,
        so the uninterrupted run continues on blocks that have shrunk
        while the resumed one rebuilds full blocks from the pickled
        sequence: same keys, different layout, identical record."""
        config = config_for("plain-large", "log_ingest:tenants=2,seed=5")
        baseline = ExperimentRunner(config).run()
        assert baseline.objects_loaded > keylist.BLOCK
        run_interrupted(config, tmp_path, 1.0)
        runner = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                  resume=True)
        assert runner.run().to_dict() == baseline.to_dict()
        state = runner.scenario_state
        assert len(state.workload.keys) > keylist.BLOCK
        assert sum(t.expired for t in state.tenants) > 0
        state.check_invariants(runner.store)

    def test_completed_run_resumes_to_identical_record(self, tmp_path):
        config = config_for("event", "cdn_churn:tenants=3,seed=5")
        first = run_experiment(config, checkpoint_dir=tmp_path)
        again = run_experiment(config, checkpoint_dir=tmp_path,
                               resume=True)
        assert again.to_dict() == first.to_dict()

    def test_resume_refuses_a_different_scenario(self, tmp_path):
        """A checkpoint written under one scenario never seeds another:
        the scenario text is part of the config echo, so resuming with
        a different spec is refused outright."""
        run_interrupted(config_for("event", "cdn_churn:tenants=3,seed=5"),
                        tmp_path, 1.0)
        other = config_for("event", "cdn_churn:tenants=3,seed=6")
        with pytest.raises(ConfigError, match="different configuration"):
            ExperimentRunner(other, checkpoint_dir=tmp_path,
                             resume=True).run()

    def test_resume_refuses_an_older_schema(self, tmp_path, monkeypatch):
        """``run-checkpoint/9`` pickled tenant and scenario key
        sequences as plain lists where this tree expects a ``KeyList``:
        refused by schema tag, before the config hash is even
        compared."""
        from repro.core import experiment

        config = config_for("plain", "log_ingest:tenants=2,seed=5")
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "CHECKPOINT_SCHEMA",
                          "run-checkpoint/9")
            run_interrupted(config, tmp_path, 0.0)
        assert experiment.CHECKPOINT_SCHEMA == "run-checkpoint/10"
        with pytest.raises(ConfigError,
                           match="has schema 'run-checkpoint/9'"):
            ExperimentRunner(config, checkpoint_dir=tmp_path,
                             resume=True).run()
