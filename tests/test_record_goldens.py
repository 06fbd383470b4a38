"""Run-record goldens for what ``bench_e2e``'s four goldens do not run.

``tests/golden/records.json`` pins ``sha256(json.dumps(record,
sort_keys=True))`` of six small scenario runs — two presets on an
unsharded filesystem, an unsharded database and a round-scheduler
sharded lfs store — so a refactor of the measurement stack can show,
not argue, that no modelled number moved.  No checkpoint is taken, so
no pickled bytes enter these records, and the runs are small enough
that the metadata heap's ``hash(key)`` leaf choice never costs a device
access (ROADMAP 1e), so the hashes hold on every CI Python and under
any ``PYTHONHASHSEED``.

To re-record (only with a stated reason, written into the entry's
``why``): ``PYTHONPATH=src python tests/test_record_goldens.py`` prints
the current hash of every entry.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.scenario.spec import ScenarioSpec

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "records.json").read_text())


def record_hash(entry: dict) -> str:
    run = GOLDEN["run"]
    config = ExperimentConfig(
        store=StoreSpec.parse(entry["store"],
                              volume_bytes=run["volume_bytes"]),
        scenario=ScenarioSpec.parse(entry["scenario"]),
        ages=tuple(run["ages"]),
        reads_per_sample=run["reads_per_sample"],
        seed=run["seed"],
    )
    runner = ExperimentRunner(config)
    record = runner.run().to_dict()
    runner.scenario_state.check_invariants(runner.store)
    blob = json.dumps(record, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["records"]))
def test_record_matches_golden(name):
    entry = GOLDEN["records"][name]
    assert entry["why"], "every golden states why it exists"
    assert record_hash(entry) == entry["sha256"]


if __name__ == "__main__":
    for name, entry in sorted(GOLDEN["records"].items()):
        print(name, record_hash(entry))
