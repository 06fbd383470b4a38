"""Run-record goldens for what ``bench_e2e``'s four goldens do not run.

``tests/golden/records.json`` pins ``sha256(json.dumps(record,
sort_keys=True))`` of six small scenario runs — two presets on an
unsharded filesystem, an unsharded database and a round-scheduler
sharded lfs store — so a refactor of the measurement stack can show,
not argue, that no modelled number moved.  No checkpoint is taken, so
no pickled bytes enter these records, and the runs are small enough
that the metadata heap's ``hash(key)`` leaf choice never costs a device
access (ROADMAP 1e), so the hashes hold under any ``PYTHONHASHSEED``.
They hold on every CI Python because no modelled total goes through
builtin ``sum()`` — a left fold up to CPython 3.11, a compensated sum
from 3.12 — but through an explicit left fold
(:func:`repro.units.left_sum`, :func:`repro.disk.device.
summed_clock_s`); :func:`test_records_do_not_depend_on_builtin_sum`
keeps it so on whichever interpreter runs the suite.

To re-record (only with a stated reason, written into the entry's
``why``): ``PYTHONPATH=src python tests/test_record_goldens.py`` prints
the current hash of every entry.
"""

import hashlib
import json
import os
import subprocess
import sys
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


#: Run in a child before anything imports ``repro``: builtin ``sum``
#: becomes an exactly-rounded sum for all-float inputs, i.e. it stops
#: being a left fold, as it did in CPython 3.12.
_COMPENSATED_SUM = """
import builtins, math, runpy, sys
_sum = builtins.sum
def compensated(iterable, /, start=0):
    items = list(iterable)
    if items and start == 0 and all(type(x) is float for x in items):
        return math.fsum(items)
    return _sum(items, start)
builtins.sum = compensated
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_records_do_not_depend_on_builtin_sum():
    """3.12's ``sum()`` emulated on any interpreter: same six hashes."""
    # The child imports this module, so it needs pytest as well as src/.
    path = [str(Path(__file__).resolve().parents[1] / "src"),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", _COMPENSATED_SUM, __file__],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    hashes = dict(line.split() for line in proc.stdout.splitlines())
    assert hashes == {name: entry["sha256"]
                      for name, entry in GOLDEN["records"].items()}


if __name__ == "__main__":
    for name, entry in sorted(GOLDEN["records"].items()):
        print(name, record_hash(entry))
