"""The get/put repository as every run drives it: an ``ObjectStore``
under ``repro.core.workload``'s books.

``bulk_load`` and ``churn_step`` keep a run's keys, marker versions
and storage age (a delete is booked with
``StorageAgeTracker.on_delete``); these cases hold those books to the
store they drive.  Markers are cross-validated against extent maps in
``test_core_fragmentation.py`` (driver-written) and
``test_prop_systems.py`` (random put/overwrite/delete scripts).
"""

import runpy
from pathlib import Path

import pytest

from repro.core.fragmentation import (
    MarkerScanner,
    fragment_counts,
    fragment_report,
)
from repro.core.workload import (
    ConstantSize,
    WorkloadSpec,
    bulk_load,
    churn_step,
    churn_to_age,
)
from repro.errors import ConfigError, FileExistsFsError, ObjectNotFoundError
from repro.rng import substream
from repro.units import KB

SPEC = WorkloadSpec(sizes=ConstantSize(256 * KB), target_occupancy=0.2)


def delete_every_key(store, state):
    for key in state.keys:
        state.tracker.on_delete(store.meta(key).size)
        store.delete(key)


@pytest.fixture
def loaded(file_store):
    return file_store, bulk_load(file_store, SPEC, substream(3, "w"))


@pytest.fixture
def tagged(content_file_store):
    spec = WorkloadSpec(sizes=ConstantSize(64 * KB), target_occupancy=0.1,
                        with_content=True)
    return content_file_store, bulk_load(content_file_store, spec,
                                         substream(3, "w"))


class TestBasicApi:
    def test_put_get(self, loaded):
        store, state = loaded
        for key in state.keys:
            assert store.meta(key).size == 256 * KB
        store.get(state.keys[-1])  # timed read must not raise

    def test_put_duplicate_rejected(self, loaded):
        """A second bulk load numbers its keys from ``object-1`` again;
        the store refuses the first one rather than double-booking it."""
        store, state = loaded
        with pytest.raises(FileExistsFsError):
            bulk_load(store, SPEC, substream(4, "w"))
        assert store.keys() == state.keys

    def test_replace_missing_rejected(self, loaded):
        store, state = loaded
        store.delete(state.keys[0])  # behind the books' back
        state.keys = state.keys[:1]
        with pytest.raises(ObjectNotFoundError):
            churn_step(store, state)

    def test_delete(self, loaded):
        store, state = loaded
        keys = list(state.keys)
        delete_every_key(store, state)
        assert not any(store.exists(key) for key in keys)
        assert store.keys() == []

    def test_keys(self, loaded):
        """The books list keys in the store's insertion order, and
        safe writes move neither."""
        store, state = loaded
        assert store.keys() == state.keys
        churn_to_age(store, state, 1.0)
        assert store.keys() == state.keys

    def test_exactly_one_of_size_data(self, file_store):
        """The store contract the books write through: a size
        (timing only) or the bytes, never both or neither."""
        with pytest.raises(ConfigError):
            file_store.put("object-1")
        with pytest.raises(ConfigError):
            file_store.put("object-1", size=4, data=b"1234")


class TestStorageAgeIntegration:
    def test_age_advances_with_replaces(self, loaded):
        store, state = loaded
        assert state.tracker.storage_age == 0.0
        # Constant sizes: one safe write per object is age 1.
        assert churn_to_age(store, state, 1.0) == len(state.keys)
        assert state.tracker.storage_age == pytest.approx(1.0)

    def test_delete_counts_dead_bytes(self, loaded):
        store, state = loaded
        live = state.tracker.live_bytes
        delete_every_key(store, state)
        assert state.tracker.dead_bytes == live
        # An empty volume has no live bytes, so age reads as zero.
        assert state.tracker.storage_age == 0.0


class TestInstrumentation:
    def test_fragment_report(self, loaded):
        store, state = loaded
        report = fragment_report(store)
        assert report.objects == len(state.keys)
        assert report.mean == 1.0

    def test_describe_mentions_key_facts(self, capsys):
        """``examples/quickstart.py`` prints what the books measure."""
        script = Path(__file__).resolve().parents[1] / "examples" / \
            "quickstart.py"
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        assert "storage age 4.00:" in out
        assert "fragments/object" in out

    def test_store_stats_passthrough(self, loaded):
        store, state = loaded
        churn_to_age(store, state, 1.0)
        assert store.store_stats().live_bytes == state.tracker.live_bytes


class TestTaggedContent:
    def test_tagged_mode_writes_markers(self, tagged):
        store, state = tagged
        for key in state.keys:
            assert store.get(key).startswith(b"FRAG")

    def test_object_ids_stable_across_replace(self, tagged):
        """A safe write rewrites the object under its key's id, one
        version up; the scanner counts the new copy, not the stale one."""
        store, state = tagged
        ids = {key: state.object_id_of(key) for key in state.keys}
        key = churn_step(store, state)
        assert state.versions[key] == 2
        assert {k: state.object_id_of(k) for k in state.keys} == ids
        counts = MarkerScanner(store.device).fragment_counts(
            live_ids=set(ids.values()))
        assert counts == {ids[k]: count
                          for k, count in fragment_counts(store).items()}
