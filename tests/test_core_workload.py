"""Tests for size distributions and workload phases."""

import pytest

from repro.core.workload import (
    ConstantSize,
    UniformSize,
    WorkloadSpec,
    bulk_load,
    churn_step,
    churn_to_age,
    read_sweep,
)
from repro.errors import ConfigError
from repro.rng import substream
from repro.units import KB, MB


class TestDistributions:
    def test_constant(self):
        dist = ConstantSize(256 * KB)
        rng = substream(1, "t")
        assert dist.mean == 256 * KB
        assert {dist.draw(rng) for _ in range(10)} == {256 * KB}

    def test_constant_validation(self):
        with pytest.raises(ConfigError):
            ConstantSize(0)

    def test_uniform_bounds(self):
        dist = UniformSize(1 * MB, 3 * MB)
        rng = substream(2, "t")
        draws = [dist.draw(rng) for _ in range(200)]
        assert all(1 * MB <= d <= 3 * MB for d in draws)
        assert all(d % KB == 0 for d in draws)

    def test_uniform_mean(self):
        dist = UniformSize.around_mean(10 * MB, spread=0.8)
        assert dist.lo == 2 * MB
        assert dist.hi == 18 * MB
        assert dist.mean == pytest.approx(10 * MB)
        rng = substream(3, "t")
        draws = [dist.draw(rng) for _ in range(2000)]
        empirical = sum(draws) / len(draws)
        assert empirical == pytest.approx(10 * MB, rel=0.05)

    def test_uniform_validation(self):
        with pytest.raises(ConfigError):
            UniformSize(0, 100)
        with pytest.raises(ConfigError):
            UniformSize(100, 50)
        with pytest.raises(ConfigError):
            UniformSize.around_mean(1 * MB, spread=1.5)

    def test_labels(self):
        assert str(ConstantSize(256 * KB)) == "constant(256K)"
        assert "uniform" in str(UniformSize(1 * MB, 3 * MB))

    def test_uniform_rounding_is_unbiased(self):
        # Floor rounding would pull the realized mean ~0.5 KB below the
        # declared mean; nearest-KB rounding keeps the error well under
        # 0.1 KB over a large sample.  10k draws from a 64K..192K range
        # have a standard error ~0.37 KB, so a 0.5 KB floor bias would
        # show up many sigma away while nearest rounding stays within
        # ~3 sigma of zero.
        dist = UniformSize(64 * KB, 192 * KB)
        rng = substream(11, "bias")
        n = 40_000
        total = sum(dist.draw(rng) for _ in range(n))
        bias_kb = (total / n - dist.mean) / KB
        assert abs(bias_kb) < 0.25, f"realized-mean bias {bias_kb:.3f} KB"

    def test_uniform_rounds_to_nearest(self):
        # lo == hi pins the raw draw, so rounding is directly visible.
        rng = substream(12, "round")
        assert UniformSize(10 * KB + 700, 10 * KB + 700).draw(rng) == 11 * KB
        assert UniformSize(10 * KB + 100, 10 * KB + 100).draw(rng) == 10 * KB
        # Sub-KB draws clamp up to the 1 KB minimum.
        assert UniformSize(1, 1).draw(rng) == 1 * KB


class TestBulkLoad:
    def test_reaches_target_occupancy(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(1 * MB),
                            target_occupancy=0.5)
        state = bulk_load(file_store, spec, substream(4, "w"))
        stats = file_store.store_stats()
        assert 0.40 <= stats.occupancy <= 0.55
        assert len(state.keys) == stats.objects
        assert state.tracker.storage_age == 0.0

    def test_deterministic_under_seed(self):
        from repro.backends.file_backend import FileBackend
        from repro.disk.device import BlockDevice
        from repro.disk.geometry import scaled_disk

        def run():
            store = FileBackend(BlockDevice(scaled_disk(32 * MB)))
            spec = WorkloadSpec(sizes=UniformSize(256 * KB, 1 * MB),
                                target_occupancy=0.5)
            state = bulk_load(store, spec, substream(7, "w"))
            return [store.meta(k).size for k in state.keys]

        assert run() == run()

    def test_volume_too_small(self):
        from repro.backends.file_backend import FileBackend
        from repro.disk.device import BlockDevice
        from repro.disk.geometry import scaled_disk

        store = FileBackend(BlockDevice(scaled_disk(16 * MB)))
        spec = WorkloadSpec(sizes=ConstantSize(32 * MB),
                            target_occupancy=0.9)
        with pytest.raises(ConfigError):
            bulk_load(store, spec, substream(1, "w"))

    def test_occupancy_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(sizes=ConstantSize(1 * MB), target_occupancy=1.5)


class TestChurn:
    def test_step_replaces_one_object(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        key = churn_step(file_store, state)
        assert key in state.keys
        assert state.tracker.overwrites == 1
        assert state.bytes_overwritten == 512 * KB

    def test_churn_to_age_reaches_target(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        steps = churn_to_age(file_store, state, 2.0)
        assert state.tracker.storage_age >= 2.0
        assert steps == state.tracker.overwrites

    def test_churn_preserves_object_count(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        n = len(state.keys)
        churn_to_age(file_store, state, 1.0)
        assert file_store.store_stats().objects == n

    def test_on_step_callback(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        seen = []
        churn_to_age(file_store, state, 0.5, on_step=seen.append)
        assert seen == list(range(1, len(seen) + 1))


class TestReadSweep:
    def test_reads_requested_count(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        total = read_sweep(file_store, state, 10)
        assert total == 10 * 512 * KB

    def test_dedicated_rng_leaves_churn_untouched(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        churn_rng_state = state.rng.getstate()
        read_sweep(file_store, state, 5, rng=substream(6, "r"))
        assert state.rng.getstate() == churn_rng_state

    def test_validation(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(512 * KB),
                            target_occupancy=0.4)
        state = bulk_load(file_store, spec, substream(5, "w"))
        with pytest.raises(ConfigError):
            read_sweep(file_store, state, 0)


class TestObjectIdOf:
    def _state(self):
        from repro.core.workload import WorkloadState
        spec = WorkloadSpec(sizes=ConstantSize(64 * KB))
        return WorkloadState(spec=spec, rng=substream(1, "id"))

    def test_parses_trailing_integer(self):
        state = self._state()
        assert state.object_id_of("object-7") == 7
        assert state.object_id_of("tenant-3-object-7") == 7
        assert state.object_id_of("t-0-object-123") == 123

    def test_rejects_malformed_keys(self):
        state = self._state()
        for bad in ("object", "object-", "object-x", "7", "object-7x",
                    "object-٧"):
            with pytest.raises(ConfigError):
                state.object_id_of(bad)


class TestMarkerContentMode:
    def test_with_content_round_trips(self, content_file_store):
        spec = WorkloadSpec(sizes=ConstantSize(64 * KB),
                            target_occupancy=0.2, with_content=True)
        state = bulk_load(content_file_store, spec, substream(5, "w"))
        key = state.keys[0]
        data = content_file_store.get(key)
        assert data is not None
        assert data.startswith(b"FRAG")
