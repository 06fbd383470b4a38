"""Policy-aware read-sweep measurement (the Figure 1/4 path).

``measure_read_throughput`` routes through ``read_many`` when the
store's device policy asks for batching or elevator reordering (or the
store models overlapped shard lanes) so those knobs actually govern
the measured I/O; with the default policy it keeps the historical
per-object ``get`` loop.  The parity contract: under ``policy=none``
the measurement is *identical* — same keys drawn, same device time,
same seeks — to the pre-policy implementation (an inline
``measure`` + ``read_sweep``), so every committed figure baseline
stays comparable.
"""

import pytest

from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.core.throughput import measure, measure_read_throughput
from repro.core.workload import (
    ConstantSize,
    WorkloadSpec,
    bulk_load,
    read_sweep,
)
from repro.disk.policy import DevicePolicy
from repro.errors import ConfigError
from repro.rng import substream
from repro.units import KB, MB

NREADS = 24


def aged_store(spec: StoreSpec):
    store = build_store(spec)
    state = bulk_load(store, WorkloadSpec(sizes=ConstantSize(256 * KB),
                                          target_occupancy=0.4),
                      substream(5, "workload"))
    # A little churn scatters the population so reordering matters.
    for _ in range(len(state.keys)):
        key = state.rng.choice(state.keys)
        store.overwrite(key, size=256 * KB)
    return store, state


def legacy_measurement(store, state, rng):
    """The pre-policy implementation, verbatim."""
    with measure(store, "read-sweep") as phase:
        phase.add_bytes(read_sweep(store, state, NREADS, rng))
    return phase


class TestPolicyNoneParity:
    @pytest.mark.parametrize("backend", ["lfs", "filesystem"])
    def test_default_policy_matches_old_per_object_path(self, backend):
        # Two identically built and aged stores: a sweep moves the disk
        # head, so comparing two sweeps on one store would not be fair.
        spec = StoreSpec(backend, volume_bytes=64 * MB)
        store, state = aged_store(spec)
        store2, state2 = aged_store(spec)
        legacy = legacy_measurement(store, state,
                                    substream(5, "read-sweep"))
        new = measure_read_throughput(store2, state2, NREADS,
                                      substream(5, "read-sweep"))
        assert new.logical_bytes == legacy.logical_bytes
        assert new.window.read_time_s == pytest.approx(
            legacy.window.read_time_s, rel=1e-12)
        assert new.window.cpu_time_s == pytest.approx(
            legacy.window.cpu_time_s, rel=1e-12)
        assert new.seeks == legacy.seeks
        assert new.window.requests == legacy.window.requests
        assert new.mbps == pytest.approx(legacy.mbps, rel=1e-12)
        # No overlap model on a single volume: wall == summed.
        assert new.wall_s == new.elapsed_s

    def test_both_paths_draw_the_same_keys(self):
        # The store picks the path: the default spec takes per-object
        # gets, a batch=16 spec takes read_many.
        store, state = aged_store(StoreSpec("lfs", volume_bytes=64 * MB))
        batched_store, batched_state = aged_store(
            StoreSpec("lfs", volume_bytes=64 * MB,
                      policy=DevicePolicy(batch_size=16)))
        per_object = measure_read_throughput(store, state, NREADS,
                                             substream(9, "read-sweep"))
        batched = measure_read_throughput(batched_store, batched_state,
                                          NREADS, substream(9, "read-sweep"))
        # Non-vacuity: batching collapsed the per-object requests.
        assert batched.window.requests < per_object.window.requests
        # Same rng -> same key population -> same logical bytes.
        assert batched.logical_bytes == per_object.logical_bytes


class TestPolicyRouting:
    def test_policy_with_reorder_routes_through_read_many(self):
        plain = StoreSpec("lfs", volume_bytes=64 * MB)
        clook = StoreSpec("lfs", volume_bytes=64 * MB,
                          policy=DevicePolicy(batch_size=16,
                                              reorder="clook"))
        store_a, state_a = aged_store(plain)
        store_b, state_b = aged_store(clook)
        base = measure_read_throughput(store_a, state_a, NREADS,
                                       substream(5, "read-sweep"))
        elevator = measure_read_throughput(store_b, state_b, NREADS,
                                           substream(5, "read-sweep"))
        # The elevator only helps if the sweep went through read_many:
        # batched submission collapses per-object requests and C-LOOK
        # cuts seeks on the scattered aged population.
        assert elevator.window.requests < base.window.requests
        assert elevator.seeks <= base.seeks
        assert elevator.window.read_time_s < base.window.read_time_s

    def test_overlap_store_reports_lower_wall_time(self):
        spec = StoreSpec("lfs", volume_bytes=96 * MB, shards=4,
                         overlap=True)
        store, state = aged_store(spec)
        result = measure_read_throughput(store, state, NREADS,
                                         substream(5, "read-sweep"))
        # Sharded fan-out overlaps: wall strictly below the summed
        # model, never below the slowest lane (makespan envelope).
        assert result.wall_s < result.elapsed_s
        assert result.wall_mbps > result.mbps

    def test_nreads_validation_on_read_many_path(self):
        spec = StoreSpec("lfs", volume_bytes=64 * MB,
                         policy=DevicePolicy(batch_size=16))
        store, state = aged_store(spec)
        with pytest.raises(ConfigError):
            measure_read_throughput(store, state, 0,
                                    substream(5, "read-sweep"))
