"""Tests for the store-spec API: DevicePolicy, StoreSpec, the backend
registry, and the spec-only ExperimentConfig.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.backends import (
    BlobBackend,
    FileBackend,
    GfsChunkBackend,
    LfsBackend,
    ShardedStore,
    StoreSpec,
    backend_descriptions,
    backend_names,
    build_store,
    resolve_spec,
)
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.workload import ConstantSize
from repro.db.database import DbConfig
from repro.disk.device import BlockDevice
from repro.disk.events import ArrivalSpec
from repro.disk.geometry import scaled_disk
from repro.disk.policy import DevicePolicy
from repro.errors import ConfigError
from repro.fs.filesystem import FsConfig
from repro.units import DEFAULT_WRITE_REQUEST, KB, MB

ROOT = Path(__file__).resolve().parents[1]
SIMPLE_CLASSES = {
    "filesystem": FileBackend,
    "database": BlobBackend,
    "gfs": GfsChunkBackend,
    "lfs": LfsBackend,
}


class TestDevicePolicy:
    def test_defaults_are_historical_behaviour(self):
        policy = DevicePolicy()
        assert policy.batch_size == 0
        assert policy.reorder == "none"
        assert not policy.reorder_flag

    def test_validation(self):
        with pytest.raises(ConfigError):
            DevicePolicy(batch_size=-1)
        with pytest.raises(ConfigError):
            DevicePolicy(reorder="sstf")

    def test_chunks(self):
        items = list(range(10))
        assert [list(c) for c in DevicePolicy().chunks(items)] == [items]
        assert [list(c) for c in
                DevicePolicy(batch_size=4).chunks(items)] == \
            [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert list(DevicePolicy(batch_size=4).chunks([])) == []

    def test_round_trip_dict(self):
        policy = DevicePolicy(batch_size=16, reorder="clook")
        assert DevicePolicy(**policy.to_dict()) == policy

    def test_device_submit_defers_to_policy(self):
        """A clook policy reorders every batch; the default policy
        serves it in submission order."""
        def scattered_batch():
            offsets = [40 * MB, 2 * MB, 30 * MB, 6 * MB, 20 * MB,
                       10 * MB, 50 * MB, 1 * MB]
            return [[(off, 64 * KB)] for off in offsets]

        plain = BlockDevice(scaled_disk(64 * MB))
        plain.submit(scattered_batch())
        elevator = BlockDevice(scaled_disk(64 * MB),
                               policy=DevicePolicy(reorder="clook"))
        elevator.submit(scattered_batch())
        assert elevator.clock_s < plain.clock_s
        default = BlockDevice(scaled_disk(64 * MB), policy=DevicePolicy())
        default.submit(scattered_batch())
        assert default.clock_s == plain.clock_s

    def test_submit_policy_chunks_batches(self):
        device = BlockDevice(scaled_disk(64 * MB),
                             policy=DevicePolicy(batch_size=3))
        requests = [[(i * MB, 64 * KB)] for i in range(7)]
        device.submit_policy(requests, is_write=True)
        # ceil(7 / 3) = 3 batches -> 3 stats records.
        assert device.stats.requests == 3


class TestStoreSpec:
    def test_parse_full(self):
        spec = StoreSpec.parse(
            "lfs:reorder=clook,batch=8,segment_size=2M,"
            "volume=96M,shards=3,placement=round_robin"
        )
        assert spec.backend == "lfs"
        assert spec.policy == DevicePolicy(batch_size=8, reorder="clook")
        assert spec.option("segment_size") == "2M"  # converted at build
        assert spec.volume_bytes == 96 * MB
        assert spec.shards == 3
        assert spec.placement == "round_robin"

    def test_parse_default_backend(self):
        spec = StoreSpec.parse(":reorder=clook",
                               default_backend="database")
        assert spec.backend == "database"
        with pytest.raises(ConfigError):
            StoreSpec.parse(":reorder=clook")

    def test_parse_rejects_bad_items(self):
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:segment_size")
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:reorder=sstf")
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:placement=zodiac")

    def test_parse_background_rates(self):
        spec = StoreSpec.parse(
            "lfs:shards=2,rebalance_rate=0.5,checkpoint_rate=0.25")
        assert spec.rebalance_rate == 0.5
        assert spec.checkpoint_rate == 0.25
        assert spec.to_dict()["rebalance_rate"] == 0.5
        assert spec.to_dict()["checkpoint_rate"] == 0.25
        # checkpoint_rate=0 means uncharged (the historical model) and
        # is valid; rebalance_rate=0 would mean "never runs" and is not.
        assert StoreSpec.parse("lfs:checkpoint_rate=0").checkpoint_rate \
            == 0.0
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:rebalance_rate=0")
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:rebalance_rate=1.5")
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:checkpoint_rate=1.5")
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:checkpoint_rate=nope")

    def test_validation(self):
        with pytest.raises(ConfigError):
            StoreSpec("lfs", volume_bytes=0)
        with pytest.raises(ConfigError):
            StoreSpec("lfs", shards=0)
        with pytest.raises(ConfigError):
            StoreSpec("")

    def test_shard_specs_split_volume(self):
        spec = StoreSpec("lfs", volume_bytes=96 * MB, shards=3)
        subs = spec.shard_specs()
        assert len(subs) == 3
        assert all(s.volume_bytes == 32 * MB for s in subs)
        assert all(s.shards == 1 for s in subs)

    def test_to_dict_records_policy_and_layout(self):
        spec = StoreSpec("lfs", shards=4,
                         policy=DevicePolicy(batch_size=16,
                                             reorder="clook"))
        payload = spec.to_dict()
        assert payload["policy"] == {"batch_size": 16,
                                     "reorder": "clook"}
        assert payload["shards"] == 4
        assert payload["placement"] == "hash"

    def test_to_dict_echoes_canonical_fault_and_arrival_text(self):
        spec = StoreSpec.parse(
            "lfs:shards=2,overlap=true,queue=event,"
            "arrival=poisson:rate=2e3,faults=transient:rate=5e-2")
        payload = spec.to_dict()
        assert payload["faults"] == "transient:rate=0.05"
        assert payload["arrival"] == "poisson:rate=2000"
        assert StoreSpec("lfs").to_dict()["faults"] == ""
        assert StoreSpec("lfs").to_dict()["arrival"] == "closed"

    @pytest.mark.parametrize("field, text", [
        ("faults", "loss:shard=1"), ("arrival", "poisson:rate=5")])
    def test_spec_text_for_a_parsed_field_is_refused(self, field, text):
        """Text where a parsed value belongs used to fail later with
        an ``AttributeError`` on the string."""
        with pytest.raises(ConfigError,
                           match=rf"^{field} must be .*StoreSpec\.parse"):
            StoreSpec("lfs", shards=2, **{field: text})

    def test_a_negative_loss_shard_is_refused_at_parse_time(self):
        """It used to build, and raise only when the run reached the
        clause's age, after the work was done."""
        with pytest.raises(ConfigError, match="shard -1 must be >= 0"):
            StoreSpec.parse(
                "filesystem:shards=2,faults=loss:shard=-1:at_age=2")


class TestRegistry:
    def test_registry_lists_all_backends(self):
        names = backend_names()
        assert len(names) >= 4
        for expected in ("filesystem", "database", "gfs", "lfs"):
            assert expected in names
        descriptions = backend_descriptions()
        assert all(descriptions[name] for name in names)

    @pytest.mark.parametrize("doc", ["README.md", "docs/architecture.md"])
    def test_every_backend_is_documented(self, doc):
        """Replaces reprolint RPL301, which looked for decorated classes
        while every backend registers a function, so it never fired."""
        text = (ROOT / doc).read_text(encoding="utf-8")
        missing = [name for name in backend_names()
                   if not re.search(rf"\b{re.escape(name)}\b", text)]
        assert not missing, f"{doc} never mentions {missing}"

    @pytest.mark.parametrize("name", sorted(SIMPLE_CLASSES))
    def test_build_store_every_backend(self, name):
        store = build_store(StoreSpec(name, volume_bytes=64 * MB))
        assert isinstance(store, SIMPLE_CLASSES[name])
        assert store.device.policy == DevicePolicy()

    def test_build_store_converts_options(self):
        store = build_store(
            StoreSpec.parse("lfs:segment_size=2M,volume=64M"))
        assert store.segment_size == 2 * MB

    def test_build_store_threads_policy(self):
        spec = StoreSpec.parse("gfs:chunk_size=8M,reorder=clook,batch=4,"
                               "volume=64M")
        store = build_store(spec)
        assert store.device.policy == DevicePolicy(batch_size=4,
                                                   reorder="clook")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            build_store(StoreSpec("oracle"))

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError):
            build_store(StoreSpec("lfs", volume_bytes=64 * MB,
                                  options={"chunk_size": 8 * MB}))

    def test_object_option_type_checked(self):
        with pytest.raises(ConfigError):
            build_store(StoreSpec("filesystem", volume_bytes=64 * MB,
                                  options={"fs_config": "naive"}))

    def test_sharded_pseudo_backend_desugars(self):
        """A sharded store has one spelling, ``<backend>:shards=N``; the
        retired ``sharded:inner=<backend>`` is an unknown backend."""
        spec = resolve_spec(
            StoreSpec.parse("gfs:shards=2,chunk_size=8M,volume=64M"))
        assert (spec.backend, spec.shards) == ("gfs", 2)
        store = build_store(spec)
        assert isinstance(store, ShardedStore)
        assert all(isinstance(s, GfsChunkBackend) for s in store.shards)
        with pytest.raises(ConfigError, match="unknown backend 'sharded'"):
            build_store(
                StoreSpec.parse("sharded:inner=gfs,chunk_size=8M,volume=64M"))

    def test_sharded_does_not_nest(self):
        """``sharded`` is no registry name, so nothing can nest it."""
        assert "sharded" not in backend_names()
        with pytest.raises(ConfigError, match="unknown backend"):
            build_store(StoreSpec.parse("sharded:inner=sharded"))

    def test_shards_wrap_any_backend(self):
        store = build_store(StoreSpec("lfs", volume_bytes=96 * MB,
                                      shards=3))
        assert isinstance(store, ShardedStore)
        assert len(store.shards) == 3

    def test_checkpoint_rate_needs_shards(self):
        """Charged write-back runs only through a composite's
        background lanes, so one volume refuses the rate, in text and
        programmatic form alike; the shards of a composite that takes
        it carry none of their own."""
        with pytest.raises(ConfigError, match="shards"):
            StoreSpec.parse("filesystem:checkpoint_rate=0.5")
        with pytest.raises(ConfigError, match="shards"):
            StoreSpec("filesystem", checkpoint_rate=0.5)
        spec = StoreSpec("filesystem", volume_bytes=64 * MB, shards=2,
                         checkpoint_rate=0.5)
        store = build_store(spec)
        assert isinstance(store, ShardedStore)
        assert store.checkpoint_rate == 0.5
        assert [sub.checkpoint_rate for sub in spec.shard_specs()] \
            == [0.0, 0.0]


def _sizes():
    return ConstantSize(256 * KB)


class TestDeprecationShim:
    """The ``make_store`` shim and the legacy ``ExperimentConfig`` fields
    are gone; the class keeps its name (and test ids) and holds their
    contract against the one path that replaced them: everything the
    legacy fields could say is a spec option and builds the same store,
    and the config holds a StoreSpec and nothing per-backend."""

    LEGACY = [
        dict(backend="filesystem"),
        dict(backend="filesystem", size_hints=True),
        dict(backend="filesystem", fs_config=FsConfig(commit_interval_ops=1)),
        dict(backend="database"),
        dict(backend="database", db_config=DbConfig(write_request=128 * KB),
             write_request=128 * KB),
        dict(backend="gfs"),
        dict(backend="lfs"),
    ]

    @pytest.mark.parametrize("legacy", LEGACY,
                             ids=lambda d: "-".join(map(str, d.values())))
    def test_shim_builds_identical_store(self, legacy):
        options = dict(legacy)
        backend = options.pop("backend")
        write_request = options.pop("write_request", DEFAULT_WRITE_REQUEST)
        config = ExperimentConfig(
            store=StoreSpec(backend, volume_bytes=64 * MB,
                            write_request=write_request, options=options),
            sizes=_sizes())
        assert config.to_dict()["store"]["options"].keys() == options.keys()
        store = build_store(config.store)
        assert type(store) is SIMPLE_CLASSES[backend]
        # Config objects passed as options are the ones the store runs.
        if "fs_config" in options:
            assert store.fs.config is options["fs_config"]
        if "db_config" in options:
            assert store.db.config is options["db_config"]
            assert store.db.config.write_request == \
                config.to_dict()["store"]["write_request"]

    def test_db_config_must_write_the_specs_request_size(self):
        """A ``db_config`` whose ``write_request`` differs from the
        spec's would run one size while the record reports the other."""
        spec = StoreSpec("database", volume_bytes=64 * MB,
                         write_request=256 * KB,
                         options={"db_config": DbConfig()})
        with pytest.raises(ConfigError, match="65536.*262144"):
            build_store(spec)

    def test_spec_path_rejects_legacy_knobs(self):
        for knob in (dict(index_kind="naive"), dict(size_hints=True),
                     dict(fs_config=FsConfig()), dict(db_config=DbConfig()),
                     dict(backend="filesystem"), dict(volume_bytes=MB),
                     dict(write_request=KB), dict(store_data=True)):
            with pytest.raises(TypeError):
                ExperimentConfig(store=StoreSpec("filesystem"),
                                 sizes=_sizes(), **knob)
        with pytest.raises(TypeError):
            ExperimentConfig(sizes=_sizes())   # store is required
        assert len(dataclasses.fields(ExperimentConfig)) == 10

    def test_spec_path_derives_legacy_fields(self):
        spec = StoreSpec("lfs", volume_bytes=96 * MB,
                         write_request=128 * KB, shards=3)
        config = ExperimentConfig(store=spec, sizes=_sizes())
        assert config.backend == "lfs"
        assert config.volume_bytes == 96 * MB
        assert config.write_request == 128 * KB
        assert config.store_data is False

    def test_bad_options_fail_at_construction(self):
        with pytest.raises(ConfigError, match="does not accept option .zork."):
            ExperimentConfig(store=StoreSpec.parse("lfs:zork=1"),
                             sizes=_sizes())
        with pytest.raises(ConfigError, match="size_hints"):
            ExperimentConfig(
                store=StoreSpec.parse("filesystem:size_hints=maybe"),
                sizes=_sizes())


class TestRunRecords:
    def test_to_dict_serializes_resolved_spec(self):
        config = ExperimentConfig(
            store=StoreSpec.parse(
                "lfs:reorder=clook,batch=16,volume=96M,shards=3"),
            sizes=_sizes(),
        )
        record = config.to_dict()["store"]
        assert record["backend"] == "lfs"
        assert record["shards"] == 3
        assert record["policy"] == {"batch_size": 16, "reorder": "clook"}

    def test_size_hints_recorded_from_the_spec(self):
        """Regression: to_dict read a legacy field, so a spec that
        turned size hints on recorded ``False``."""
        for text, expected in (("filesystem:size_hints=true", True),
                               ("filesystem:size_hints=false", False),
                               ("filesystem", False),
                               ("filesystem:shards=2,size_hints=on", True),
                               ("database", False)):
            config = ExperimentConfig(store=StoreSpec.parse(text),
                                      sizes=_sizes())
            assert config.to_dict()["size_hints"] is expected, text

    def test_effective_index_kind_through_sharded_spec(self):
        """The record echoes the engine the shards run: the one
        free-space engine for filesystem shards, None for lfs."""
        config = ExperimentConfig(
            store=StoreSpec("filesystem", volume_bytes=96 * MB, shards=3),
            sizes=_sizes(),
        )
        assert config.to_dict()["index_kind"] == "tiered"
        lfs = ExperimentConfig(store=StoreSpec("lfs", shards=2),
                               sizes=_sizes())
        assert lfs.to_dict()["index_kind"] is None

    def test_experiment_runs_over_sharded_spec(self):
        config = ExperimentConfig(
            store=StoreSpec("filesystem", volume_bytes=96 * MB, shards=3),
            sizes=_sizes(), occupancy=0.3, ages=(0.0, 1.0),
            reads_per_sample=4, seed=5,
        )
        result = run_experiment(config)
        assert len(result.samples) == 2
        assert all(s.read_mbps > 0 for s in result.samples)
        assert result.config["store"]["shards"] == 3


READ_MANY_SPECS = [
    "filesystem:volume=64M",
    "database:volume=64M",
    "gfs:volume=64M,chunk_size=8M",
    "lfs:volume=64M,segment_size=2M",
    "filesystem:volume=96M,shards=3",
]


class TestReadMany:
    @pytest.mark.parametrize("text", READ_MANY_SPECS)
    def test_content_matches_get(self, text):
        store = build_store(StoreSpec.parse(text, store_data=True))
        payloads = {f"k{i}": bytes([i + 1]) * ((i + 1) * 24 * KB)
                    for i in range(6)}
        for key, payload in payloads.items():
            store.put(key, data=payload)
        keys = list(payloads)[::-1]  # scattered, non-insertion order
        results = store.read_many(keys)
        assert results == [store.get(k) for k in keys]
        assert results == [payloads[k] for k in keys]

    @pytest.mark.parametrize("text", READ_MANY_SPECS)
    def test_policy_never_changes_content(self, text):
        store = build_store(StoreSpec.parse(
            text, store_data=True,
            policy=DevicePolicy(batch_size=2, reorder="clook")))
        payloads = {f"k{i}": bytes([i + 1]) * (32 * KB) for i in range(5)}
        for key, payload in payloads.items():
            store.put(key, data=payload)
        keys = list(payloads)[::-1]
        assert store.read_many(keys) == [payloads[k] for k in keys]

    def test_read_many_charges_device_time(self):
        store = build_store(StoreSpec.parse("lfs:volume=64M"))
        for i in range(4):
            store.put(f"k{i}", size=256 * KB)
        before = sum(d.clock_s for d in store.devices())
        assert store.read_many([f"k{i}" for i in range(4)]) == [None] * 4
        assert sum(d.clock_s for d in store.devices()) > before


class TestEventQueueSpec:
    """Grammar and validation of queue=event / depth / arrival."""

    def test_parse_event_queue_grammar(self):
        spec = StoreSpec.parse(
            "lfs:shards=4,overlap=true,queue=event,depth=32,"
            "arrival=poisson:rate=2e3:clients=16:seed=7"
        )
        assert spec.queue == "event"
        assert spec.queue_depth == 32
        assert spec.arrival == ArrivalSpec.parse(
            "poisson:rate=2e3:clients=16:seed=7")
        resolved = resolve_spec(spec)
        assert resolved.queue == "event"

    def test_defaults_are_the_round_model(self):
        spec = StoreSpec.parse("lfs:shards=4,overlap=true")
        assert spec.queue == "round"
        assert spec.queue_depth == 64
        assert spec.arrival == ArrivalSpec.parse("closed")

    def test_bad_queue_values_rejected(self):
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:shards=4,overlap=true,queue=fifo")
        with pytest.raises(ConfigError):
            StoreSpec.parse("lfs:shards=4,overlap=true,queue=event,"
                            "depth=-1")
        with pytest.raises(ConfigError):
            StoreSpec.parse(
                "lfs:shards=4,overlap=true,queue=event,"
                "arrival=poisson")  # poisson needs a rate

    def test_event_requires_overlap(self):
        # Mirrors the PR 5 overlap-on-one-shard rejection: the event
        # queue simulates the overlap scheduler's lanes, so it cannot
        # run without one.
        with pytest.raises(ConfigError, match="overlap"):
            StoreSpec.parse("lfs:shards=4,queue=event")

    def test_arrival_requires_event_queue(self):
        with pytest.raises(ConfigError, match="queue=event"):
            StoreSpec.parse(
                "lfs:shards=4,overlap=true,arrival=poisson:rate=100")

    def test_shard_specs_clear_queue_options(self):
        spec = StoreSpec.parse(
            "lfs:shards=4,overlap=true,queue=event,depth=8,"
            "arrival=poisson:rate=100,volume=96M"
        )
        for sub in spec.shard_specs():
            assert sub.queue == "round"
            assert sub.queue_depth == 64
            assert sub.arrival == ArrivalSpec.parse("closed")
            assert not sub.overlap

    def test_to_dict_records_queue_fields(self):
        spec = StoreSpec.parse(
            "lfs:shards=4,overlap=true,queue=event,depth=16,"
            "arrival=poisson:rate=500")
        payload = spec.to_dict()
        assert payload["queue"] == "event"
        assert payload["queue_depth"] == 16
        assert payload["arrival"] == "poisson:rate=500"

    def test_build_store_wires_the_event_scheduler(self):
        from repro.disk.events import EventScheduler

        store = build_store(StoreSpec.parse(
            "lfs:shards=4,overlap=true,queue=event,depth=8,volume=64M"))
        assert isinstance(store.scheduler, EventScheduler)
        assert store.scheduler.depth == 8
        round_store = build_store(StoreSpec.parse(
            "lfs:shards=4,overlap=true,volume=64M"))
        assert not getattr(round_store.scheduler, "is_event", False)
