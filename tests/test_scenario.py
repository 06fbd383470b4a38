"""Scenario engine: spec grammar, per-tenant accounting, reconciliation.

Three layers, mirroring the module split:

* :class:`~repro.scenario.spec.ScenarioSpec` grammar — presets parse,
  canonical text round-trips exactly, unknown presets/keys and
  out-of-range values are rejected with :class:`ConfigError`.
* The engine itself — bulk load partitions keys across tenants, TTL
  churn expires objects without collapsing populations, and on an
  unsharded, a ``queue=round`` and a ``queue=event`` store alike the
  per-tenant latency counts of a measured phase sum to its global
  count, which equals ops + expiries (every op goes through the one
  ``tagged`` seam).
* Experiment integration — a scenario run over a ``queue=event`` store
  surfaces per-tenant sojourn summaries on every aged sample, and the
  tenant counts sum to the sample's global count (the reconciliation
  invariant), on the non-event path too.
"""

import json

import pytest

from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentRunner,
    run_experiment,
)
from repro.core.throughput import measure
from repro.core.workload import ConstantSize, WorkloadSpec
from repro.errors import ConfigError, CorruptionError, ObjectNotFoundError
from repro.scenario.engine import (
    ScenarioState,
    _maybe_update_arrival,
    scenario_bulk_load,
    scenario_step,
    scenario_to_age,
)
from repro.scenario.spec import (
    SCENARIO_PRESETS,
    ScenarioSpec,
    TenantProfile,
    scenario_names,
)
from repro.units import KB, MB


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_registry_and_names_agree(self):
        assert scenario_names() == tuple(sorted(SCENARIO_PRESETS))
        assert set(scenario_names()) == {
            "cdn_churn", "log_ingest", "photo_sharing", "video_dvr",
        }

    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_bare_preset_parses_and_round_trips(self, name):
        spec = ScenarioSpec.parse(name)
        assert spec.name == name
        assert spec.params == ()
        assert spec.text() == name
        assert ScenarioSpec.parse(spec.text()) == spec
        assert len(spec.tenants) == SCENARIO_PRESETS[name].tenants

    @pytest.mark.parametrize("text", [
        "cdn_churn:tenants=8,skew=1.1,seed=7",
        "photo_sharing:tenants=2",
        "log_ingest:ttl=400,amplitude=0.8,period=300",
        "video_dvr:tenants=2,seed=3",
        "  cdn_churn : tenants = 4 , seed = 1 ",
    ])
    def test_round_trip_identity(self, text):
        spec = ScenarioSpec.parse(text)
        assert ScenarioSpec.parse(spec.text()) == spec

    def test_canonical_text_sorts_params(self):
        spec = ScenarioSpec.parse("cdn_churn:tenants=8,skew=1.1,seed=7")
        assert spec.text() == "cdn_churn:seed=7,skew=1.1,tenants=8"
        assert len(spec.tenants) == 8
        assert spec.seed == 7
        assert all(t.zipf == 1.1 for t in spec.tenants)

    def test_defaults_come_from_the_preset(self):
        spec = ScenarioSpec.parse("log_ingest")
        preset = SCENARIO_PRESETS["log_ingest"]
        assert spec.wave_amplitude == preset.amplitude
        assert spec.wave_period_ops == preset.period
        assert all(t.ttl_ops == preset.ttl for t in spec.tenants)

    @pytest.mark.parametrize("bad", [
        "warehouse",                      # unknown preset
        "cdn_churn:shards=4",             # unknown key
        "cdn_churn:tenants",              # missing =value
        "cdn_churn:tenants=",             # empty value
        "cdn_churn:tenants=4,tenants=5",  # duplicate key
        "cdn_churn:tenants=zero",         # bad int
        "cdn_churn:skew=hot",             # bad float
        "cdn_churn:tenants=0",            # below range
        "cdn_churn:tenants=65",           # above range
        "cdn_churn:skew=-1",              # negative skew
        "cdn_churn:ttl=-5",               # negative ttl
        "cdn_churn:amplitude=0,period=-5",  # negative wave period
        "cdn_churn:amplitude=1.0",        # wave must stay < 1
    ])
    def test_rejected_specs(self, bad):
        with pytest.raises(ConfigError):
            ScenarioSpec.parse(bad)

    def test_tenant_profile_validation(self):
        ok = dict(name="t", sizes=ConstantSize(64 * KB))
        with pytest.raises(ConfigError):
            TenantProfile(read_fraction=0.5, overwrite_fraction=0.1,
                          create_fraction=0.1, **ok)  # sums to 0.7
        with pytest.raises(ConfigError):
            TenantProfile(read_fraction=0.5, overwrite_fraction=0.0,
                          create_fraction=0.5, ttl_ops=0, **ok)
        with pytest.raises(ConfigError):
            TenantProfile(weight=0.0, **ok)

    def test_spec_validation(self):
        tenant = TenantProfile(name="t", sizes=ConstantSize(64 * KB))
        with pytest.raises(ConfigError):  # duplicate tenant names
            ScenarioSpec(name="x", tenants=(tenant, tenant))
        sleepy = TenantProfile(name="z", sizes=ConstantSize(64 * KB),
                               read_fraction=1.0, overwrite_fraction=0.0,
                               create_fraction=0.0)
        with pytest.raises(ConfigError):  # nothing ever writes
            ScenarioSpec(name="x", tenants=(sleepy,))

    def test_mean_object_size_is_share_weighted(self):
        spec = ScenarioSpec.parse("video_dvr:tenants=3")
        # Three ConstantSize tenants (1/2/4 MB) with equal shares.
        assert spec.mean_object_size == pytest.approx(7 * MB / 3)

    def test_to_dict_is_json_friendly(self):
        spec = ScenarioSpec.parse("photo_sharing:tenants=2,seed=9")
        blob = json.dumps(spec.to_dict())
        assert json.loads(blob)["text"] == "photo_sharing:seed=9,tenants=2"


# ----------------------------------------------------------------------
# Engine (direct, non-event store)
# ----------------------------------------------------------------------
def _fresh_state(scenario_text: str, *, occupancy: float = 0.4,
                 volume: int = 48 * MB, seed: int = 11,
                 store_text: str = "filesystem"):
    store = build_store(StoreSpec.parse(store_text, volume_bytes=volume))
    scn = ScenarioSpec.parse(scenario_text)
    wspec = WorkloadSpec(
        sizes=ConstantSize(max(1, round(scn.mean_object_size))),
        target_occupancy=occupancy,
    )
    return store, scenario_bulk_load(store, wspec, scn, seed)


class TestEngine:
    def test_bulk_load_partitions_keys_across_tenants(self):
        store, state = _fresh_state("cdn_churn:tenants=3,seed=5")
        assert all(t.keys for t in state.tenants)
        assert sum(len(t.keys) for t in state.tenants) \
            == len(state.workload.keys)
        assert len(set(state.workload.keys)) == len(state.workload.keys)
        for tenant in state.tenants:
            prefix = f"{tenant.profile.name}-object-"
            assert all(k.startswith(prefix) for k in tenant.keys)
        assert state.workload.tracker.live_bytes > 0
        assert state.live_cap > state.workload.tracker.live_bytes

    @pytest.mark.parametrize("store_text", [
        "filesystem",
        "filesystem:shards=2,overlap=true,queue=round",
        "filesystem:shards=2,overlap=true,queue=event",
    ])
    def test_tenant_counts_reconcile_on_every_store_kind(self, store_text):
        store, state = _fresh_state("log_ingest:tenants=3,seed=5",
                                    store_text=store_text)
        with measure(store, "churn") as phase:
            steps = scenario_to_age(store, state, 1.0, tagged=phase.tagged)
        assert sum(t.ops for t in state.tenants) == steps
        expired = sum(t.expired for t in state.tenants)
        assert expired > 0
        # Expiry deletes are timed too: one sample per op and per
        # expiry (on these stores every op is one request on one
        # shard), and the tenant splits always sum to the global.
        assert phase.latency["count"] == steps + expired
        assert sum(s["count"] for s in phase.tenant_lat.values()) \
            == phase.latency["count"]
        assert phase.latency["p99_s"] >= phase.latency["p50_s"] >= 0.0
        # The engine keeps no latency state: an unmeasured call works
        # and a second phase starts from empty books.
        scenario_step(store, state)
        with measure(store, "idle") as idle:
            pass
        assert idle.latency == {} and idle.tenant_lat is None
        state.check_invariants(store)

    def test_ttl_churn_expires_without_collapsing(self):
        store, state = _fresh_state("log_ingest:tenants=2,ttl=60,seed=5")
        for _ in range(600):
            scenario_step(store, state)
        assert sum(t.expired for t in state.tenants) > 0
        assert sum(t.creates for t in state.tenants) > 0
        for tenant in state.tenants:
            assert len(tenant.keys) >= tenant.ttl_floor
        # Key books stay consistent: tenant keys partition the workload
        # keys, and every live key still resolves in the store.
        state.check_invariants(store)

    def test_scenario_to_age_reaches_target(self):
        store, state = _fresh_state("cdn_churn:tenants=2,seed=5")
        seen = []
        steps = scenario_to_age(store, state, 0.5,
                                on_step=lambda i: seen.append(i))
        assert state.workload.tracker.storage_age >= 0.5
        assert steps == len(seen) == seen[-1]
        state.check_invariants(store)

    @pytest.mark.parametrize("corrupt,error,match", [
        pytest.param(
            lambda store, st: st.tenants[0].keys.remove(st.tenants[0].keys[0]),
            CorruptionError, "partition", id="tenant-lost-a-key"),
        pytest.param(
            lambda store, st: (
                st.workload.keys.remove(st.tenants[0].keys[0]),
                st.workload.keys.append(st.tenants[0].keys[0])),
            CorruptionError, "partition", id="key-out-of-order"),
        pytest.param(
            lambda store, st: setattr(st, "op_index", st.op_index + 1),
            CorruptionError, "op_index", id="op-count"),
        pytest.param(
            lambda store, st: st.workload.tracker.on_put(1),
            CorruptionError, "live_bytes", id="tracker-bytes"),
        pytest.param(
            lambda store, st: store.delete(st.workload.keys[-1]),
            ObjectNotFoundError, "object", id="key-not-in-store"),
        pytest.param(
            lambda store, st: st.ttl_heap.append(
                (0, 0, len(st.tenants), "x")),
            CorruptionError, "TTL heap", id="heap-tenant-index"),
        pytest.param(
            lambda store, st: st.workload.keys._where.pop(
                st.workload.keys[0]),
            CorruptionError, "KeyList", id="keylist-dict"),
    ])
    def test_check_invariants_names_each_broken_book(self, corrupt, error,
                                                     match):
        store, state = _fresh_state("log_ingest:tenants=2,ttl=60,seed=5")
        for _ in range(200):
            scenario_step(store, state)
        state.check_invariants(store)
        corrupt(store, state)
        with pytest.raises(error, match=match):
            state.check_invariants(store)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "each wave window's arrival seed is derived from the previous "
        "window's rather than from one base seed, so it grows three "
        "digits per window and str() refuses it past 4300 digits"))
    def test_arrival_seed_stays_bounded_across_wave_windows(self):
        """Each window's seed is derived from the previous window's, so
        it gains three digits per window until ``str(seed)`` passes
        CPython's 4300-digit limit (window ~1433) and the run dies."""
        store, state = _fresh_state(
            "cdn_churn:tenants=2,period=8",
            store_text="lfs:shards=2,overlap=true,queue=event,"
                       "arrival=poisson:rate=150")
        for window in range(1500):
            state.op_index = window  # period // 8 == 1 op per window
            _maybe_update_arrival(store, state)
        assert state.wave_window == 1499
        assert store.scheduler.arrival.seed.bit_length() < 128

    def test_zipf_skews_toward_hot_ranks(self):
        store, state = _fresh_state("cdn_churn:tenants=1,skew=1.2,seed=5")
        tenant = state.tenants[0]
        hot = tenant.keys[0]
        draws = [tenant.pick_key() for _ in range(2000)]
        hot_share = draws.count(hot) / len(draws)
        assert hot_share > 2.0 / len(tenant.keys)


# ----------------------------------------------------------------------
# Experiment integration: the reconciliation invariant end to end
# ----------------------------------------------------------------------
EVENT_STORE = "lfs:shards=2,overlap=true,queue=event,volume=48M"


def _experiment(store_spec: StoreSpec, scenario_text: str,
                **overrides) -> ExperimentConfig:
    kwargs = dict(
        store=store_spec,
        scenario=ScenarioSpec.parse(scenario_text),
        occupancy=0.4,
        ages=(0.0, 1.0, 2.0),
        reads_per_sample=8,
        seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestExperimentIntegration:
    @pytest.mark.parametrize("store_text,scenario_text", [
        (EVENT_STORE, "cdn_churn:tenants=3,seed=5"),
        (None, "log_ingest:tenants=2,seed=5"),
    ])
    def test_tenant_counts_sum_to_global(self, store_text, scenario_text):
        spec = (StoreSpec.parse(store_text) if store_text
                else StoreSpec("filesystem", volume_bytes=48 * MB))
        runner = ExperimentRunner(_experiment(spec, scenario_text))
        result = runner.run()
        runner.scenario_state.check_invariants(runner.store)
        aged = [s for s in result.samples if s.age > 0]
        assert aged, "no aged samples"
        for sample in aged:
            assert sample.scenario_lat, "missing interval summary"
            assert sample.tenant_lat, "missing per-tenant summaries"
            assert sum(t["count"] for t in sample.tenant_lat.values()) \
                == sample.scenario_lat["count"]
        # The age-0 sample precedes any churn: no interval to report.
        assert result.samples[0].scenario_lat == {}

    def test_scenario_runs_are_deterministic(self):
        cfg = _experiment(StoreSpec.parse(EVENT_STORE),
                          "cdn_churn:tenants=3,seed=5", ages=(0.0, 1.0))
        assert run_experiment(cfg).to_dict() \
            == run_experiment(cfg).to_dict()

    def test_config_derives_sizes_and_labels_from_scenario(self):
        cfg = _experiment(StoreSpec.parse(EVENT_STORE),
                          "cdn_churn:tenants=3,seed=5")
        assert cfg.sizes is not None
        assert "cdn_churn:seed=5,tenants=3" in cfg.display_label()
        assert cfg.to_dict()["scenario"]["name"] == "cdn_churn"

    def test_result_serializes_with_tenant_summaries(self, tmp_path):
        cfg = _experiment(StoreSpec.parse(EVENT_STORE),
                          "cdn_churn:tenants=3,seed=5", ages=(0.0, 1.0))
        result = run_experiment(cfg)
        path = tmp_path / "out.json"
        result.save(path)
        blob = json.loads(path.read_text())
        last = blob["samples"][-1]
        assert last["tenant_lat"]
        assert sum(t["count"] for t in last["tenant_lat"].values()) \
            == last["scenario_lat"]["count"]
