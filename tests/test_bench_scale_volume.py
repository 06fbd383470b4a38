"""``benchmarks/bench_scale_volume.py``: the scenario table and AgedStore."""

import json
import sys
from pathlib import Path

import pytest

from repro.backends.spec import StoreSpec
from repro.units import KB, MB

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import bench_scale_volume as bench  # noqa: E402

LAT_FIELDS = {"lat_count", "lat_p50_ms", "lat_p95_ms", "lat_p99_ms",
              "lat_max_ms"}


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One ``--quick`` run of every scenario through ``main()``."""
    out = tmp_path_factory.mktemp("bench") / "scale.json"
    assert bench.main(["--quick", "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestScenarioTable:
    def test_every_entry_produced_rows(self, quick_report):
        seen = {row["scenario"] for row in quick_report["results"]}
        assert seen == set(bench.SCENARIOS)

    def test_rows_carry_their_entrys_columns(self, quick_report):
        for row in quick_report["results"]:
            entry = bench.SCENARIOS[row["scenario"]]
            declared = {column.partition(":")[0] for column in entry.table}
            assert declared <= row.keys(), row["scenario"]

    def test_speedups_are_the_declared_ones(self, quick_report):
        declared = {key for entry in bench.SCENARIOS.values()
                    for key in entry.speedups}
        # At this size every extractor has a positive divisor.
        assert set(quick_report["speedups"]) == declared

    def test_config_is_assembled_from_the_entries(self, quick_report):
        expected = {}
        for entry in bench.SCENARIOS.values():
            expected.update(entry.params)
        expected["scenarios"] = list(bench.SCENARIOS)
        assert quick_report["config"] == json.loads(json.dumps(expected))

    def test_retired_scenarios_and_flags_are_gone(self, capsys):
        for name in ("segment_store", "batched_writes", "checkpoint_resume"):
            assert name not in bench.SCENARIOS
        for flag in ("--segments", "--requests", "--batch"):
            with pytest.raises(SystemExit):
                bench.main([flag, "8", "--scenarios", "fs_churn"])
        capsys.readouterr()

    def test_unknown_scenario_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--scenarios", "nope"])
        assert exit_info.value.code == 2
        assert "unknown scenario 'nope'" in capsys.readouterr().err


def small_spec(**overrides) -> StoreSpec:
    return StoreSpec("lfs", volume_bytes=64 * MB, shards=3, overlap=True,
                     **overrides)


class TestAgedStore:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_load_stops_at_occupancy_over_replicas(self, replicas):
        aged = bench.AgedStore(small_spec(replicas=replicas), seed=1)
        aged.load()
        target = int(64 * MB * bench.OCCUPANCY) // replicas
        assert len(aged.keys) == target // bench.AGING_OBJECT
        assert aged.keys == aged.store.keys()

    def test_load_takes_the_sizes_it_is_given(self):
        aged = bench.AgedStore(small_spec(), seed=1)
        aged.load(iter([1 * MB, 2 * MB, 64 * MB, 1 * MB]), occupancy=0.25)
        # 64 MB would pass the 16 MB target: the load stops there.
        assert [aged.store.meta(k).size for k in aged.keys] == [1 * MB, 2 * MB]

    def test_churn_overwrites_at_the_objects_own_size(self):
        aged = bench.AgedStore(small_spec(), seed=1)
        aged.load(iter([1 * MB, 512 * KB, 64 * MB]))
        aged.churn(3)
        assert [aged.store.meta(k).size for k in aged.keys] \
            == [1 * MB, 512 * KB]

    def test_calibration_divides_by_the_exact_wall(self):
        aged = bench.AgedStore(small_spec(queue="event"), seed=5)
        aged.load()
        aged.calibrate(0.5)
        exact = aged.last_window.wall_time_s
        assert aged.closed_wall_s == exact != round(exact, 4)
        assert aged.rate == 0.5 * len(aged.keys) / exact
        assert aged.arrival == f"poisson:rate={aged.rate:g}:seed=5"

    def test_calibration_raises_on_zero_wall(self):
        aged = bench.AgedStore(small_spec(queue="event"), seed=5)
        with pytest.raises(AssertionError, match="no wall time"):
            aged.calibrate(0.5)  # nothing loaded: an empty sweep

    def test_event_sweep_reports_latency(self):
        aged = bench.AgedStore(small_spec(queue="event"), seed=5)
        aged.load()
        measures = aged.sweep("phase", per_object=True)
        assert LAT_FIELDS <= measures.keys()
        assert measures["lat_count"] == measures["sweep_reads"] \
            == len(aged.keys)
        aged.check_books()

    @pytest.mark.parametrize("spec", [
        small_spec(),
        StoreSpec("lfs", volume_bytes=64 * MB),
    ], ids=["round-scheduler", "no-scheduler"])
    def test_non_event_sweep_reports_no_latency(self, spec):
        aged = bench.AgedStore(spec, seed=5)
        aged.load()
        measures = aged.sweep("phase")
        assert list(measures) == ["sweep_reads", "sweep_host_seconds",
                                  "sweep_device_s", "sweep_wall_s"]
        assert measures["sweep_reads"] == len(aged.keys)
        if aged.sched is None:
            assert measures["sweep_wall_s"] == measures["sweep_device_s"]
        else:
            assert 0 < measures["sweep_wall_s"] <= measures["sweep_device_s"]

    def test_counters_report_failover_deltas(self):
        aged = bench.AgedStore(small_spec(replicas=2), seed=5)
        aged.load()
        assert aged.sweep("healthy", counters=True)["failovers"] == 0
        aged.store.fail_shard(1)
        degraded = aged.sweep("degraded", counters=True)
        assert degraded["failovers"] == degraded["degraded_reads"] > 0
        slices = list(aged.rebuild_slices(max_objects=4))
        assert slices and not aged.store.under_replicated()
