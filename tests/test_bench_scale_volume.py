"""``benchmarks/bench_store_scenarios.py``: the figure table and AgedStore.

The committed record is held to a recomputation by
``tests/test_paperfig.py``; here the module's own pieces are held to the
committed record, which costs no aging run.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.backends.spec import StoreSpec
from repro.units import KB, MB

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))
import bench_store_scenarios as bench  # noqa: E402
import paperfig  # noqa: E402

COMMITTED = json.loads((BENCH / "BENCH_paper.json").read_text())["figures"]
LAT_FIELDS = {"lat_count", "lat_p50_ms", "lat_p95_ms", "lat_p99_ms",
              "lat_max_ms"}


def committed_results(name: str) -> dict:
    """What ``compute`` returned for the committed run: the modelled
    rows with their host-time cells put back."""
    entry = COMMITTED[name]
    rows = zip(entry["modelled"]["rows"], entry["host"]["rows"], strict=True)
    return {**entry["modelled"],
            "rows": [{**row, **host} for row, host in rows]}


class TestScenarioTable:
    """The class and its six tests keep the names they had over the
    retired ``SCENARIOS`` table: the ids are in the tier-1 floor."""

    def test_every_entry_produced_rows(self):
        assert list(bench.FIGURES) == list(paperfig.FIGURES)[-6:]
        for name in bench.FIGURES:
            assert COMMITTED[name]["modelled"]["rows"], name

    def test_rows_carry_their_entrys_columns(self):
        for name, figure in bench.FIGURES.items():
            results = committed_results(name)
            table = figure.render(results).splitlines()
            assert table[0] == name
            assert len(table) == 4 + len(results["rows"])

    def test_speedups_are_the_declared_ones(self):
        """Every entry's checks, recomputed from its committed rows, are
        the committed checks — the three figures too slow for tier-1 to
        age included."""
        for name, figure in bench.FIGURES.items():
            checks = {key: paperfig.check_record(check) for key, check
                      in figure.checks(committed_results(name)).items()}
            assert json.loads(json.dumps(checks)) \
                == COMMITTED[name]["checks"], name

    def test_config_is_assembled_from_the_entries(self):
        figure = bench.figure(
            "demo", lambda: [{"phase": "a", "wall_s": 1.5, "host_seconds": 9}],
            params={"depth": 64}, table=("phase", "wall_s:.2f"),
            checks=lambda rows: {"wall": bench.ratio_check(
                "wall", rows[0]["wall_s"], 1.0)})
        results = figure.compute(None)
        assert paperfig.modelled(results) == {
            "params": {"depth": 64}, "rows": [{"phase": "a", "wall_s": 1.5}]}
        assert paperfig.host_rows(results) == [{"host_seconds": 9}]
        assert figure.render(results).splitlines()[-1] == "    a    1.50"
        assert figure.checks(results)["wall"].value == 1.5

    def test_retired_scenarios_and_flags_are_gone(self, capsys):
        for name in ("segment_store", "batched_writes", "checkpoint_resume"):
            assert name not in paperfig.FIGURES
        for flag in ("--segments", "--requests", "--batch", "--volumes"):
            with pytest.raises(SystemExit):
                paperfig.main([flag, "8", "--only", "shard_skew"])
        capsys.readouterr()

    def test_unknown_scenario_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            paperfig.main(["--only", "shard_skew,nope"])
        assert exit_info.value.code == 2
        assert "no figure named nope" in capsys.readouterr().err


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
