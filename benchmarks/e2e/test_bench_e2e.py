"""Self-test of the whole-run benchmark (collected by the tier-1 command).

One ``--smoke --repeats 1`` run of the real command checks that every
metric is reported with its unit on every workload it applies to; the
rest are unit tests of the tracer, the golden diff and ``--compare``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import bench_e2e
from e2e_tracer import CALLS, INCL_S, ITEMS, SELF_S, Tracer, instrument

HERE = Path(__file__).resolve().parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def run_command(*args: str, cwd: Path = bench_e2e.ROOT,
                script: Path = HERE / "bench_e2e.py"):
    env = dict(os.environ, PYTHONPATH=str(bench_e2e.SRC))
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run_command("--smoke", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


class TestSmokeRun:
    def test_every_metric_present_with_its_unit(self, smoke):
        _stdout, doc = smoke
        assert set(doc["workloads"]) == set(bench_e2e.WORKLOADS)
        for name, summary in doc["workloads"].items():
            for metric in bench_e2e.END_TO_END:
                applies = metric.only is None or name in metric.only
                assert (metric.name in summary["end_to_end"]) == applies
                if applies:
                    entry = summary["end_to_end"][metric.name]
                    assert entry["unit"] == metric.unit
                    assert entry["bound"] == metric.bound
            for metric, (unit, _better, _exact) in \
                    bench_e2e.per_layer_spec().items():
                assert summary["per_layer"][metric]["unit"] == unit
            for metric in (*summary["end_to_end"], *summary["per_layer"]):
                assert NAME_RE.fullmatch(metric)

    def test_printed_as_workload_metric_value_unit(self, smoke):
        stdout, doc = smoke
        printed = {tuple(line.split()[:2]) for line in stdout.splitlines()
                   if len(line.split()) == 4 and not line.startswith("#")}
        for name, summary in doc["workloads"].items():
            for metric in (*summary["end_to_end"], *summary["per_layer"]):
                assert (name, metric) in printed

    def test_checks_hold(self, smoke):
        _stdout, doc = smoke
        for summary in doc["workloads"].values():
            assert summary["failures"] == []
            assert summary["traced_record_sha256"] == summary["record_sha256"]
            assert summary["end_to_end"]["failed_ops"]["value"] == 0
            assert summary["ops_attempted"] >= 1

    def test_self_times_fit_in_the_traced_region(self, smoke):
        _stdout, doc = smoke
        for summary in doc["workloads"].values():
            layers = summary["per_layer"]
            total = sum(layers[f"{layer}.self_s"]["value"]
                        for layer in bench_e2e.LAYERS)
            assert 0.0 < total <= summary["traced_timed_s"]
            assert layers["core.op_spans"]["value"] == summary["ops_attempted"]

    def test_workloads_separate_the_layers(self, smoke):
        """Even at smoke scale the layer a workload exists for shows up
        there and is absent from a workload that bypasses it."""
        _stdout, doc = smoke
        share = {name: {layer: s["per_layer"][f"{layer}.self_share"]["value"]
                        for layer in bench_e2e.LAYERS}
                 for name, s in doc["workloads"].items()}
        assert share["fs_small_churn"]["alloc"] > 0.10
        assert share["db_large_churn"]["alloc"] == 0.0
        assert share["db_large_churn"]["db"] > 0.10
        assert share["sharded_event_cdn"]["scenario"] > 0.10
        assert share["fs_small_churn"]["scenario"] == 0.0
        assert share["ckpt_delta_resume"]["persist"] > 0.10
        assert share["sharded_event_cdn"]["persist"] == 0.0

    def test_host_is_recorded(self, smoke):
        _stdout, doc = smoke
        assert {"nproc", "python", "loadavg"} <= set(doc["host"])


def test_refuses_to_run_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark's own files the command
    exits non-zero without printing a result."""
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "__pycache__", ".work"))
    proc = run_command("--workload", "fs_small_churn", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path,
                       script=copy / "bench_e2e.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_the_command_reports():
    path = bench_e2e.ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this checkout")
    doc = json.loads(path.read_text())
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(bench_e2e.WORKLOADS)
    by_name = {m.name: m for m in bench_e2e.END_TO_END}
    assert [m["name"] for m in doc["end_to_end"]] == \
        list(bench_e2e.CONTRACT_END_TO_END)
    for entry in doc["end_to_end"]:
        metric = by_name[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (metric.unit, metric.better, metric.bound)
    expected = {name: unit for name, (unit, _b, _e)
                in bench_e2e.per_layer_spec().items()}
    expected.update({name: by_name[name].unit for name in bench_e2e.MODELLED})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == expected


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


class TestTracer:
    def test_self_time_is_inclusive_minus_children(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def leaf():
            clock.spend(2.0)

        leaf = tracer.wrap(leaf, "low", "leaf")

        def helper():  # not an entry point: charged to whoever calls it
            clock.spend(0.5)

        def root():
            clock.spend(1.0)
            leaf()
            helper()
            leaf()

        root = tracer.wrap(root, "high", "root")
        root()
        assert tracer.get("low", "leaf")[:3] == [2, 4.0, 4.0]
        assert tracer.get("high", "root")[:3] == [1, 1.5, 5.5]
        totals = tracer.layer_totals()
        assert sum(t["self_s"] for t in totals.values()) == clock.now

    def test_recursion_is_not_double_counted(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def fact(n):
            clock.spend(1.0)
            return 1 if n <= 1 else n * fact(n - 1)

        fact = tracer.wrap(fact, "math", "fact")
        assert fact(4) == 24
        rec = tracer.get("math", "fact")
        assert rec[CALLS] == 4
        assert rec[SELF_S] == 4.0  # == wall time, not 4+3+2+1
        assert rec[INCL_S] == 10.0

    def test_exception_still_closes_the_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def boom():
            clock.spend(1.0)
            raise ValueError("x")

        def outer():
            try:
                boom()
            except ValueError:
                clock.spend(1.0)

        boom = tracer.wrap(boom, "a", "boom")
        outer = tracer.wrap(outer, "b", "outer")
        outer()
        assert tracer.get("a", "boom")[SELF_S] == 1.0
        assert tracer.get("b", "outer")[SELF_S] == 1.0

    def test_wrapped_generator_counts_yields_and_charges_producer(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def produce(n):
            for i in range(n):
                clock.spend(1.0)
                yield i

        produce = tracer.wrap_iter(produce, "producer", "produce")

        def consume():
            total = 0
            for item in produce(5):
                clock.spend(0.25)
                total += item
                if item == 2:
                    break  # abandon early: nothing may stay open
            return total

        consume = tracer.wrap(consume, "consumer", "consume")
        assert consume() == 3
        rec = tracer.get("producer", "produce")
        assert (rec[CALLS], rec[ITEMS], rec[SELF_S]) == (1, 3, 3.0)
        assert tracer.get("consumer", "consume")[SELF_S] == 0.75
        assert list(produce(2)) == [0, 1]
        assert tracer.get("producer", "produce")[ITEMS] == 5

    def test_only_outermost_kept_span_is_kept(self):
        tracer = Tracer(clock=FakeClock())
        inner = tracer.wrap(lambda: None, "leaf", "Leaf.put", keep=True)
        outer = tracer.wrap(inner, "top", "Top.put", keep=True)
        outer()
        inner()
        assert [name for name, _s, _e in tracer.spans] == \
            ["Top.put", "Leaf.put"]

    def test_reset_zeroes_the_aggregates(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tick = tracer.wrap(lambda: clock.spend(1.0), "l", "tick")
        tick()
        tracer.reset()
        tick()
        assert tracer.get("l", "tick")[:2] == [1, 1.0]

    @pytest.mark.parametrize("raises", [False, True])
    def test_patches_are_restored_identically(self, raises):
        from repro.core import experiment, workload
        from repro.struct.blockedlist import BlockedList

        def snapshot():
            return (BlockedList.__dict__["insert"],
                    BlockedList.__dict__["iter_desc"],
                    workload.churn_step, experiment.bulk_load,
                    experiment.encode_free_index, experiment.pickle)

        originals = snapshot()
        tracer = Tracer()
        counters: dict[str, int] = {}
        try:
            with tracer.installed(partial(instrument, counters=counters)):
                patched = snapshot()
                assert all(a is not b for a, b in zip(originals, patched))
                # ``from x import f`` copies are patched with one wrapper.
                assert experiment.bulk_load is workload.bulk_load
                blist = BlockedList()
                blist.insert(3)
                assert list(blist.iter_desc()) == [3]
                if raises:
                    raise RuntimeError("traced run died")
        except RuntimeError:
            assert raises
        assert all(a is b for a, b in zip(originals, snapshot()))
        assert tracer.get("struct", "BlockedList.insert")[CALLS] == 1
        assert tracer.get("struct", "BlockedList.iter_desc")[ITEMS] == 1


# ----------------------------------------------------------------------
# Golden diff and --compare
# ----------------------------------------------------------------------
def test_first_difference_names_the_field_path():
    golden = {"samples": [{"age": 0.0, "read_mbps": 1.5},
                          {"age": 2.0, "read_mbps": 1.25}], "label": "x"}
    assert bench_e2e.first_difference(golden, json.loads(
        json.dumps(golden))) is None
    got = json.loads(json.dumps(golden))
    got["samples"][1]["read_mbps"] = 1.26
    assert bench_e2e.first_difference(golden, got) == \
        "samples[1].read_mbps: expected 1.25 != got 1.26"
    got["samples"].pop()
    assert bench_e2e.first_difference(golden, got) == \
        "samples: length 2 != 1"


def _doc(ops: float, frags: float, sha: str = "a" * 64) -> dict:
    def entry(name: str, value: float) -> dict:
        metric = {m.name: m for m in bench_e2e.END_TO_END}[name]
        return {"value": value, "unit": metric.unit, "better": metric.better,
                "bound": metric.bound}
    return {"workloads": {"fs_small_churn": {
        "record_sha256": sha,
        "end_to_end": {
            "sim_ops_per_host_s": entry("sim_ops_per_host_s", ops),
            "modelled_frags_per_object":
                entry("modelled_frags_per_object", frags),
            "failed_ops": entry("failed_ops", 0)},
        "per_layer": {"struct.calls": {"value": 10, "unit": "count",
                                       "better": "lower", "exact": True}},
    }}}


@pytest.mark.parametrize("other, code, word", [
    (_doc(1000.0, 3.0), 0, "ok"),
    (_doc(950.0, 3.0), 0, "ok"),                    # -5 %: inside 10 %
    (_doc(890.0, 3.0), 1, "worse"),                 # -11 %
    (_doc(1000.0, 3.0000001), 1, "exact-mismatch"),  # modelled must repeat
    (_doc(1000.0, 3.0, sha="b" * 64), 1, "exact-mismatch"),
])
def test_compare_judges_by_the_bounds(tmp_path, capsys, other, code, word):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc(1000.0, 3.0)))
    b.write_text(json.dumps(other))
    assert bench_e2e.main(["--compare", str(a), str(b)]) == code
    out = capsys.readouterr().out
    assert word in out
    assert "B/A" in out and "10%" in out
