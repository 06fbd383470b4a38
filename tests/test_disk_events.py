"""Unit tests for the event-driven shard queue simulator.

Three families:

* :class:`ArrivalSpec` grammar — parse/round-trip/validation, and the
  deterministic arrival substream.
* :class:`LatencyHistogram` — the streaming estimator against exact
  sorted-sample nearest-rank percentiles on adversarial distributions
  (bimodal, single-sample, all-equal), pinned to the documented
  relative-error bound, plus monotonicity and clamping.
* :class:`EventScheduler` behaviour — closed-mode reduction, poisson
  queueing/blocking (depth, clients), drain, stalls, and mode
  switching.
"""

import math
import pickle
import random

import pytest

from repro.backends.spec import StoreSpec
from repro.disk.events import (
    ARRIVAL_MODES,
    HIST_REL_ERROR,
    ArrivalSpec,
    EventScheduler,
    EventWindow,
    LatencyHistogram,
)
from repro.disk.schedule import ShardScheduler
from repro.errors import ConfigError


def exact_percentile(values, q):
    """Nearest-rank percentile over the sorted sample (the reference)."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class TestArrivalSpec:
    def test_parse_closed(self):
        spec = ArrivalSpec.parse("closed")
        assert spec.mode == "closed"
        assert spec.text() == "closed"

    def test_parse_poisson_full(self):
        spec = ArrivalSpec.parse("poisson:rate=2e3:clients=16:seed=9")
        assert spec.rate == 2e3
        assert spec.clients == 16
        assert spec.seed == 9
        assert ArrivalSpec.parse(spec.text()) == spec

    def test_comma_and_colon_are_interchangeable(self):
        a = ArrivalSpec.parse("poisson:rate=100,clients=4")
        b = ArrivalSpec.parse("poisson,rate=100:clients=4")
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("uniform")
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("poisson")  # needs a rate
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("poisson:rate=0")
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("poisson:rate=nope")
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("poisson:rate=10:burst=2")
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("closed:rate=10")
        assert "closed" in ARRIVAL_MODES and "poisson" in ARRIVAL_MODES

    def test_closed_rejects_seed_and_clients_too(self):
        """``closed:seed=7`` used to parse silently; closed arrivals
        have no arrival RNG for a seed to feed, so the grammar must
        reject every parameter, not just rate."""
        with pytest.raises(ConfigError,
                           match="closed arrivals take no"):
            ArrivalSpec.parse("closed:seed=7")
        with pytest.raises(ConfigError,
                           match="closed arrivals take no"):
            ArrivalSpec.parse("closed:clients=4")

    def test_arrival_stream_is_deterministic(self):
        spec = ArrivalSpec.parse("poisson:rate=100:seed=3")
        a = [spec.make_rng().expovariate(spec.rate) for _ in range(4)]
        b = [spec.make_rng().expovariate(spec.rate) for _ in range(4)]
        assert a == b
        other = ArrivalSpec.parse("poisson:rate=100:seed=4").make_rng()
        assert [other.expovariate(spec.rate) for _ in range(4)] != a


class TestLatencyHistogram:
    def test_single_sample_is_exact(self):
        hist = LatencyHistogram()
        hist.record(0.0123)
        for q in (0, 50, 95, 99, 100):
            assert hist.percentile(q) == 0.0123
        assert hist.max_s == 0.0123
        assert hist.count == 1

    def test_all_equal_is_exact(self):
        hist = LatencyHistogram()
        for _ in range(1000):
            hist.record(0.004)
        for q in (1, 50, 99):
            assert hist.percentile(q) == 0.004

    def test_bimodal_within_documented_error(self):
        # Half a millisecond, half a second: the p50 boundary sits
        # exactly between the modes, the worst case for a bucketed
        # estimator.
        values = [1e-3] * 500 + [1.0] * 500
        hist = LatencyHistogram()
        for v in values:
            hist.record(v)
        for q in (10, 50, 50.1, 90, 99, 100):
            exact = exact_percentile(values, q)
            estimate = hist.percentile(q)
            assert abs(estimate - exact) <= HIST_REL_ERROR * exact

    def test_random_samples_within_documented_error(self):
        rng = random.Random(11)
        values = [rng.lognormvariate(-6.0, 1.5) for _ in range(2000)]
        hist = LatencyHistogram()
        for v in values:
            hist.record(v)
        for q in (1, 25, 50, 75, 95, 99, 99.9):
            exact = exact_percentile(values, q)
            assert abs(hist.percentile(q) - exact) <= HIST_REL_ERROR * exact

    def test_percentiles_are_monotone_and_clamped(self):
        rng = random.Random(5)
        hist = LatencyHistogram()
        for _ in range(500):
            hist.record(rng.expovariate(100.0))
        estimates = [hist.percentile(q) for q in range(0, 101, 5)]
        assert estimates == sorted(estimates)
        assert estimates[0] >= hist.min_s
        assert estimates[-1] <= hist.max_s

    def test_zero_and_negative_clamp_to_zero_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(-1.0)
        assert hist.count == 2
        assert hist.percentile(50) == 0.0
        assert hist.max_s == 0.0

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.mean_s == 0.0
        assert hist.summary()["count"] == 0
        with pytest.raises(ConfigError):
            hist.percentile(101)

    def test_summary_fields(self):
        hist = LatencyHistogram()
        for v in (0.001, 0.002, 0.003):
            hist.record(v)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["max_s"] == 0.003
        assert summary["p50_s"] <= summary["p95_s"] <= summary["p99_s"]


class TestClosedMode:
    def test_reduces_to_round_makespan(self):
        event = EventScheduler(4, parallelism=2)
        base = ShardScheduler(parallelism=2)
        rounds = [[0.3, 0.1, 0.2, 0.05], [0.0, 0.0], [1.0], [0.4, 0.4]]
        for lanes in rounds:
            event.record_round(lanes, indices=range(len(lanes)))
            base.record_round(lanes)
        assert event.wall_time_s == base.wall_time_s
        assert event.lane_time_s == base.lane_time_s
        assert event.rounds == base.rounds

    def test_latency_without_queueing_is_the_service_time(self):
        # parallelism=0: one worker per lane, so nothing ever waits
        # and every sojourn is its lane's service time.
        event = EventScheduler(3, parallelism=0)
        event.record_round([0.2, 0.5, 0.1], indices=(0, 1, 2))
        assert event.latency.count == 3
        assert event.latency.max_s == 0.5
        assert event.submitted == event.completed == 3

    def test_serial_latency_accumulates_queueing(self):
        # parallelism=1 serializes the round longest-first; the last
        # (shortest) lane's sojourn is the whole round.
        event = EventScheduler(3, parallelism=1)
        event.record_round([0.2, 0.5, 0.1], indices=(0, 1, 2))
        assert event.latency.max_s == pytest.approx(0.8)
        assert event.wall_time_s == pytest.approx(0.8)

    def test_windows_carry_histograms(self):
        event = EventScheduler(2)
        win = event.start_window("phase")
        assert isinstance(win, EventWindow)
        event.record_round([0.1, 0.2], indices=(0, 1))
        event.end_window(win)
        assert win.latency.count == 2
        event.record_round([0.3], indices=(0,))
        assert win.latency.count == 2       # closed windows stop
        assert event.latency.count == 3     # cumulative keeps going


class TestPoissonMode:
    def make(self, rate=100.0, **kw):
        return EventScheduler(
            2, arrival=ArrivalSpec.parse(f"poisson:rate={rate}"), **kw)

    def test_conserves_requests_and_lane_time(self):
        sched = self.make()
        for _ in range(10):
            sched.record_round([0.001, 0.002], indices=(0, 1))
        sched.drain()
        assert sched.submitted == sched.completed == 20
        assert sched.latency.count == 20
        assert sched.lane_time_s == pytest.approx(10 * 0.003)
        assert sched.in_flight == 0  # queued requests are in flight too

    def test_saturation_grows_the_tail(self):
        # Service 10x the mean inter-arrival: queues must build and
        # late sojourns dwarf early ones.
        fast = self.make(rate=1000.0)
        slow_service = 0.01
        for _ in range(50):
            fast.record_round([slow_service], indices=(0,))
        fast.drain()
        assert fast.latency.max_s > 10 * slow_service
        assert fast.latency.percentile(99) > fast.latency.percentile(50)

    def test_bounded_depth_blocks_and_bounds_the_queue(self):
        sched = EventScheduler(
            1, depth=4, arrival=ArrivalSpec.parse("poisson:rate=1e6"))
        for _ in range(100):
            sched.record_round([0.01], indices=(0,))
        assert sched.max_queue_depth <= 4
        sched.drain()
        assert sched.completed == 100

    def test_client_cap_bounds_in_flight(self):
        sched = EventScheduler(
            2, arrival=ArrivalSpec.parse("poisson:rate=1e6:clients=3"),
            depth=0)
        peak = 0
        for _ in range(50):
            sched.record_round([0.01, 0.01], indices=(0, 1))
            peak = max(peak, sched.in_flight)
        assert peak <= 3
        sched.drain()
        assert sched.completed == 100

    def test_worker_cap_serializes_across_shards(self):
        # Two shards but one global worker: the second request's shard
        # is idle, yet it must wait for the first request's completion
        # to free the worker — its start is the worker's free time,
        # not its enqueue time.
        sched = EventScheduler(2, parallelism=1,
                               arrival=ArrivalSpec.parse("poisson:rate=1e9"))
        sched.record_round([10.0], indices=(0,))
        sched.record_round([2.0], indices=(1,))
        sched.drain()
        # Arrivals are ~nanoseconds apart, so the run serializes:
        # wall covers both services, and the second request's sojourn
        # is almost the entire 12 s, not just its own 2 s service.
        assert sched.wall_time_s == pytest.approx(12.0, abs=1e-3)
        assert sched.latency.max_s == pytest.approx(12.0, abs=1e-3)

    def test_worker_cap_bounds_concurrency_on_the_timeline(self):
        # Four shards, two workers, six equal requests arriving at
        # once: the timeline can never hold more than two in service,
        # so the wall is at least total service / cap.
        sched = EventScheduler(4, parallelism=2,
                               arrival=ArrivalSpec.parse("poisson:rate=1e9"))
        for i in range(6):
            sched.record_round([1.0], indices=(i % 4,))
        sched.drain()
        assert sched.wall_time_s >= 3.0 - 1e-6

    def test_wall_time_is_the_completion_frontier(self):
        sched = self.make(rate=10.0)
        sched.record_round([0.5], indices=(0,))
        sched.drain()
        # Arrival happened at some t > 0; wall = completion frontier
        # must cover arrival + service.
        assert sched.wall_time_s > 0.5

    def test_stalls_overlap_the_queue_frontier(self):
        sched = self.make(rate=100.0)
        sched.record_round([0.01], indices=(0,))
        wall_before = sched.wall_time_s
        sched.record_stall(100.0)
        assert sched.wall_time_s == pytest.approx(wall_before + 100.0)
        # The stall pushed the charged frontier past every pending
        # completion, so draining adds no extra wall time.
        sched.drain()
        assert sched.wall_time_s == pytest.approx(wall_before + 100.0)

    def test_end_window_drains_in_flight_work(self):
        sched = self.make(rate=50.0)
        win = sched.start_window("sweep")
        for _ in range(5):
            sched.record_round([0.01, 0.02], indices=(0, 1))
        assert sched.in_flight > 0
        sched.end_window(win)
        assert sched.in_flight == 0
        assert win.latency.count == 10

    def test_a_refused_end_window_neither_drains_nor_pops(self):
        sched = self.make(rate=50.0)
        phase = sched.start_window("phase")
        stale = sched.start_window("stale")
        sched.end_window(stale)
        for _ in range(2):
            sched.record_round([0.01, 0.02], indices=(0, 1))
        in_flight, wall = sched.in_flight, sched.wall_time_s
        assert in_flight > 0
        with pytest.raises(ValueError, match="'stale' is not open"):
            sched.end_window(stale)
        assert (sched.in_flight, sched.wall_time_s) == (in_flight, wall)
        sched.end_window(phase)
        assert phase.latency.count == 4
        assert phase.wall_time_s == sched.wall_time_s

    def test_set_arrival_switches_modes(self):
        sched = EventScheduler(2)
        sched.record_round([0.1, 0.2], indices=(0, 1))
        closed_wall = sched.wall_time_s
        sched.set_arrival(ArrivalSpec.parse("poisson:rate=100"))
        sched.record_round([0.01, 0.01], indices=(0, 1))
        sched.drain()
        assert sched.wall_time_s > closed_wall
        assert sched.latency.count == 4

    def test_identical_seeds_reproduce_identical_runs(self):
        def run():
            sched = EventScheduler(
                2, arrival=ArrivalSpec.parse("poisson:rate=300:seed=5"),
                depth=8)
            for i in range(30):
                sched.record_round([0.001 * (1 + i % 3)],
                                   indices=(i % 2,))
            sched.drain()
            return (sched.wall_time_s, sched.latency.summary())
        assert run() == run()

    def test_pickle_round_trip_mid_flight(self):
        sched = self.make(rate=50.0)
        for _ in range(5):
            sched.record_round([0.01, 0.03], indices=(0, 1))
        assert sched.in_flight > 0
        clone = pickle.loads(pickle.dumps(sched))
        sched.drain()
        clone.drain()
        assert clone.wall_time_s == sched.wall_time_s
        assert clone.latency.summary() == sched.latency.summary()

    def test_validation(self):
        with pytest.raises(ConfigError):
            StoreSpec("lfs", shards=0, overlap=True, queue="event")
        with pytest.raises(ConfigError):
            StoreSpec("lfs", shards=2, overlap=True, queue="event",
                      queue_depth=-1)
        with pytest.raises(ConfigError):
            ArrivalSpec.parse("poisson")


class TestStallArrivalContract:
    """Pin the stall/arrival timeline contract (module docstring).

    A stall advances the charged frontier by exactly its duration
    (completions already on the timeline overlap with it), and pulls
    the arrival cursor up to that frontier: the submitting driver was
    asleep for the stall, so no request it submits afterwards can have
    "arrived" mid-stall.
    """

    def backlogged(self) -> EventScheduler:
        """One lane, near-instant arrivals, ten seconds of backlog."""
        sched = EventScheduler(
            1, arrival=ArrivalSpec.parse("poisson:rate=1e6"), depth=0)
        for _ in range(10):
            sched.record_round([1.0], indices=(0,))
        return sched

    def test_stall_pulls_the_cursor_to_the_charged_frontier(self):
        sched = self.backlogged()
        # Before the stall the cursor trails far behind where the
        # frontier will land; afterwards they coincide exactly.
        assert sched._arrival_cursor < 1e-3
        sched.record_stall(50.0)
        assert sched._arrival_cursor == sched._charged
        assert sched._charged == pytest.approx(sched.wall_time_s)

    def test_arrivals_after_a_stall_do_not_backdate(self):
        """A request submitted after a stall arrives after it: its
        sojourn is its own service, not the pre-stall backlog it never
        saw.  (Before the fix the cursor stayed behind the frontier and
        the post-stall request inherited ~10 s of phantom queueing.)"""
        sched = self.backlogged()
        sched.record_stall(20.0)
        sched.drain()
        win = sched.start_window("after-stall")
        sched.record_round([0.5], indices=(0,))
        sched.end_window(win)
        assert win.latency.count == 1
        assert win.latency.max_s == pytest.approx(0.5, rel=1e-3)

    def test_backlog_straddling_a_stall_is_not_double_counted(self):
        """Completions pending when the stall lands sit inside the
        stall window: wall grows by exactly the stall, the sojourns
        keep their queueing chain, and the books still balance."""
        sched = self.backlogged()
        wall_before = sched.wall_time_s
        sched.record_stall(30.0)  # longer than the ~10 s backlog
        assert sched.wall_time_s == pytest.approx(wall_before + 30.0)
        sched.drain()  # straddling completions overlap the stall
        assert sched.wall_time_s == pytest.approx(wall_before + 30.0)
        assert sched.submitted == sched.completed == 10
        assert sched.latency.count == 10
        # The backlog's queueing chain survives: the last request
        # still waited behind nine 1 s services.
        assert sched.latency.max_s > 9.0

    def test_zero_and_negative_stalls_are_ignored(self):
        sched = self.backlogged()
        wall = sched.wall_time_s
        cursor = sched._arrival_cursor
        sched.record_stall(0.0)
        sched.record_stall(-1.0)
        assert sched.wall_time_s == wall
        assert sched._arrival_cursor == cursor


class TestBackgroundLane:
    """``record_round(background=True)``: driver bursts, not arrivals.

    Background rounds share the shard queues but enqueue back-to-back
    at the current cursor (no inter-arrival draws) and report into the
    window's ``background_latency``, never its foreground ``latency``.
    """

    def sched(self) -> EventScheduler:
        return EventScheduler(
            2, arrival=ArrivalSpec.parse("poisson:rate=1000:seed=3"),
            depth=0)

    def test_background_rounds_skip_the_arrival_process(self):
        sched = self.sched()
        win = sched.start_window("w")
        cursor = sched._arrival_cursor
        sched.record_round([0.2, 0.3], background=True)
        # No gaps drawn: the open-loop cursor did not move.
        assert sched._arrival_cursor == cursor
        sched.end_window(win)
        assert win.latency.count == 0
        assert win.background_latency.count == 2
        # The lifetime books still count every completion.
        assert sched.submitted == sched.completed == 2
        assert sched.latency.count == 2

    def test_foreground_queues_behind_an_unthrottled_burst(self):
        sched = self.sched()
        sched.record_round([0.5], indices=(0,), background=True)
        win = sched.start_window("fg")
        sched.record_round([0.001], indices=(0,))
        sched.end_window(win)
        # The foreground request arrived ~1 ms into a 500 ms copy
        # burst on its shard and waited the burst out.
        assert win.latency.count == 1
        assert win.latency.max_s > 0.4

    def test_a_stall_moves_foreground_past_the_burst(self):
        sched = self.sched()
        sched.record_round([0.5], indices=(0,), background=True)
        sched.record_stall(0.5)          # duty-cycle pause at R = 0.5
        win = sched.start_window("fg")
        sched.record_round([0.001], indices=(0,))
        sched.end_window(win)
        # The pause carried the arrival cursor past the burst, so the
        # same foreground request now sees an idle shard.
        assert win.latency.count == 1
        assert win.latency.max_s < 0.05


class TestTagSeam:
    """``EventScheduler.tagged``: the block every tenant op opens."""

    def test_an_exception_restores_the_previous_tag(self):
        sched = EventScheduler(2)
        with pytest.raises(RuntimeError):
            with sched.tagged("a"):
                assert sched._tag == "a"
                raise RuntimeError("op failed")
        assert sched._tag is None

    def test_an_exception_in_a_nested_block_restores_each_tag(self):
        sched = EventScheduler(2)
        with sched.tagged("a"):
            with pytest.raises(RuntimeError):
                with sched.tagged("b"):
                    raise RuntimeError("op failed")
            assert sched._tag == "a"
            with pytest.raises(RuntimeError):
                with sched.tagged("c"):
                    with sched.tagged("d"):
                        raise RuntimeError("op failed")
            assert sched._tag == "a"
        assert sched._tag is None

    def test_a_completion_drained_under_another_tenant_keeps_its_tag(self):
        sched = EventScheduler(
            2, arrival=ArrivalSpec.parse("poisson:rate=1000:seed=3"))
        win = sched.start_window("w")
        with sched.tagged("a"):
            sched.record_round([0.5], indices=(0,))
        assert sched.in_flight == 1
        with sched.tagged("b"):
            sched.drain()
        sched.end_window(win)
        for tenants in (sched.tenant_latency, win.tenant_latency):
            assert list(tenants) == ["a"]
            assert tenants["a"].count == 1

    @pytest.mark.parametrize("arrival", ["closed", "poisson:rate=1000:seed=3"])
    def test_a_tagged_block_leaves_no_trace_in_the_pickle(self, arrival):
        sched = EventScheduler(2, arrival=ArrivalSpec.parse(arrival))
        with sched.tagged("a"):
            sched.record_round([0.002], indices=(1,))
        sched.drain()
        before = pickle.dumps(sched)
        with sched.tagged("b"):
            sched.record_round([0.0], indices=(0,))  # an idle op
        assert sched.in_flight == 0
        assert pickle.dumps(sched) == before
