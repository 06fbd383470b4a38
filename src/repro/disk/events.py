"""Event-driven shard queue simulator with per-request tail latency.

The PR 5 overlap model (:mod:`repro.disk.schedule`) is a dispatch-round
makespan: every request in a round finishes together, so there is no
queueing, no contention, and no latency *distribution* — only wall
time.  This module layers an event simulator **under** that model:
each shard owns a FIFO request queue of bounded depth, requests carry
enqueue/dispatch/complete timestamps, and every completion records a
sojourn time (complete − enqueue) into a streaming
:class:`LatencyHistogram`, so measurement windows can report
p50/p95/p99 latency next to summed and overlapped throughput.

Two arrival modes (:class:`ArrivalSpec`, a value the store spec parsed
and checked, like every other argument the scheduler takes):

* ``closed`` (default) — the driver's dispatch rounds *are* the
  arrivals: every lane of a round enqueues at round-local time zero
  and the round *is* a :class:`~repro.disk.schedule.ShardScheduler`
  round — the same :func:`~repro.disk.schedule.lpt_placement` call,
  charged through the same ledger — whose per-lane completion times
  are recorded as sojourns, so the accumulated wall time **equals the
  PR 5 makespan to the float** (the reduction contract the property
  suite pins).  Queueing shows up only when the ``parallelism`` cap
  makes lanes wait for a worker.
* ``poisson:rate=R`` — an open-loop Poisson arrival process
  (deterministic via :func:`repro.rng.substream`) re-times the
  driver's synchronous requests onto a global timeline: arrivals keep
  coming at rate ``R`` whether or not shards keep up, so saturated
  shards build queues and the sojourn tail grows.  ``clients=C``
  bounds the in-flight population (a closed set of clients feeding the
  open-loop process); a full shard FIFO (``depth``) blocks the
  submitter until completions free space, with the blocked-at-the-door
  wait counted into the request's sojourn.

Request lifecycle::

    arrival ──► [shard FIFO, bounded depth] ──► dispatch ──► complete
    enqueue_s                                   dispatch_s    complete_s
       └──────────────── sojourn = complete_s − enqueue_s ───────┘

Dispatch rules: one request in service per shard (a shard is one
device lane), a global worker cap of ``parallelism`` (0 = one worker
per shard, matching the round model), FIFO within a shard and
oldest-first across idle shards when a worker frees.  With a worker
for every shard no request waits for a worker, so a submit or a
completion can start only its own shard's head and dispatch looks at
that shard alone; a capped pool scans every idle shard's head.

Stall/arrival timeline contract
-------------------------------
A stall (retry backoff, rebuild/rebalance/checkpoint throttle pause)
models the *submitting driver* sleeping for that long.  Two rules pin
its timeline semantics:

1. The stall advances the charged wall frontier by exactly its
   duration, so completions already scheduled inside the stall window
   overlap it and add no extra wall time (devices keep working while
   the driver sleeps; nothing is double-charged).
2. The open-loop arrival cursor is advanced to at least the new
   frontier: requests the driver submits *after* the stall cannot
   arrive inside it.  Without this, post-stall arrivals would enqueue
   "in the past" — behind queues the stall was giving time to drain —
   and throttling background work could never relieve the foreground
   tail.  (:meth:`EventScheduler.set_arrival` anchors a new arrival
   process to the frontier for the same reason.)

Arrivals between stalls still queue normally: a backlogged device with
completions beyond the cursor is exactly how open-loop saturation shows
up, and stalls are the only points where the cursor is pulled forward.

Background lane
---------------
Maintenance I/O (checkpoint write-back, migration/rebuild copies) is
dispatched with ``record_round(..., background=True)``.  Background
requests share the shard queues and devices with the foreground, but:

1. they enqueue back-to-back at the current arrival cursor without
   drawing (or consuming) open-loop inter-arrival gaps — a burst is
   driver-initiated, not an arrival, so it can genuinely saturate a
   queue instead of being silently throttled to the foreground rate;
2. their sojourns are recorded into the window's
   ``background_latency`` histogram, never its foreground ``latency``
   — so a measurement window reports the foreground tail *under*
   background interference, not a blend; the scheduler-lifetime
   ``latency`` histogram keeps every completion so the books
   (``submitted == completed == latency.count``) stay balanced.

Combined with the stall contract above, a duty-cycle throttle at rate
``R`` (``spent * (1-R)/R`` stalls between background rounds) both
spreads the burst out on the timeline and moves subsequent foreground
arrivals past the pause, which is what lets throttling visibly relieve
the foreground tail.

The histogram is a sparse log-bucketed summary (8 buckets per octave),
with nearest-rank percentile estimates clamped to the observed
min/max: exact for single-sample and all-equal inputs, within a
documented ≤5% relative error everywhere else, and monotone in the
rank by construction (p50 ≤ p95 ≤ p99 ≤ max).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Sequence
from random import Random
from dataclasses import dataclass, field

from repro.disk.iostats import open_depth
from repro.disk.schedule import SchedulerWindow, ShardScheduler
from repro.errors import ConfigError
from repro.rng import substream
from repro.specgrammar import (Key, convert_items, format_items, render,
                               to_float, to_int, tokenize)
from repro.units import left_sum

#: Arrival processes :class:`ArrivalSpec` understands.
ARRIVAL_MODES = ("closed", "poisson")

#: Geometric bucket growth: 8 buckets per octave.  A value is estimated
#: at its bucket's geometric midpoint, so the worst-case relative error
#: is ``sqrt(growth) - 1`` ≈ 4.4% — documented (and tested) as ≤ 5%.
HIST_GROWTH = 2.0 ** 0.125
_LOG_GROWTH = math.log(HIST_GROWTH)
#: Floor of the first bucket: one simulated nanosecond.
HIST_BASE_S = 1e-9
#: Documented relative error bound of :meth:`LatencyHistogram.percentile`.
HIST_REL_ERROR = HIST_GROWTH ** 0.5 - 1.0


# ----------------------------------------------------------------------
# Arrival process
# ----------------------------------------------------------------------
_ARRIVAL_KEYS = {
    "rate": Key(to_float, "{:g}".format),
    "clients": Key(to_int),
    "seed": Key(to_int),
}


@dataclass(frozen=True, slots=True)
class ArrivalSpec:
    """How requests arrive at the event queue.

    Text grammar (clause parameters split on ``:`` or ``,``, like
    :mod:`repro.disk.faults`, so the spec survives inside a
    comma-separated ``--store`` option; the rules shared with the other
    specs are in :mod:`repro.specgrammar`)::

        closed
        poisson:rate=120
        poisson:rate=2e3:clients=32:seed=7
    """

    mode: str = "closed"
    #: Mean arrivals per second (poisson only; must be positive).
    rate: float = 0.0
    #: In-flight client cap (0 = unbounded; poisson only).
    clients: int = 0
    #: Root seed of the arrival substream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ARRIVAL_MODES:
            raise ConfigError(
                f"unknown arrival mode {self.mode!r}; "
                f"choose from {ARRIVAL_MODES}"
            )
        if self.mode == "poisson":
            if not (math.isfinite(self.rate) and self.rate > 0.0):
                raise ConfigError(
                    "poisson arrivals need rate=<requests/s> > 0"
                )
        elif self.rate or self.clients or self.seed:
            raise ConfigError(
                "closed arrivals take no rate/clients parameters "
                "(the driver's dispatch rounds are the arrivals)"
            )
        if self.clients < 0:
            raise ConfigError("clients must be >= 0 (0 = unbounded)")

    @classmethod
    def parse(cls, text: str) -> "ArrivalSpec":
        mode, raw = tokenize("arrival spec", text, ":,")
        return cls(mode, **convert_items("arrival spec", raw, _ARRIVAL_KEYS))

    def text(self) -> str:
        """Round-trippable text form (``parse(text()) == self``)."""
        shown = {"rate": self.rate or None, "clients": self.clients or None,
                 "seed": self.seed or None}
        return render(self.mode, format_items(_ARRIVAL_KEYS, shown), ":")

    def make_rng(self) -> Random:
        """The deterministic inter-arrival stream for this spec."""
        return substream(self.seed, "arrivals")


# ----------------------------------------------------------------------
# Streaming latency summary
# ----------------------------------------------------------------------
def bucket_of(value: float) -> int:
    """The :class:`LatencyHistogram` bucket of a sample ``value >= 0``."""
    if value <= HIST_BASE_S:
        return 0
    return 1 + int(math.log(value / HIST_BASE_S) / _LOG_GROWTH)


class LatencyHistogram:
    """Sparse log-bucketed latency summary with clamped percentiles.

    Buckets grow geometrically by :data:`HIST_GROWTH` from
    :data:`HIST_BASE_S`; a recorded value lands in the bucket whose
    range covers it, and :meth:`percentile` answers with the
    nearest-rank bucket's geometric midpoint clamped to the observed
    ``[min_s, max_s]``.  Consequences, pinned by the estimator tests:

    * single-sample and all-equal inputs are answered **exactly**
      (the clamp collapses to the one observed value);
    * every other estimate is within :data:`HIST_REL_ERROR` (< 5%)
      relative error of the exact sorted-sample nearest-rank answer;
    * estimates are monotone non-decreasing in the rank, so
      ``p50 <= p95 <= p99 <= max_s`` always holds.
    """

    __slots__ = ("count", "sum_s", "min_s", "max_s", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self._buckets: dict[int, int] = {}

    def record(self, seconds: float) -> None:
        value = seconds if seconds > 0.0 else 0.0
        self.add(bucket_of(value), value)

    def add(self, index: int, value: float) -> None:
        """:meth:`record` of a ``value >= 0`` whose bucket the caller
        computed once: ``index == bucket_of(value)``."""
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum_s += value
        if value < self.min_s:
            self.min_s = value
        if value > self.max_s:
            self.max_s = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate in seconds (0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q / 100.0 * self.count)))
        seen = 0
        index = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                break
        if index == 0:
            estimate = HIST_BASE_S
        else:
            estimate = HIST_BASE_S * HIST_GROWTH ** (index - 0.5)
        return min(max(estimate, self.min_s), self.max_s)

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """The standard report: count, mean, p50/p95/p99, max."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "p50_s": self.percentile(50.0),
            "p95_s": self.percentile(95.0),
            "p99_s": self.percentile(99.0),
            "max_s": self.max_s if self.count else 0.0,
        }


# ----------------------------------------------------------------------
# Requests and windows
# ----------------------------------------------------------------------
@dataclass(slots=True)
class EventRequest:
    """One simulated request and its lifecycle timestamps."""

    shard: int
    service_s: float
    enqueue_s: float
    seq: int
    dispatch_s: float = 0.0
    complete_s: float = 0.0
    #: Driver-initiated maintenance I/O riding the background lane.
    background: bool = False
    #: Tenant attribution tag (set via :meth:`EventScheduler.tagged`);
    #: stamped at submit time so deferred completions credit the tenant
    #: that issued the request, not whoever is active when it drains.
    tag: str | None = None


@dataclass(slots=True)
class EventWindow(SchedulerWindow):
    """A scheduler window that also collects latency histograms.

    ``latency`` holds foreground sojourns only; background-lane
    completions (checkpoint write-back, migration copies) land in
    ``background_latency`` so maintenance I/O never pollutes the
    foreground percentiles it is perturbing.
    """

    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    background_latency: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    #: Foreground sojourns split by tenant tag.  Tagged requests are
    #: recorded here *and* in ``latency``, so when every foreground
    #: request in the window carries a tag the per-tenant counts sum
    #: exactly to ``latency.count`` (the reconciliation invariant the
    #: scenario tests pin).
    tenant_latency: dict[str, LatencyHistogram] = field(
        default_factory=dict)


def _tenant_hist(tenants: dict[str, LatencyHistogram],
                 tag: str) -> LatencyHistogram:
    """The histogram of tenant ``tag``, created on its first sample."""
    hist = tenants.get(tag)
    if hist is None:
        hist = tenants[tag] = LatencyHistogram()
    return hist


class _Tagged:
    """One :meth:`EventScheduler.tagged` block (every tenant op opens
    one): sets the tag on entry, restores the one it replaced on every
    exit.  Never stored on the scheduler, so pickles never see it."""

    __slots__ = ("_sched", "_tag", "_prev")

    def __init__(self, sched: EventScheduler, tag: str) -> None:
        self._sched = sched
        self._tag = tag

    def __enter__(self) -> None:
        self._prev = self._sched._tag
        self._sched._tag = self._tag

    def __exit__(self, *exc_info: object) -> None:
        self._sched._tag = self._prev


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class EventScheduler(ShardScheduler):
    """Event-driven drop-in for :class:`ShardScheduler`.

    Same interface (``record_round`` / ``record_stall`` / window
    stack / ``wall_time_s`` / ``lane_time_s``), so
    :class:`~repro.backends.sharded.ShardedStore` and
    :class:`~repro.backends.base.MeasurementWindows` drive it
    unchanged — plus per-request latency accounting (cumulative
    :attr:`latency` and per-window histograms) and the open-loop
    arrival machinery described in the module docstring.
    """

    #: Duck-typing flag for measurement plumbing (e.g. the read sweep
    #: issues per-object gets so each read is one queued request).
    is_event = True

    def __init__(self, nshards: int, *, parallelism: int = 0,
                 dispatch_overhead_s: float = 0.0, depth: int = 64,
                 arrival: ArrivalSpec = ArrivalSpec()) -> None:
        super().__init__(parallelism=parallelism,
                         dispatch_overhead_s=dispatch_overhead_s)
        self.nshards = nshards
        self.depth = depth
        self.arrival = arrival
        #: Cumulative sojourn histogram across the scheduler's lifetime.
        self.latency = LatencyHistogram()
        #: Lifetime foreground sojourns split by tenant tag.
        self.tenant_latency: dict[str, LatencyHistogram] = {}
        #: Active attribution tag (see :meth:`tagged`).
        self._tag: str | None = None
        self.submitted = 0
        self.completed = 0
        #: High-water mark of any shard FIFO's length.
        self.max_queue_depth = 0
        # Open-loop simulation state (absolute timeline, origin 0).
        self._rng = arrival.make_rng()
        self._seq = 0
        self._arrival_cursor = 0.0
        #: Timeline point already charged to ``wall_time_s``.
        self._charged = 0.0
        self._queues: list[deque[EventRequest]] = [
            deque() for _ in range(nshards)
        ]
        #: (complete_s, seq, request) min-heap of in-service requests.
        self._in_service: list[tuple[float, int, EventRequest]] = []
        self._busy_shards: set[int] = set()
        self._free_at = [0.0] * nshards
        #: Min-heap of the global workers' free times.  ``parallelism``
        #: caps concurrency on the *timeline*, not just the in-service
        #: count: a request admitted because a completion freed a
        #: worker starts no earlier than that worker's free time.
        cap = self.parallelism if self.parallelism > 0 else nshards
        self._worker_free = [0.0] * cap
        self._in_flight = 0

    # ------------------------------------------------------------------
    # ShardScheduler interface
    # ------------------------------------------------------------------
    def record_round(self, lane_times: Sequence[float],
                     indices: Sequence[int] | None = None, *,
                     background: bool = False) -> float:
        if self.arrival.mode != "closed":
            if indices is None:
                indices = range(len(lane_times))
            return self._record_open_round(lane_times, indices, background)
        # Closed mode is the round model itself: lanes enqueue at
        # round-local zero, so a completion time is a sojourn, and the
        # round is synchronous, so the active tag is every lane's.
        wall, completions = self._account_round(lane_times)
        self.submitted += len(completions)
        self.completed += len(completions)
        for sojourn in completions:
            self._record_latency(sojourn, background=background,
                                 tag=self._tag)
        return wall

    def record_stall(self, seconds: float) -> None:
        # The stall/arrival timeline contract (module docstring): the
        # charged frontier advances by the stall — completions already
        # scheduled inside it overlap and add no *extra* wall — and the
        # arrival cursor is pulled up to the new frontier, because the
        # submitting driver was asleep: nothing it submits afterwards
        # can arrive inside the stall window.
        if seconds > 0.0:
            self._charge(seconds)
            self._arrival_cursor = max(self._arrival_cursor, self._charged)

    def tagged(self, tag: str) -> _Tagged:
        """Attribute requests submitted inside the block to ``tag``.

        The tag is stamped onto each request at submit time and travels
        with it: a completion that drains later — under another
        tenant's block, in a drain, at window close — still lands in
        the submitting tenant's histogram.
        """
        return _Tagged(self, tag)

    def start_window(self, name: str) -> EventWindow:
        win = EventWindow(name=name)
        self._windows.append(win)
        return win

    def end_window(self, win: SchedulerWindow) -> SchedulerWindow:
        # A window's wall time and percentiles must include requests
        # still in flight when it closes, so drain first (while the
        # window is still on the stack and sees the charges) — but only
        # once the window is known to be open: a refused close charges
        # nothing.
        open_depth(self._windows, win, "scheduler window")
        self.drain()
        return super().end_window(win)

    # ------------------------------------------------------------------
    # Poisson mode: open-loop arrivals on a global timeline
    # ------------------------------------------------------------------
    def _record_open_round(self, lane_times: Sequence[float],
                           indices: Sequence[int],
                           background: bool = False) -> float:
        before = self.wall_time_s
        # Host-side fan-out cost is serial wall time per round; the
        # lanes' own wall time is charged as their requests complete.
        if len(lane_times) == 1:
            # One shard, one submit; left_sum([t]) is 0.0 + t == t.
            service = lane_times[0]
            if not service > 0.0:
                return 0.0
            self._charge(self.dispatch_overhead_s, service, 1)
            self._submit(int(indices[0]) % self.nshards, service,
                         background=background)
            return self.wall_time_s - before
        pairs = [(int(i) % self.nshards, t)
                 for i, t in zip(indices, lane_times) if t > 0.0]
        if not pairs:
            return 0.0
        self._charge(self.dispatch_overhead_s,
                     left_sum(t for _, t in pairs), 1)
        for shard, service in pairs:
            self._submit(shard, service, background=background)
        return self.wall_time_s - before

    def _submit(self, shard: int, service_s: float, *,
                background: bool = False) -> None:
        # Background-lane requests are driver-initiated bursts: they
        # enqueue back-to-back at the current cursor without drawing
        # (or consuming) open-loop inter-arrival gaps, so a checkpoint
        # or migration burst can genuinely saturate a shard queue and
        # only its duty-cycle stalls spread it out.
        if not background:
            self._arrival_cursor += self._rng.expovariate(
                self.arrival.rate)
        enqueue_s = self._arrival_cursor
        # A closed client set blocks the submitter until one frees...
        if self.arrival.clients > 0:
            while self._in_flight >= self.arrival.clients:
                self._complete_one()
        # ...and so does a full shard FIFO.  Always makes progress: a
        # non-empty queue implies in-service work somewhere.
        if self.depth > 0:
            while len(self._queues[shard]) >= self.depth:
                self._complete_one()
        # Catch the simulation up to the arrival instant.
        while self._in_service and self._in_service[0][0] <= enqueue_s:
            self._complete_one()
        req = EventRequest(shard=shard, service_s=service_s,
                           enqueue_s=enqueue_s, seq=self._seq,
                           background=background, tag=self._tag)
        self._seq += 1
        self._queues[shard].append(req)
        self._in_flight += 1
        self.submitted += 1
        depth_now = len(self._queues[shard])
        if depth_now > self.max_queue_depth:
            self.max_queue_depth = depth_now
        self._dispatch_ready(shard)

    def _dispatch_ready(self, shard: int) -> None:
        """Start queued requests by the dispatch rules (module
        docstring) now that ``shard`` gained or finished a request.

        A request waits for the earliest free *worker* as well as its
        shard: completions are processed in completion order, so the
        least worker clock is a worker that has genuinely freed, and a
        request queued behind the cap starts when that worker did.
        """
        cap = len(self._worker_free)
        if cap >= self.nshards:
            queue = self._queues[shard]
            if queue and shard not in self._busy_shards:
                self._start(queue.popleft())
            return
        while len(self._in_service) < cap:
            head: EventRequest | None = None
            for s, queue in enumerate(self._queues):
                if queue and s not in self._busy_shards:
                    candidate = queue[0]
                    if head is None or candidate.seq < head.seq:
                        head = candidate
            if head is None:
                return
            self._start(self._queues[head.shard].popleft())

    def _start(self, req: EventRequest) -> None:
        """Put ``req``, just off its queue, in service."""
        worker_free_s = heapq.heappop(self._worker_free)
        req.dispatch_s = max(req.enqueue_s, self._free_at[req.shard],
                             worker_free_s)
        req.complete_s = req.dispatch_s + req.service_s
        heapq.heappush(self._worker_free, req.complete_s)
        self._busy_shards.add(req.shard)
        heapq.heappush(self._in_service, (req.complete_s, req.seq, req))

    def _complete_one(self) -> None:
        complete_s, _, req = heapq.heappop(self._in_service)
        self._busy_shards.discard(req.shard)
        self._free_at[req.shard] = complete_s
        self._in_flight -= 1
        self.completed += 1
        self._record_latency(complete_s - req.enqueue_s,
                             background=req.background, tag=req.tag)
        if complete_s > self._charged:
            self._charge(complete_s - self._charged)
        self._dispatch_ready(req.shard)

    def drain(self) -> None:
        """Run every in-flight request to completion (charges wall)."""
        while self._in_service:
            self._complete_one()

    def set_arrival(self, arrival: ArrivalSpec) -> None:
        """Switch the arrival process (drains in-flight work first).

        The new process starts a fresh inter-arrival stream at the
        current charged frontier, so benches can load in closed mode
        and sweep in poisson mode on one store.
        """
        self.drain()
        self.arrival = arrival
        self._rng = arrival.make_rng()
        self._arrival_cursor = self._charged

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def _charge(self, wall_s: float, lane_s: float = 0.0,
                rounds: int = 0) -> None:
        # Charged wall time is the timeline's frontier, in either
        # arrival mode (so it stays coherent across mode switches).
        super()._charge(wall_s, lane_s, rounds)
        self._charged += wall_s

    def _record_latency(self, sojourn_s: float, *,
                        background: bool = False,
                        tag: str | None = None) -> None:
        # The lifetime histogram keeps every completion so the books
        # (submitted == completed == latency.count) stay balanced;
        # windows split by lane so foreground percentiles stay pure.
        value = sojourn_s if sojourn_s > 0.0 else 0.0
        index = bucket_of(value)
        self.latency.add(index, value)
        if tag is not None and not background:
            _tenant_hist(self.tenant_latency, tag).add(index, value)
        # start_window is the only producer of this stack's entries.
        windows: list[EventWindow] = self._windows  # type: ignore[assignment]
        for win in windows:
            if background:
                win.background_latency.add(index, value)
                continue
            win.latency.add(index, value)
            if tag is not None:
                _tenant_hist(win.tenant_latency, tag).add(index, value)

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet completed, right now."""
        return self._in_flight
