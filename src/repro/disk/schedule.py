"""Overlapping device-time model for multi-volume stores.

Every :class:`~repro.disk.device.BlockDevice` keeps its own modelled
busy clock, and the synchronous driver historically *summed* those
clocks into elapsed time — correct for one volume, but it models N
shards as slower-or-equal to one (N seek streams, zero concurrency).
Real sharded repositories (SEARS, arXiv:1508.01182) spread objects
across devices precisely so independent spindles work at the same
time.  This module is that concurrency model.

The model is a **dispatch-round makespan**: the composite store
dispatches work to its shards in rounds (one fan-out call, e.g. a
``read_many`` sweep split by owning shard, is one round; a single-shard
``put``/``get`` is a degenerate one-lane round).  Within a round each
shard's device time is one *lane*, lanes run on independent devices and
overlap; the round's wall time is the makespan of scheduling the lanes
onto ``parallelism`` workers (0 = one worker per lane):

* ``parallelism >= lanes`` — critical path: ``max(lane_times)``.
* ``parallelism == 1`` — fully serial: ``sum(lane_times)`` (exactly
  the historical summed model).
* in between — greedy LPT (longest processing time first) assignment,
  the classic 4/3-approximation for multiprocessor scheduling.

Rounds themselves are sequential (the driver is synchronous between
dispatches), so a store's overlapped wall time is the sum of its round
makespans plus an optional fixed per-round dispatch overhead.  For any
round, ``max(lanes) <= makespan <= sum(lanes)`` — the property suite
holds :func:`round_makespan` to exactly that envelope.

:class:`ShardScheduler` accumulates rounds and supports named
measurement windows mirroring :class:`~repro.disk.iostats.IoStats`, so
:class:`~repro.backends.base.MeasurementWindows` can report a phase's
summed device time and overlapped wall time side by side.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigError


def throttle_pause(spent_s: float, rate: float) -> float:
    """Idle time that makes ``spent_s`` of work a ``rate`` duty cycle.

    Background jobs (rebuild, rebalance, checkpoint write-back) running
    at duty cycle ``rate`` in (0, 1] pause this long after each slice,
    so the slice occupies ``rate`` of the wall time it spans.
    """
    return spent_s * (1.0 - rate) / rate


def round_makespan(lane_times: Sequence[float],
                   parallelism: int = 0) -> float:
    """Wall time of one dispatch round's lanes on ``parallelism`` workers.

    Greedy LPT: serve lanes longest-first, each on the least-loaded
    worker.  ``parallelism <= 0`` means one worker per lane (pure
    critical path).  Zero/negative lane times are idle lanes and are
    ignored.  Guarantees ``max(lanes) <= makespan <= sum(lanes)``, with
    equality at ``parallelism >= lanes`` and ``parallelism == 1``
    respectively.
    """
    lanes = sorted((t for t in lane_times if t > 0.0), reverse=True)
    if not lanes:
        return 0.0
    workers = parallelism if parallelism > 0 else len(lanes)
    if workers >= len(lanes):
        return lanes[0]
    if workers == 1:
        return sum(lanes)
    loads = [0.0] * workers
    heapq.heapify(loads)
    for lane in lanes:
        heapq.heappush(loads, heapq.heappop(loads) + lane)
    return max(loads)


@dataclass(slots=True)
class SchedulerWindow:
    """Overlapped wall time captured between start/end of one window."""

    name: str
    wall_time_s: float = 0.0
    lane_time_s: float = 0.0
    rounds: int = 0


@dataclass(slots=True)
class ShardScheduler:
    """Accumulates dispatch rounds into overlapped wall time.

    Parameters
    ----------
    parallelism:
        Worker cap per round (0 = one worker per lane; 1 reproduces the
        summed model exactly).
    dispatch_overhead_s:
        Fixed wall-time cost added to every round that did device work
        (host-side fan-out/join cost; 0 by default).
    """

    parallelism: int = 0
    dispatch_overhead_s: float = 0.0
    #: Overlapped wall seconds across every round so far.
    wall_time_s: float = 0.0
    #: Summed lane seconds across every round (the serial model).
    lane_time_s: float = 0.0
    rounds: int = 0
    _windows: list[SchedulerWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.parallelism < 0:
            raise ConfigError("parallelism must be >= 0 (0 = unbounded)")
        if not (math.isfinite(self.dispatch_overhead_s)
                and self.dispatch_overhead_s >= 0):
            raise ConfigError(
                "dispatch_overhead_s must be a finite value >= 0"
            )

    def record_round(self, lane_times: Sequence[float],
                     indices: Sequence[int] | None = None, *,
                     background: bool = False) -> float:
        """Account one dispatch round; returns the round's wall time.

        ``indices`` names the shard behind each lane; the makespan
        model has no per-shard state so it ignores them, but the
        event-driven subclass (:class:`~repro.disk.events.
        EventScheduler`) routes each lane to that shard's FIFO queue.
        ``background`` marks driver-initiated maintenance I/O
        (checkpoint write-back, migration copies); the makespan model
        charges it like any round, but the event subclass keeps it off
        the open-loop arrival process and out of the foreground
        latency windows.
        """
        wall = round_makespan(lane_times, self.parallelism)
        if wall <= 0.0:
            return 0.0
        wall += self.dispatch_overhead_s
        lane_total = sum(t for t in lane_times if t > 0.0)
        self.rounds += 1
        self.wall_time_s += wall
        self.lane_time_s += lane_total
        for win in self._windows:
            win.rounds += 1
            win.wall_time_s += wall
            win.lane_time_s += lane_total
        return wall

    def record_stall(self, seconds: float) -> None:
        """Account wall time during which no lane did device work.

        Stalls model host-side waiting — retry backoff after a transient
        fault, or a rebuild throttle's duty-cycle pause — so they add
        wall time (and flow into open windows) without touching lane
        totals or the round count: the devices really were idle.
        """
        if seconds <= 0.0:
            return
        self.wall_time_s += seconds
        for win in self._windows:
            win.wall_time_s += seconds

    # ------------------------------------------------------------------
    # Measurement windows (mirrors IoStats' window stack)
    # ------------------------------------------------------------------
    def start_window(self, name: str) -> SchedulerWindow:
        win = SchedulerWindow(name=name)
        self._windows.append(win)
        return win

    def end_window(self, win: SchedulerWindow) -> SchedulerWindow:
        while self._windows:
            top = self._windows.pop()
            if top is win:
                return win
        raise ValueError(f"scheduler window {win.name!r} is not open")
