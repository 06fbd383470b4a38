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
* ``parallelism == 1`` — fully serial: the lanes' left-to-right sum,
  longest first (the historical summed model).
* in between — greedy LPT (longest processing time first) assignment,
  the classic 4/3-approximation for multiprocessor scheduling.

Rounds themselves are sequential (the driver is synchronous between
dispatches), so a store's overlapped wall time is the sum of its round
makespans plus an optional fixed per-round dispatch overhead.  For any
round, ``max(lanes) <= makespan <= sum(lanes)`` — the property suite
holds the frontier of :func:`lpt_placement` to exactly that envelope.

:func:`lpt_placement` is the one placement kernel
(``tests/makespanoracle.py`` keeps the two copies it replaced as the
``==`` reference) and :meth:`ShardScheduler._charge` the
one ledger: this scheduler and :class:`~repro.disk.events.EventScheduler`
place every round and account every second through them, into the
totals and each open measurement window — a stack mirroring
:class:`~repro.disk.iostats.IoStats`, so
:func:`~repro.core.throughput.measure` can report a phase's summed
device time and overlapped wall time side by side.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.disk.iostats import open_depth
from repro.units import left_sum


def throttle_pause(spent_s: float, rate: float) -> float:
    """Idle time that makes ``spent_s`` of work a ``rate`` duty cycle.

    Background jobs (rebuild, rebalance, checkpoint write-back) running
    at duty cycle ``rate`` in (0, 1] pause this long after each slice,
    so the slice occupies ``rate`` of the wall time it spans.
    """
    return spent_s * (1.0 - rate) / rate


def lpt_placement(lane_times: Sequence[float],
                  parallelism: int = 0) -> tuple[list[float], float]:
    """Place one round's lanes on ``parallelism`` workers, greedy LPT.

    Lanes are served longest-first, each on the least-loaded worker;
    ``parallelism <= 0`` means one worker per lane.  Zero/negative lane
    times are idle lanes and are dropped.  Returns the round-local
    completion time of every busy lane, in lane order, and the
    frontier: when the last worker finishes (0.0 for an idle round).
    """
    busy = [t for t in lane_times if t > 0.0]
    workers = parallelism if parallelism > 0 else len(busy)
    if workers >= len(busy):
        return busy, max(busy, default=0.0)
    completions = [0.0] * len(busy)
    # A min-heap of worker loads; with one worker, the serial
    # left-to-right sum (never builtin sum(): see repro.units.left_sum).
    loads = [0.0] * workers
    for i in sorted(range(len(busy)), key=busy.__getitem__, reverse=True):
        completions[i] = load = loads[0] + busy[i]
        heapq.heapreplace(loads, load)
    return completions, max(loads)


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
        return self._account_round(lane_times)[0]

    def _account_round(self, lane_times: Sequence[float]
                       ) -> tuple[float, list[float]]:
        """Place one round and charge it; ``(wall, completions)``."""
        completions, frontier = lpt_placement(lane_times, self.parallelism)
        if not completions:  # idle: no charge, not even the overhead
            return 0.0, completions
        wall = frontier + self.dispatch_overhead_s
        self._charge(wall, left_sum(t for t in lane_times if t > 0.0), 1)
        return wall, completions

    def record_stall(self, seconds: float) -> None:
        """Account wall time during which no lane did device work.

        Stalls model host-side waiting — retry backoff after a transient
        fault, or a rebuild throttle's duty-cycle pause — so they add
        wall time (and flow into open windows) without touching lane
        totals or the round count: the devices really were idle.
        """
        if seconds > 0.0:
            self._charge(seconds)

    def _charge(self, wall_s: float, lane_s: float = 0.0,
                rounds: int = 0) -> None:
        """The ledger: add to the totals and to every open window."""
        self.rounds += rounds
        self.wall_time_s += wall_s
        self.lane_time_s += lane_s
        for win in self._windows:
            win.rounds += rounds
            win.wall_time_s += wall_s
            win.lane_time_s += lane_s

    # ------------------------------------------------------------------
    # Measurement windows (mirrors IoStats' window stack)
    # ------------------------------------------------------------------
    def start_window(self, name: str) -> SchedulerWindow:
        win = SchedulerWindow(name=name)
        self._windows.append(win)
        return win

    def end_window(self, win: SchedulerWindow) -> SchedulerWindow:
        del self._windows[open_depth(self._windows, win, "scheduler window"):]
        return win
