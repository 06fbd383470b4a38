"""Reference models for the round placement kernel (test-side only).

``repro.disk.schedule.lpt_placement`` is the one greedy-LPT routine
under both shard schedulers.  The two independent implementations it
replaced live on here, as they were written, so the property suite can
hold the kernel to them with ``==``: :func:`round_makespan` is the
PR 5 wall-time function (sort the lane *values*, three cases), and
:func:`closed_round` is the event scheduler's closed-mode replay of it
(sort the lane *indices*, keep every lane's completion time).

One thing differs from the retired code: the serial case of
``round_makespan`` used builtin ``sum()``, which is a left fold up to
CPython 3.11 and a compensated sum from 3.12 — the drift that made the
two copies disagree in the last bit.  :func:`serial_sum` is the
explicit fold both mean; tests compare with it, never with ``sum()``.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence


def serial_sum(values: Iterable[float]) -> float:
    """``((0.0 + a) + b) + ...`` — the serial model, on any interpreter."""
    total = 0.0
    for value in values:
        total = total + value
    return total


def round_makespan(lane_times: Sequence[float],
                   parallelism: int = 0) -> float:
    """Wall time of one round: greedy LPT over the sorted lane values."""
    lanes = sorted((t for t in lane_times if t > 0.0), reverse=True)
    if not lanes:
        return 0.0
    workers = parallelism if parallelism > 0 else len(lanes)
    if workers >= len(lanes):
        return lanes[0]
    if workers == 1:
        return serial_sum(lanes)
    loads = [0.0] * workers
    heapq.heapify(loads)
    for lane in lanes:
        heapq.heappush(loads, heapq.heappop(loads) + lane)
    return max(loads)


def closed_round(lane_times: Sequence[float],
                 parallelism: int = 0) -> tuple[list[float], float]:
    """``(completions, frontier)`` of one closed round.

    Completions are round-local and in lane order, one per busy lane
    (``t > 0``); the frontier is the round's wall time before dispatch
    overhead, 0.0 when every lane is idle.
    """
    busy = [t for t in lane_times if t > 0.0]
    if not busy:
        return [], 0.0
    order = sorted(range(len(busy)), key=busy.__getitem__, reverse=True)
    workers = parallelism if parallelism > 0 else len(busy)
    completions = [0.0] * len(busy)
    if workers >= len(busy):
        for i in order:
            completions[i] = busy[i]
        frontier = busy[order[0]]
    elif workers == 1:
        running = 0.0
        for i in order:
            running = running + busy[i]
            completions[i] = running
        frontier = running
    else:
        loads = [0.0] * workers
        heapq.heapify(loads)
        for i in order:
            load = heapq.heappop(loads) + busy[i]
            completions[i] = load
            heapq.heappush(loads, load)
        frontier = max(loads)
    return completions, frontier
