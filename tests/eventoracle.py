"""The event scheduler's retired per-request bookkeeping (test-side only).

``repro.disk.events.EventScheduler`` submits a one-lane round straight
to its shard, starts only the touched shard's head when every shard
has its own worker, and buckets a sojourn once for every histogram it
lands in.  :class:`OracleScheduler` is that scheduler with the three
methods those changes replaced, as they were written: the multi-lane
``pairs``/``left_sum`` round for every round, the oldest-head scan over
every shard queue after each submit and completion, and one
``LatencyHistogram.record`` per histogram.  :func:`pickled` takes its
bytes under ``EventScheduler``'s name, so twins compare with ``==``.
"""

from __future__ import annotations

import heapq
import pickle
from collections.abc import Sequence

from repro.disk.events import (EventRequest, EventScheduler, EventWindow,
                               _tenant_hist)
from repro.units import left_sum


def pickled(sched: EventScheduler) -> bytes:
    """``pickle.dumps(sched)``, taken under ``EventScheduler``'s name."""
    cls = sched.__class__
    sched.__class__ = EventScheduler
    try:
        return pickle.dumps(sched)
    finally:
        sched.__class__ = cls


class OracleScheduler(EventScheduler):
    """:class:`EventScheduler` with the retired round, dispatch and
    recording."""

    def _record_open_round(self, lane_times: Sequence[float],
                           indices: Sequence[int],
                           background: bool = False) -> float:
        pairs = [(int(i) % self.nshards, t)
                 for i, t in zip(indices, lane_times) if t > 0.0]
        if not pairs:
            return 0.0
        before = self.wall_time_s
        self._charge(self.dispatch_overhead_s,
                     left_sum(t for _, t in pairs), 1)
        for shard, service in pairs:
            self._submit(shard, service, background=background)
        return self.wall_time_s - before

    def _dispatch_ready(self, shard: int) -> None:
        cap = len(self._worker_free)
        while len(self._in_service) < cap:
            head: EventRequest | None = None
            for s, queue in enumerate(self._queues):
                if queue and s not in self._busy_shards:
                    candidate = queue[0]
                    if head is None or candidate.seq < head.seq:
                        head = candidate
            if head is None:
                return
            self._queues[head.shard].popleft()
            worker_free_s = heapq.heappop(self._worker_free)
            head.dispatch_s = max(head.enqueue_s,
                                  self._free_at[head.shard],
                                  worker_free_s)
            head.complete_s = head.dispatch_s + head.service_s
            heapq.heappush(self._worker_free, head.complete_s)
            self._busy_shards.add(head.shard)
            heapq.heappush(self._in_service,
                           (head.complete_s, head.seq, head))

    def _record_latency(self, sojourn_s: float, *,
                        background: bool = False,
                        tag: str | None = None) -> None:
        self.latency.record(sojourn_s)
        if tag is not None and not background:
            _tenant_hist(self.tenant_latency, tag).record(sojourn_s)
        windows: list[EventWindow] = self._windows  # type: ignore[assignment]
        for win in windows:
            if background:
                win.background_latency.record(sojourn_s)
                continue
            win.latency.record(sojourn_s)
            if tag is not None:
                _tenant_hist(win.tenant_latency, tag).record(sojourn_s)
