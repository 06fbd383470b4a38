"""Ghost-record deferred deallocation.

SQL Server deletes do not immediately return space: rows and LOB pages
are marked *ghost* and a background task deallocates them later — and,
crucially, it works through the backlog **incrementally**, a bounded
batch of pages per wakeup, not object by object.  Two consequences the
paper measures:

* Freed space is unavailable for a window after every delete, so a
  replacement's allocation cannot reuse the replaced object's space and
  must advance into older holes or fresh extents.
* Reclaimed space returns to the GAM as a *mixture* of partial ranges
  from many deleted objects.  Combined with the GAM's lowest-address-
  first scan, new BLOBs get spliced from fragments of several old holes
  — the interleaving that drives the database's near-linear
  fragmentation growth (Figures 2 and 5).

Ablation A4 varies the cleanup interval and batch size to quantify both
effects.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.db.gam import GamAllocator
from repro.db.page import Run
from repro.errors import ConfigError


class GhostCleaner:
    """Deferred, batched page deallocation.

    Parameters
    ----------
    gam:
        The allocator pages are eventually returned to.
    cleanup_interval_ops:
        Operations between cleanup wakeups (0 = free immediately).
    max_pages_per_sweep:
        Pages deallocated per wakeup.  SQL Server's ghost cleanup
        processes a small batch per run; a bound below the workload's
        delete rate lets the backlog blend pages of many objects.
        ``None`` = unbounded (whole backlog per sweep).
    min_age_ops:
        A page must have been ghosted at least this many operations ago
        before it may be freed (the version/scan-safety window).

    Pages are queued, aged and freed as ``(start, count)`` runs — the
    unit deletes produce and the GAM frees — but every bound above still
    counts *pages*.
    """

    def __init__(self, gam: GamAllocator, *,
                 cleanup_interval_ops: int = 4,
                 max_pages_per_sweep: int | None = 512,
                 min_age_ops: int = 8) -> None:
        if cleanup_interval_ops < 0:
            raise ConfigError("cleanup_interval_ops must be >= 0")
        if max_pages_per_sweep is not None and max_pages_per_sweep < 1:
            raise ConfigError("max_pages_per_sweep must be >= 1")
        if min_age_ops < 0:
            raise ConfigError("min_age_ops must be >= 0")
        self.gam = gam
        self.cleanup_interval_ops = cleanup_interval_ops
        self.max_pages_per_sweep = max_pages_per_sweep
        self.min_age_ops = min_age_ops
        self._ops = 0
        #: FIFO backlog of ``(stamp, start, count)`` page runs.
        self._queue: deque[tuple[int, int, int]] = deque()
        self.ghosted_pages = 0
        self.cleaned_pages = 0
        self.sweeps = 0
        #: Optional fault-injection hook called at the top of every
        #: sweep (the ghost-record deallocation boundary); raising
        #: aborts the sweep before any page is freed.
        self.crash_hook = None

    # ------------------------------------------------------------------
    def ghost_pages(self, runs: Iterable[Run]) -> None:
        """Mark page runs ghost; they stay unavailable until cleaned."""
        stamp = self._ops
        for start, count in runs:
            self.ghosted_pages += count
            if self.cleanup_interval_ops == 0:
                self._free(start, count)
            else:
                self._queue.append((stamp, start, count))

    def _free(self, start: int, count: int) -> None:
        self.gam.free_run(start, count)
        self.cleaned_pages += count

    def on_operation(self) -> None:
        """Advance the operation clock; sweep when the interval elapses."""
        if self.cleanup_interval_ops == 0:
            return
        self._ops += 1
        if self._ops % self.cleanup_interval_ops == 0:
            self.sweep()

    def sweep(self, *, ignore_age: bool = False,
              max_pages: int | None = None) -> int:
        """Deallocate one batch from the backlog head; returns count.

        The budget counts pages, so it may land inside the head run:
        that run is split and its remainder keeps its stamp and place.
        """
        if self.crash_hook is not None:
            self.crash_hook("ghost:sweep")
        budget = max_pages if max_pages is not None \
            else self.max_pages_per_sweep
        queue = self._queue
        released = 0
        while queue and (budget is None or released < budget):
            stamp, start, count = queue[0]
            if not ignore_age and self._ops - stamp < self.min_age_ops:
                break
            if budget is not None and count > budget - released:
                take = budget - released
                queue[0] = (stamp, start + take, count - take)
            else:
                take = count
                queue.popleft()
            self._free(start, take)
            released += take
        self.sweeps += 1
        return released

    def drain(self) -> None:
        """Free the whole backlog now, whatever its age (checkpoint)."""
        while self._queue:
            _, start, count = self._queue.popleft()
            self._free(start, count)

    @property
    def pending_pages(self) -> int:
        return self.ghosted_pages - self.cleaned_pages

    def queued_runs(self) -> list[Run]:
        """The ghosted-not-yet-freed runs, FIFO (for invariant checks)."""
        return [(start, count) for _, start, count in self._queue]
