"""I/O accounting for the simulated block device.

The paper's primary performance indicator is throughput (MB/s) measured
over phases of the workload (bulk load, each churn interval, read sweeps).
:class:`IoStats` accumulates modelled busy time and bytes, and supports
nested named windows so the experiment runner can report per-phase
throughput exactly the way Figures 1 and 4 do ("write performance between
the bulk load and storage-age-two read measurements").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import mul
from typing import Any

from repro.units import left_sum

#: ``(nbytes, service_s, seeks, count)``: ``count`` requests of these
#: books each, in order (the costing kernel's entries).
Costed = tuple[int, float, int, int]


def service_terms(costed: list[Costed]) -> list[float]:
    """Every request's service seconds, in order: ``count`` equal terms
    per entry, for :func:`~repro.units.left_sum` to fold one at a time
    (built in C: a Python step per term is what the fold itself is)."""
    if not costed:
        return []
    _, services, _, counts = zip(*costed)
    return list(chain.from_iterable(map(repeat, services, counts)))


@dataclass(slots=True)
class WindowStats:
    """Totals captured between ``start_window`` and ``end_window``.

    Slotted: one of these is touched on every device request for every
    open window, so the record path avoids ``__dict__`` lookups.
    """

    name: str
    read_bytes: int = 0
    write_bytes: int = 0
    read_time_s: float = 0.0
    write_time_s: float = 0.0
    cpu_time_s: float = 0.0
    seeks: int = 0
    requests: int = 0
    #: Overlapped wall time for the window, set by
    #: :class:`~repro.backends.base.MeasurementWindows` when the store
    #: runs a :class:`~repro.disk.schedule.ShardScheduler`; ``None``
    #: means no overlap model applies and wall time equals the sum.
    wall_time_s: float | None = None
    #: Per-op latency as a :meth:`LatencyHistogram.summary` dict, set by
    #: :class:`~repro.backends.base.MeasurementWindows` (``{}`` when the
    #: window timed nothing; ``None`` on a bare device window).  New
    #: per-phase metrics belong here, beside this one.
    latency: dict[str, float] | None = None
    #: The same summaries split by tenant tag (scenario runs); ``None``
    #: means nothing in the window carried a tag.  When every foreground
    #: op was tagged the per-tenant counts sum to ``latency["count"]``.
    tenant_lat: dict[str, dict[str, float]] | None = None

    @property
    def total_time_s(self) -> float:
        """Modelled elapsed time under the *serial* model: device busy
        time summed across devices plus host CPU time.

        The workload is synchronous and single-threaded (one outstanding
        request, as in the paper's test app), so times add.  For
        multi-volume stores with an overlap scheduler, the overlapped
        alternative is :attr:`elapsed_wall_s`.
        """
        return self.read_time_s + self.write_time_s + self.cpu_time_s

    @property
    def elapsed_wall_s(self) -> float:
        """Overlapped wall time when modelled, else the summed time."""
        if self.wall_time_s is None:
            return self.total_time_s
        return self.wall_time_s


def open_depth(stack: list, win: Any, what: str) -> int:
    """Where ``win`` sits in a window stack; ``ValueError`` if not open."""
    for depth in range(len(stack) - 1, -1, -1):
        if stack[depth] is win:
            return depth
    raise ValueError(f"{what} {win.name!r} is not open")


@dataclass(slots=True)
class IoStats:
    """Cumulative counters plus a stack of open measurement windows."""

    read_bytes: int = 0
    write_bytes: int = 0
    read_time_s: float = 0.0
    write_time_s: float = 0.0
    cpu_time_s: float = 0.0
    seeks: int = 0
    requests: int = 0
    _windows: list[WindowStats] = field(default_factory=list)

    def record_cpu(self, seconds: float) -> None:
        """Account host CPU time (query parsing, file-open path, copies)."""
        self.cpu_time_s += seconds
        for win in self._windows:
            win.cpu_time_s += seconds

    def record(self, is_write: bool, nbytes: int, service_s: float,
               seeks: int) -> None:
        """Account one submission in the totals and all open windows.

        A submission is one request or one batch (one direction either
        way): it bumps ``requests`` (and every open window's request
        count) exactly once — the host-side submission count, not the
        extent count.
        """
        self.requests += 1
        self.seeks += seeks
        if is_write:
            self.write_bytes += nbytes
            self.write_time_s += service_s
            for win in self._windows:
                win.requests += 1
                win.seeks += seeks
                win.write_bytes += nbytes
                win.write_time_s += service_s
        else:
            self.read_bytes += nbytes
            self.read_time_s += service_s
            for win in self._windows:
                win.requests += 1
                win.seeks += seeks
                win.read_bytes += nbytes
                win.read_time_s += service_s

    def record_each(self, is_write: bool,
                    costed: list[Costed]) -> list[float]:
        """:meth:`record` applied once per request of each ``(nbytes,
        service_s, seeks, count)`` entry, in order: every accumulator
        (the totals and each open window) folds the service times one
        request at a time (:func:`~repro.units.left_sum` from its
        running total over :func:`service_terms`), so its float sum is
        the one a ``record`` call per request leaves.  Returns the terms,
        for the caller's clock to fold the same way."""
        terms = service_terms(costed)
        if not terms:
            return terms
        sizes, _, seek_counts, counts = zip(*costed)
        requests = sum(counts)
        nbytes = sum(map(mul, sizes, counts))
        seeks = sum(map(mul, seek_counts, counts))
        if is_write:
            bytes_field, time_field = "write_bytes", "write_time_s"
        else:
            bytes_field, time_field = "read_bytes", "read_time_s"
        for acc in (self, *self._windows):
            acc.requests += requests
            acc.seeks += seeks
            setattr(acc, bytes_field, getattr(acc, bytes_field) + nbytes)
            setattr(acc, time_field,
                    left_sum(terms, getattr(acc, time_field)))
        return terms

    def start_window(self, name: str) -> WindowStats:
        """Open a named measurement window; windows may nest."""
        win = WindowStats(name=name)
        self._windows.append(win)
        return win

    def end_window(self, win: WindowStats) -> WindowStats:
        """Close ``win`` (and any windows opened after it); a window that
        is not open raises ``ValueError`` and leaves the stack as it was."""
        del self._windows[open_depth(self._windows, win, "window"):]
        return win

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def busy_time_s(self) -> float:
        return self.read_time_s + self.write_time_s + self.cpu_time_s
