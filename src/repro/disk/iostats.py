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

from repro.units import MB


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
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

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

    def read_throughput(self) -> float:
        """Read bytes per second of modelled read busy time (0 if idle)."""
        if self.read_time_s <= 0:
            return 0.0
        return self.read_bytes / self.read_time_s

    def write_throughput(self) -> float:
        if self.write_time_s <= 0:
            return 0.0
        return self.write_bytes / self.write_time_s

    def throughput(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.total_bytes / self.total_time_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowStats({self.name!r}, rd={self.read_bytes / MB:.1f}MB"
            f"@{self.read_throughput() / MB:.2f}MB/s, "
            f"wr={self.write_bytes / MB:.1f}MB"
            f"@{self.write_throughput() / MB:.2f}MB/s, seeks={self.seeks})"
        )


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
               seeks: int, requests: int = 1) -> None:
        """Account one submission in the totals and all open windows.

        A submission is one request or one scatter/gather batch: it
        bumps ``requests`` (and every open window's request count)
        exactly once — the host-side submission count, not the extent
        count.  A batch that mixes directions accounts its other side
        with ``requests=0``.
        """
        self.requests += requests
        self.seeks += seeks
        if is_write:
            self.write_bytes += nbytes
            self.write_time_s += service_s
            for win in self._windows:
                win.requests += requests
                win.seeks += seeks
                win.write_bytes += nbytes
                win.write_time_s += service_s
        else:
            self.read_bytes += nbytes
            self.read_time_s += service_s
            for win in self._windows:
                win.requests += requests
                win.seeks += seeks
                win.read_bytes += nbytes
                win.read_time_s += service_s

    def start_window(self, name: str) -> WindowStats:
        """Open a named measurement window; windows may nest."""
        win = WindowStats(name=name)
        self._windows.append(win)
        return win

    def end_window(self, win: WindowStats) -> WindowStats:
        """Close ``win`` (and any windows opened after it)."""
        while self._windows:
            top = self._windows.pop()
            if top is win:
                return win
        raise ValueError(f"window {win.name!r} is not open")

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def busy_time_s(self) -> float:
        return self.read_time_s + self.write_time_s + self.cpu_time_s

    def snapshot(self) -> WindowStats:
        """A :class:`WindowStats` view of the cumulative totals."""
        return WindowStats(
            name="total",
            read_bytes=self.read_bytes,
            write_bytes=self.write_bytes,
            read_time_s=self.read_time_s,
            write_time_s=self.write_time_s,
            cpu_time_s=self.cpu_time_s,
            seeks=self.seeks,
            requests=self.requests,
        )
