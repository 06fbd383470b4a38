"""Throughput measurement over modelled time.

The paper's primary indicator is application throughput: object bytes
moved divided by elapsed time (Section 5).  Elapsed time here is the
modelled time of a synchronous workload — device busy time (seeks,
rotation, media transfer, forced flushes) plus host CPU time — summed
across every device the backend touches.

:func:`measure` wraps any workload phase in per-device measurement
windows; the throughput helpers divide *logical* object bytes by the
window's total time, so metadata I/O slows a phase down (as it should)
without inflating its byte count.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from random import Random

from repro.backends.base import MeasurementWindows, ObjectStore
from repro.core.workload import WorkloadState, read_sweep
from repro.disk.iostats import WindowStats
from repro.errors import ConfigError


@dataclass
class PhaseResult:
    """Logical bytes + modelled time for one measured phase.

    :func:`measure` yields it open: inside the block the workload
    counts its bytes with :meth:`add_bytes` and times tenant ops
    through :attr:`tagged`; :attr:`window` is set when the block exits
    and every derived figure below reads it.
    """

    name: str
    logical_bytes: int = 0
    window: WindowStats | None = None
    #: The phase's :attr:`MeasurementWindows.tagged`.
    tagged: Callable[[str], contextlib.AbstractContextManager[None]] = field(
        kw_only=True, repr=False, compare=False)

    def add_bytes(self, nbytes: int) -> None:
        self.logical_bytes += nbytes

    @property
    def elapsed_s(self) -> float:
        """Serial-model elapsed time: device busy summed + host CPU."""
        return self.window.total_time_s

    @property
    def wall_s(self) -> float:
        """Overlapped wall time when the store models overlap (shard
        lanes run concurrently), else identical to :attr:`elapsed_s`."""
        return self.window.elapsed_wall_s

    @property
    def mbps(self) -> float:
        """Application throughput in bytes/second (0 when idle)."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.logical_bytes / self.elapsed_s

    @property
    def wall_mbps(self) -> float:
        """Throughput over overlapped wall time (== :attr:`mbps` for
        single-volume stores)."""
        if self.wall_s <= 0:
            return 0.0
        return self.logical_bytes / self.wall_s

    @property
    def seeks(self) -> int:
        return self.window.seeks

    @property
    def latency(self) -> dict[str, float]:
        """Per-op latency summary (``{}`` when nothing was timed)."""
        return self.window.latency

    @property
    def tenant_lat(self) -> dict[str, dict[str, float]] | None:
        """Per-tenant latency summaries (tagged ops; else ``None``)."""
        return self.window.tenant_lat


@contextlib.contextmanager
def measure(store: ObjectStore, name: str) -> Iterator[PhaseResult]:
    """Measure a phase::

        with measure(store, "read-sweep") as phase:
            phase.add_bytes(read_sweep(store, state, 100))
        print(phase.mbps)            # bytes/second
    """
    windows = MeasurementWindows(store, name)
    phase = PhaseResult(name, tagged=windows.tagged)
    try:
        yield phase
    finally:
        phase.window = windows.close()


def _default_policy(store: ObjectStore) -> bool:
    """True when every device runs the default (no batch, no reorder)
    submission policy, i.e. ``read_many`` would cost exactly what
    per-object gets cost."""
    for dev in store.devices():
        policy = dev.policy
        if policy.batch_size or policy.reorder_flag:
            return False
    return True


def measure_read_throughput(store: ObjectStore, state: WorkloadState,
                            nreads: int,
                            rng: Random | None = None) -> PhaseResult:
    """Random whole-object read sweep (the Figure 1 measurement).

    Policy-aware: when the store's :class:`~repro.disk.policy.
    DevicePolicy` asks for batching or elevator reordering, or the
    store models overlapped shard lanes, the sweep routes through
    :meth:`ObjectStore.read_many` so the policy actually governs the
    measured I/O (the Figure 1/4 path for request-scheduling and
    sharding studies).  With the default policy the sweep keeps the
    historical per-object ``get`` loop — cost-identical by the
    device's batching contract, and asserted so by the parity suite.

    Both paths draw the same keys from ``rng``, so the measured object
    population is identical whichever path runs.

    Event-queue stores (``queue=event``) take the per-object path:
    one ``read_many`` fan-out is a single giant round, which would
    yield one latency sample per shard; per-object gets make every
    read its own queued request, so the sweep produces a full sojourn
    distribution.
    """
    scheduler = getattr(store, "scheduler", None)
    if getattr(scheduler, "is_event", False) or (
            scheduler is None and _default_policy(store)):
        with measure(store, "read-sweep") as phase:
            phase.add_bytes(read_sweep(store, state, nreads, rng))
        return phase
    if nreads <= 0:
        raise ConfigError("nreads must be positive")
    rng = rng or state.rng
    keys = [rng.choice(state.keys) for _ in range(nreads)]
    with measure(store, "read-sweep") as phase:
        for key in keys:
            phase.add_bytes(store.meta(key).size)
        store.read_many(keys)
    return phase
