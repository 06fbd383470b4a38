"""Throughput measurement over modelled time.

The paper's primary indicator is application throughput: object bytes
moved divided by elapsed time (Section 5).  Elapsed time here is the
modelled time of a synchronous workload — device busy time (seeks,
rotation, media transfer, forced flushes) plus host CPU time — summed
across every device the backend touches.

:func:`measure` wraps any workload phase in per-device measurement
windows and fills its :class:`PhaseResult`; the throughput helpers
divide *logical* object bytes by the phase's total time, so metadata
I/O slows a phase down (as it should) without inflating its byte count.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from random import Random

from repro.backends.base import ObjectStore
from repro.core.workload import WorkloadState, read_sweep
from repro.disk.device import summed_clock_s
from repro.disk.events import LatencyHistogram
from repro.disk.iostats import WindowStats
from repro.errors import ConfigError

#: The counters of a device window, summed across devices.
_COUNTERS = tuple(f.name for f in fields(WindowStats) if f.name != "name")


@dataclass
class PhaseResult:
    """Logical bytes + modelled time for one measured phase: the one
    place a per-phase metric lives.

    :func:`measure` yields it open: inside the block the workload
    counts its bytes with :meth:`add_bytes` and times tenant ops
    through :attr:`tagged`; the fields below are set when the block
    exits.
    """

    name: str
    logical_bytes: int = 0
    #: The device windows summed in device order.
    window: WindowStats | None = None
    #: Overlapped wall time (scheduler wall plus serial host CPU) when
    #: the store runs an overlap scheduler, else :attr:`elapsed_s`.
    wall_s: float = 0.0
    #: :meth:`LatencyHistogram.summary` of the tagged ops (``{}`` when
    #: none), and per tenant tag (``None`` when nothing carried a tag).
    latency: dict[str, float] = field(default_factory=dict)
    tenant_lat: dict[str, dict[str, float]] | None = None
    #: ``with phase.tagged(tenant): store.get(key)`` times a tenant op.
    tagged: Callable[[str], contextlib.AbstractContextManager[None]] = field(
        kw_only=True, repr=False, compare=False)

    def add_bytes(self, nbytes: int) -> None:
        self.logical_bytes += nbytes

    @property
    def elapsed_s(self) -> float:
        """Serial-model elapsed time: device busy summed + host CPU."""
        return self.window.total_time_s

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


@contextlib.contextmanager
def measure(store: ObjectStore, name: str) -> Iterator[PhaseResult]:
    """Measure a phase::

        with measure(store, "read-sweep") as phase:
            phase.add_bytes(read_sweep(store, state, 100))
        print(phase.mbps)            # bytes/second

    On an event store :attr:`PhaseResult.tagged` is
    :meth:`EventScheduler.tagged`: sojourns, deferred completions
    included, land in the scheduler window.  Elsewhere there is no
    queueing model, so a block's summed device-clock delta is one sample.
    """
    devices = store.devices()
    windows = [dev.stats.start_window(name) for dev in devices]
    scheduler = getattr(store, "scheduler", None)
    sched_window = (scheduler.start_window(name)
                    if scheduler is not None else None)
    if getattr(scheduler, "is_event", False):
        tagged = scheduler.tagged
        latency = sched_window.latency
        tenants = sched_window.tenant_latency
    else:
        latency = LatencyHistogram()
        tenants = defaultdict(LatencyHistogram)

        @contextlib.contextmanager
        def tagged(tag: str) -> Iterator[None]:
            t0 = summed_clock_s(devices)
            yield
            delta_s = summed_clock_s(devices) - t0
            latency.record(delta_s)
            tenants[tag].record(delta_s)
    phase = PhaseResult(name, tagged=tagged)
    try:
        yield phase
    finally:
        total = WindowStats(name=name)
        for dev, win in zip(devices, windows):
            dev.stats.end_window(win)
            for counter in _COUNTERS:
                setattr(total, counter,
                        getattr(total, counter) + getattr(win, counter))
        phase.window = total
        phase.wall_s = total.total_time_s
        if sched_window is not None:
            # An event scheduler drains here, so the histograms below
            # include requests still in flight at close.
            scheduler.end_window(sched_window)
            # Device lanes overlap; host CPU time stays serial.
            phase.wall_s = sched_window.wall_time_s + total.cpu_time_s
        phase.latency = latency.summary() if latency.count else {}
        if tenants:
            phase.tenant_lat = {tag: hist.summary()
                                for tag, hist in sorted(tenants.items())}


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
