"""Scenario engine: drive a multi-tenant op stream against one store.

:func:`scenario_bulk_load` fills the store with per-tenant key
populations (``tenant-<i>-object-<n>``), then :func:`scenario_step`
interleaves tenant ops — Zipf-popular reads, safe-write overwrites,
TTL-bounded creates, and expiry deletes — with :func:`scenario_to_age`
looping until the shared store reaches a target storage age, exactly
like the paper loop's ``churn_to_age``.

Determinism and resume
----------------------
Every random decision draws from a labelled :func:`repro.rng.substream`
captured inside :class:`ScenarioState` (one stream per tenant plus one
for tenant interleaving), and the whole state — tenant RNGs, key
ownership, the TTL heap — pickles inside the run checkpoint.  A
killed-and-resumed scenario run therefore replays the identical op
stream and reproduces the uninterrupted record exactly; the resume
suite pins this.

Per-tenant latency accounting
-----------------------------
The engine holds no latency state.  Every store op — read, overwrite,
create and the TTL delete — runs inside ``with tagged(tenant)``, a
callable the caller hands in: the open measurement phase's
:attr:`~repro.core.throughput.PhaseResult.tagged` in an experiment run,
a no-op for direct callers.  What a tagged op costs (a queued sojourn
on a ``queue=event`` store, the summed device-clock delta elsewhere) and
where it is recorded is :func:`~repro.core.throughput.measure`'s
business; the phase reports it as ``latency``/``tenant_lat``, whose
tenant counts sum to the global count because every op goes through the
one seam.

Arrival-rate modulation
-----------------------
When the spec carries a wave (``amplitude``/``period``) the tenant mix
is modulated per-op with phase-shifted sine waves (bursts rotate across
tenants), and on a ``queue=event`` store with Poisson arrivals the
open-loop rate itself is re-anchored every eighth of a period via
:meth:`EventScheduler.set_arrival`, so the queueing tail breathes with
the diurnal cycle.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random

from repro.backends.base import ObjectStore
from repro.core.workload import WorkloadSpec, WorkloadState, has_room_for
from repro.disk.events import ArrivalSpec
from repro.errors import ConfigError, CorruptionError
from repro.rng import substream
from repro.scenario.spec import ScenarioSpec, TenantProfile
from repro.struct import KeyList

#: Safety valve for :func:`scenario_to_age`: if this many ops cannot
#: advance the storage age to the target, the spec/volume combination
#: is degenerate and we fail loudly instead of spinning.
MAX_OPS_PER_CALL = 5_000_000

#: TTL expiry never shrinks a tenant below this fraction of its
#: bulk-loaded population (floored at 2 keys), so read/overwrite ops
#: always have a population to draw from.
TTL_FLOOR_FRACTION = 0.25


@dataclass
class TenantState:
    """One tenant's mutable half of the scenario."""

    profile: TenantProfile
    rng: Random
    #: Live keys in creation order (a Zipf rank indexes into it).
    keys: KeyList[str] = field(default_factory=KeyList)
    #: Population at bulk-load end (TTL floor anchor).
    bulk_count: int = 0
    #: Zipf prefix sums by rank; grown lazily, never rebuilt (the
    #: weight of rank r is fixed, keys shift ranks as others expire).
    _cumw: list[float] = field(default_factory=list)
    # Books.
    ops: int = 0
    reads: int = 0
    overwrites: int = 0
    creates: int = 0
    expired: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def pick_key(self) -> str:
        """Zipf-ranked draw from the tenant's live keys."""
        n = len(self.keys)
        if n == 0:
            raise ConfigError(
                f"tenant {self.profile.name!r} has no keys to draw from"
            )
        s = self.profile.zipf
        if s <= 0.0:
            return self.keys[self.rng.randrange(n)]
        while len(self._cumw) < n:
            rank = len(self._cumw)
            prev = self._cumw[-1] if self._cumw else 0.0
            self._cumw.append(prev + 1.0 / (rank + 1) ** s)
        x = self.rng.random() * self._cumw[n - 1]
        # x < cumw[n-1] always (random() < 1), so the result is < n.
        return self.keys[bisect_left(self._cumw, x, 0, n)]

    @property
    def ttl_floor(self) -> int:
        return max(2, int(self.bulk_count * TTL_FLOOR_FRACTION))


@dataclass
class ScenarioState:
    """Everything a scenario run needs to continue — pickled whole
    inside the run checkpoint (see ``repro.core.experiment``)."""

    spec: ScenarioSpec
    workload: WorkloadState
    tenants: list[TenantState]
    #: (expire_op, seq, tenant_index, key) min-heap of pending expiries.
    ttl_heap: list[tuple[int, int, int, str]] = field(default_factory=list)
    op_index: int = 0
    ttl_seq: int = 0
    #: Interleaving stream: which tenant issues the next op.
    pick_rng: Random = field(default_factory=lambda: substream(0, "unused"))
    #: Live-byte ceiling (bulk-loaded bytes + 5%): creates that would
    #: push occupancy past the bulk-load level degrade to overwrites,
    #: so TTL churn recycles the population instead of growing it.
    live_cap: int = 0
    #: Open-loop base rate captured at the first wave update.
    base_rate: float = 0.0
    #: Last wave window ``set_arrival`` was issued for.
    wave_window: int = -1

    @property
    def bytes_written(self) -> int:
        """Logical bytes written so far (overwrites + creates)."""
        return sum(t.bytes_written for t in self.tenants)

    def check_invariants(self, store: ObjectStore) -> None:
        """Audit the engine's books against each other and ``store``."""
        keys, tenants = self.workload.keys, self.tenants
        for seq in (keys, *(t.keys for t in tenants)):
            seq.check()
        # Tenant sequences partition ``keys``, each in the same order.
        owner = {k: t for t in tenants for k in t.keys}
        if len(owner) != len(keys) or any(
                [k for k in keys if owner.get(k) is t] != list(t.keys)
                for t in tenants):
            raise CorruptionError("tenant keys do not partition the key list")
        if sum(t.ops for t in tenants) != self.op_index:
            raise CorruptionError("tenant op counts do not sum to op_index")
        live = sum(store.meta(k).size for k in keys)
        if live != self.workload.tracker.live_bytes:
            raise CorruptionError(f"tracker.live_bytes != {live} bytes stored")
        if not all(0 <= e[2] < len(tenants) for e in self.ttl_heap):
            raise CorruptionError("TTL heap names a tenant out of range")


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
#: How an op is timed and attributed: ``with tagged(tenant_name): op``.
Tagged = Callable[[str], AbstractContextManager[None]]

_UNTIMED = nullcontext()


def _untagged(tenant: str) -> AbstractContextManager[None]:
    """The ``tagged`` of a direct caller that measures nothing."""
    return _UNTIMED


#: ``id(spec) -> (spec, [(weight, wave phase) per tenant])``, kept out
#: of the pickled (and clock-charged) state like ``cost_tables``'s memo;
#: the entry holds its spec, so the id cannot be recycled under it.
_TENANT_TABLES: dict[int, tuple[ScenarioSpec, list[tuple[float, float]]]] = {}


def _tenant_table(spec: ScenarioSpec) -> list[tuple[float, float]]:
    """Each tenant's op weight and its wave phase ``tau * i / n``."""
    entry = _TENANT_TABLES.get(id(spec))
    if entry is None or entry[0] is not spec:
        n = len(spec.tenants)
        entry = _TENANT_TABLES[id(spec)] = (spec, [
            (t.weight, math.tau * i / n) for i, t in enumerate(spec.tenants)])
    return entry[1]


def _choose_tenant(state: ScenarioState) -> int:
    """Weighted draw over tenants, wave-modulated with per-tenant
    phase offsets so bursts rotate across the tenant set."""
    spec = state.spec
    table = _tenant_table(spec)
    n = len(table)
    if n == 1:
        return 0
    # Without a wave each factor is 1.0 + 0.0 * sin(phase) == 1.0 (and
    # ScenarioSpec validates that an amplitude comes with a period).
    amp = spec.wave_amplitude
    base = math.tau * state.op_index / spec.wave_period_ops if amp else 0.0
    # Running totals are a left fold (builtin sum() is not, from 3.12).
    cum: list[float] = []
    total = 0.0
    for weight, phase in table:
        total += weight * (1.0 + amp * math.sin(base + phase))
        cum.append(total)
    x = state.pick_rng.random() * total
    return min(bisect_right(cum, x), n - 1)


def _maybe_update_arrival(store: ObjectStore, state: ScenarioState) -> None:
    """Re-anchor the open-loop Poisson rate to the diurnal wave."""
    spec = state.spec
    if spec.wave_amplitude <= 0.0:
        return
    window = state.op_index // max(1, spec.wave_period_ops // 8)
    if window == state.wave_window:
        return
    sched = getattr(store, "scheduler", None)
    if (not getattr(sched, "is_event", False)
            or sched.arrival.mode != "poisson"):
        return
    if state.base_rate <= 0.0:
        state.base_rate = sched.arrival.rate
    state.wave_window = window
    angle = 2.0 * math.pi * state.op_index / spec.wave_period_ops
    rate = state.base_rate * (1.0 + spec.wave_amplitude * math.sin(angle))
    # A fresh seed per window keeps the inter-arrival stream from
    # replaying identically after every re-anchor; the rate keeps the
    # six significant digits of ``{:g}``, as the arrival text did.
    sched.set_arrival(ArrivalSpec(
        "poisson", rate=float(f"{rate:g}"), clients=sched.arrival.clients,
        seed=sched.arrival.seed * 1000 + (window % 1000)))


def _expire_due(store: ObjectStore, state: ScenarioState,
                tagged: Tagged) -> None:
    """Delete objects whose TTL has passed (respecting the floor)."""
    heap = state.ttl_heap
    while heap and heap[0][0] <= state.op_index:
        _, _, tidx, key = heapq.heappop(heap)
        tenant = state.tenants[tidx]
        if key not in tenant.keys:
            continue  # expired earlier (stale heap entry)
        if len(tenant.keys) <= tenant.ttl_floor:
            continue  # keep a working set; drop the expiry
        size = store.meta(key).size
        with tagged(tenant.profile.name):
            store.delete(key)
        state.workload.tracker.on_delete(size)
        tenant.keys.remove(key)
        state.workload.keys.remove(key)
        state.workload.versions.pop(key, None)
        tenant.expired += 1


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def scenario_bulk_load(store: ObjectStore, spec: WorkloadSpec,
                       scn: ScenarioSpec, seed: int) -> ScenarioState:
    """Fill a clean store with per-tenant populations (storage age 0).

    Bytes are split across tenants by their ``share`` weights; keys are
    named ``<tenant>-object-<n>`` with a store-wide object-id counter.
    Creating tenants get staggered expiries on their bulk keys so TTL
    churn starts immediately instead of after one full lifetime.
    """
    workload = WorkloadState(
        spec=spec, rng=substream(seed, f"scenario:{scn.seed}:workload"),
        keys=KeyList())
    tenants = [
        TenantState(
            profile=t,
            rng=substream(seed, f"scenario:{scn.seed}:tenant:{t.name}"),
        )
        for t in scn.tenants
    ]
    state = ScenarioState(
        spec=scn, workload=workload, tenants=tenants,
        pick_rng=substream(seed, f"scenario:{scn.seed}:pick"),
    )
    stats = store.store_stats()
    replicas = max(1, int(getattr(store, "replicas", 1)))
    target_bytes = int(stats.capacity * spec.target_occupancy) // replicas
    cum = list(accumulate(t.profile.share for t in tenants))
    total_share = cum[-1]
    loaded = 0
    while True:
        x = workload.rng.random() * total_share
        tidx = bisect_left(cum, x)
        if tidx >= len(tenants):
            tidx = len(tenants) - 1
        tenant = tenants[tidx]
        size = tenant.profile.sizes.draw(tenant.rng)
        if loaded + size > target_bytes or not has_room_for(store, size):
            break
        key = f"{tenant.profile.name}-object-{workload.next_object_id}"
        workload.next_object_id += 1
        store.put(key, size=size)
        workload.tracker.on_put(size)
        workload.keys.append(key)
        tenant.keys.append(key)
        loaded += size
    if not workload.keys:
        raise ConfigError(
            "volume too small for even one object at this occupancy"
        )
    state.live_cap = loaded + loaded // 20
    for tidx, tenant in enumerate(tenants):
        if not tenant.keys:
            raise ConfigError(
                f"volume too small to seed tenant "
                f"{tenant.profile.name!r}; shrink tenants or object sizes"
            )
        tenant.bulk_count = len(tenant.keys)
        ttl = tenant.profile.ttl_ops
        if ttl > 0 and tenant.profile.create_fraction > 0:
            for key in tenant.keys:
                expire = 1 + tenant.rng.randrange(ttl)
                heapq.heappush(state.ttl_heap,
                               (expire, state.ttl_seq, tidx, key))
                state.ttl_seq += 1
    return state


def scenario_step(store: ObjectStore, state: ScenarioState,
                  tagged: Tagged = _untagged) -> str:
    """One scenario op; returns the op kind (``read``/``overwrite``/
    ``create``).  Due TTL expiries are drained first and charged to the
    owning tenant.  Every store op runs inside ``tagged(tenant)`` (see
    the module docstring)."""
    _expire_due(store, state, tagged)
    tidx = _choose_tenant(state)
    tenant = state.tenants[tidx]
    prof = tenant.profile
    workload = state.workload
    r = tenant.rng.random()
    if r < prof.read_fraction and tenant.keys:
        kind = "read"
    elif r < prof.read_fraction + prof.overwrite_fraction and tenant.keys:
        kind = "overwrite"
    else:
        kind = "create"
    if kind == "create":
        size = prof.sizes.draw(tenant.rng)
        # Admission control: a create that would push live bytes past
        # the bulk-load occupancy (or into the store's free-space
        # margin) degrades to an overwrite of a popular key —
        # deterministic, and it keeps TTL churn recycling the
        # population instead of wedging the volume.
        if (workload.tracker.live_bytes + size > state.live_cap
                or not has_room_for(store, size)
                or prof.ttl_ops <= 0):
            kind = "overwrite" if tenant.keys else "read"
    if kind == "read":
        key = tenant.pick_key()
        size = store.meta(key).size
        with tagged(prof.name):
            store.get(key)
        tenant.reads += 1
        tenant.bytes_read += size
    elif kind == "overwrite":
        key = tenant.pick_key()
        old_size = store.meta(key).size
        new_size = prof.sizes.draw(tenant.rng)
        with tagged(prof.name):
            store.overwrite(key, size=new_size)
        workload.tracker.on_overwrite(old_size, new_size)
        workload.bytes_overwritten += new_size
        tenant.overwrites += 1
        tenant.bytes_written += new_size
    else:
        size = prof.sizes.draw(tenant.rng)
        key = f"{prof.name}-object-{workload.next_object_id}"
        workload.next_object_id += 1
        with tagged(prof.name):
            store.put(key, size=size)
        workload.tracker.on_put(size)
        workload.keys.append(key)
        tenant.keys.append(key)
        heapq.heappush(
            state.ttl_heap,
            (state.op_index + prof.ttl_ops, state.ttl_seq, tidx, key))
        state.ttl_seq += 1
        tenant.creates += 1
        tenant.bytes_written += size
    tenant.ops += 1
    state.op_index += 1
    _maybe_update_arrival(store, state)
    return kind


def scenario_to_age(store: ObjectStore, state: ScenarioState,
                    target_age: float, *, on_step=None,
                    tagged: Tagged = _untagged) -> int:
    """Run scenario ops until storage age reaches ``target_age``.

    Mirrors ``churn_to_age``: returns the op count, calling ``on_step``
    with the 1-based op index after each op (checkpoint cadence, fault
    injection, test kill points).  ``tagged`` is passed to every
    :func:`scenario_step`.
    """
    steps = 0
    tracker = state.workload.tracker
    while tracker.storage_age < target_age:
        scenario_step(store, state, tagged)
        steps += 1
        if on_step is not None:
            on_step(steps)
        if steps >= MAX_OPS_PER_CALL:
            raise ConfigError(
                f"scenario {state.spec.name!r} could not reach storage "
                f"age {target_age} within {MAX_OPS_PER_CALL} ops "
                f"(stuck at {tracker.storage_age:.3f}); the tenant mix "
                "writes too rarely for this volume"
            )
    return steps
