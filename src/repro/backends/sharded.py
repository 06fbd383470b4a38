"""Multi-volume composite: :class:`ShardedStore`.

The ROADMAP's north star asks for aggregate multi-device throughput;
related work (SEARS, arXiv:1508.01182) gets there by spreading objects
across many small stores instead of scaling one.  ``ShardedStore`` is
that composite for this codebase: an :class:`ObjectStore` that stripes
keys over N inner stores (each with its own device, free-space index,
and cleaner), so every driver written against the protocol — the
experiment runner, the workload books, the fragmentation
analyzers — runs unchanged over a multi-volume layout.

Placement policies (``spec.placement``):

* ``hash`` — stable CRC32 of the key; spreads any key population
  uniformly and needs no state to route reads.
* ``round_robin`` — strict rotation in put order; the best spread for
  bulk loads of same-sized objects.
* ``size_banded`` — shard index by size band (geometric bands doubling
  from ``band_bytes``), segregating small from large objects the way
  mixed-workload deployments do to keep small-object churn from
  fragmenting large-object volumes.

Placement is **sticky**: an object stays on the shard that first stored
it; ``overwrite`` never migrates (a safe write that hopped shards would
charge cross-volume copies the paper's workload does not contain).
``delete`` followed by a fresh ``put`` re-places, and moves the key to
the end of :meth:`keys` — exactly the protocol's insertion-order
contract.

Stats aggregate across shards: :meth:`store_stats` sums the per-shard
:class:`StoreStats` fields, :meth:`devices` concatenates every shard's
devices (so measurement windows span all volumes), and
:meth:`layouts` reports each object's spans from its first live holder,
one pass per shard (offsets are per-shard device addresses; fragment
counts coalesce within one object and therefore within one shard, so
reports stay exact).

Overlapping device time
-----------------------
With ``overlap=True`` the composite runs a
:class:`~repro.disk.schedule.ShardScheduler`: every store operation is
one *dispatch round* whose per-shard device-time deltas are lanes that
overlap (fan-out calls like :meth:`read_many` put every touched shard
in one round; single-shard ops are one-lane rounds).  The scheduler's
accumulated makespan is the store's overlapped wall time, reported by
measurement windows alongside the historical summed device time — the
concurrency model that makes ``shards=4`` an actual speedup instead
of four summed seek streams.

``queue="event"`` layers the event-driven simulator
(:class:`~repro.disk.events.EventScheduler`) under the same dispatch
rounds: each lane becomes a request in its shard's bounded FIFO with
enqueue/dispatch/complete timestamps, so measurement windows also
report p50/p95/p99 sojourn latency.  Under closed arrivals the event
model reduces to the round makespan exactly; ``arrival=
"poisson:rate=..."`` re-times requests onto an open-loop timeline so
saturation shows up as a latency tail.  Backoff and rebuild-throttle
stalls flow through :meth:`_charge_stall` into the same queue
timeline, so background pauses contend with foreground traffic.

Rebalancing
-----------
:meth:`rebalance` migrates objects between shards — ``mode="even"``
greedily moves objects from the fullest to the emptiest shard until no
move narrows the spread (the occupancy-skew fix for unlucky hash
placement), ``mode="placement"`` re-applies the placement policy to
every key (healing drift from delete/re-put under ``round_robin`` or
resized bands).  Migration copies before it deletes, so every object
stays readable mid-migration; all migration I/O is charged through the
shards' normal get/put paths and surfaces in
:attr:`StoreStats.migrated_objects` / ``migrated_bytes``.  The key →
shard map only has values updated, never reinserted, so the
:meth:`keys` insertion-order contract survives any rebalance.

Like rebuild, rebalancing is throttled as a duty cycle:
``rebalance_rate=R`` (spec key of the same name; per-call ``rate=``
override) stalls ``copy_time * (1-R)/R`` after each migrated object, so
a gentler rebalance takes proportionally longer while leaving the
devices free for foreground requests between copies.  The report's
``copy_device_s`` / ``stall_s`` split the cost the same way rebuild's
does.

Charged background writes
-------------------------
:meth:`background_write` charges a byte volume of non-addressable
background write traffic — checkpoint write-back is the driver's use —
through the normal dispatch machinery: the bytes split evenly over the
live shards, each lane charging a sequential streaming write
(:meth:`~repro.disk.device.BlockDevice.charge_sequential_write`) inside
one multi-lane dispatch round, followed by the ``rate`` duty-cycle
stall.  Under ``queue=event`` the round enters the same per-shard FIFOs
as foreground requests, so an in-flight checkpoint visibly fattens the
foreground latency tail; the spec's ``checkpoint_rate`` (default 0 =
uncharged) sets the default duty cycle.

Replication & degraded operation
--------------------------------
With ``replicas=k`` every object lands on its placement-chosen
*primary* shard plus the next ``k-1`` healthy shards in ring order —
always distinct shards, so any single-shard loss leaves at least
``k-1`` copies.  A write fans out to every holder inside **one**
multi-lane dispatch round (replica lanes overlap under the scheduler,
so ``replicas=2`` costs roughly one write of wall time, two of device
time).  The primary stays the routing entry in the key map, preserving
the :meth:`keys` order contract; replica holders live in a side map.

Reads degrade instead of failing.  A :class:`~repro.errors.
TransientIoError` is retried against the same shard through
:func:`~repro.disk.faults.retry_read` (the one retry policy, shared with
the leaf stores' cleaner and collector reads), its capped exponential
backoff charged as modelled time (a scheduler stall under the overlap
model, device CPU time otherwise); a dead shard — marked by
:meth:`fail_shard`, an ``at_age`` loss clause firing, or the device
raising :class:`~repro.errors.ShardLostError` — fails the read over to
the next surviving holder.  Every skip/abandonment counts as a
``failover``, every re-issue as a ``retry``, and every read served by a
non-primary holder as a ``degraded_read`` (surfaced through
:class:`~repro.backends.base.StoreStats`).  Only when *no* holder of a
key survives does the composite raise
:class:`~repro.errors.ShardUnavailableError` — degradation is per-key:
keys with surviving replicas stay readable and writable (writes simply
skip dead holders, leaving the key under-replicated until rebuild).
A rebuild or rebalance copy retries its source read the same way,
charging the backoff inside its background round: the one step
(``_background``) through which every copy and write-back reaches the
devices and then pays its duty-cycle stall.

:meth:`rebuild` restores redundancy: it walks the key map, re-copies
every under-replicated object from its first surviving holder onto the
next healthy shards (ring order, never a shard that already holds a
copy), and re-routes dead holders out of the maps.  Copies ride the
normal two-lane dispatch rounds — rebuild traffic contends with
foreground I/O on the same devices — and a ``rebuild_rate=R`` throttle
models a background task running at duty cycle ``R``: after each copy
the pass stalls ``copy_time * (1-R)/R`` of wall time, so a gentler
rebuild takes proportionally longer without occupying the devices.
Rebuild and rebalance are crash-safe and idempotent: routing is only
updated after a copy completes, every copy first deletes a leftover
copy of a crashed pass from its target and re-copies (never adopts —
it may be torn), and a second pass over a healthy store does nothing.
"""

from __future__ import annotations

import contextlib
import zlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import islice

from repro.backends.base import ObjectMeta, ObjectStore, StoreStats
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice, summed_clock_s
from repro.disk.events import EventScheduler
from repro.disk.faults import retry_read
from repro.disk.schedule import ShardScheduler, throttle_pause
from repro.errors import (ConfigError, ObjectNotFoundError, ShardLostError,
                          ShardUnavailableError, TransientIoError)
from repro.units import Span, checked_write_size

#: Supported :meth:`ShardedStore.rebalance` modes.
REBALANCE_MODES = ("even", "placement")


def _no_replica(key: str) -> ShardUnavailableError:
    return ShardUnavailableError(f"no surviving replica of {key!r}")


def _duty_cycle(name: str, rate: float, *, off_ok: bool = False) -> float:
    """``rate`` if it is a background job's duty cycle: in (0, 1], or
    also 0 where that switches the job's charge off (``off_ok``)."""
    above_floor = rate >= 0.0 if off_ok else rate > 0.0
    if not (above_floor and rate <= 1.0):
        raise ConfigError(
            f"{name} must be in {'[' if off_ok else '('}0, 1], got {rate}")
    return rate


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`ShardedStore.rebalance` call did."""

    mode: str
    moved_objects: int
    moved_bytes: int
    #: max/min per-shard occupancy before and after the migration.
    skew_before: float
    skew_after: float
    #: Device seconds spent copying, and throttle stall wall seconds.
    copy_device_s: float = 0.0
    stall_s: float = 0.0


@dataclass(frozen=True)
class RebuildReport:
    """What one :meth:`ShardedStore.rebuild` pass did."""

    #: Keys walked / re-replicated / re-replicated bytes.
    examined: int
    rebuilt_objects: int
    rebuilt_bytes: int
    #: Keys whose every holder is dead — data gone, nothing to copy.
    unreachable: int
    #: Keys still short of full redundancy after the pass (only nonzero
    #: when ``max_objects`` stopped it early or shards ran out).
    under_replicated_after: int
    #: Device seconds spent copying, and throttle stall wall seconds.
    copy_device_s: float
    stall_s: float


class ShardedStore:
    """Stripe keys over N inner object stores."""

    def __init__(self, shards: Sequence[ObjectStore],
                 spec: StoreSpec) -> None:
        """Compose ``shards`` under the resolved ``spec`` that
        :func:`~repro.backends.registry.build_store` built them from.

        Every knob and its validation lives in the spec (a
        :class:`StoreSpec` checks them all when it is built); the store
        keeps the values it reads, never the spec itself, so what a
        checkpoint pickles is the store's own state.
        """
        if len(shards) != spec.shards:
            raise ConfigError(
                f"spec has shards={spec.shards}, got {len(shards)} shards")
        self.shards = list(shards)
        self.placement = spec.placement
        self.band_bytes = spec.band_bytes
        self.replicas = spec.replicas
        self.fault_profile = spec.faults
        self.rebuild_rate = spec.rebuild_rate
        self.rebalance_rate = spec.rebalance_rate
        self.checkpoint_rate = spec.checkpoint_rate
        inner = {s.name for s in self.shards}
        inner_name = inner.pop() if len(inner) == 1 else "mixed"
        self.name = f"sharded[{len(self.shards)}x{inner_name}]"
        #: key -> primary shard index; insertion order IS the composite
        #: key order.
        self._shard_of: dict[str, int] = {}
        #: key -> non-primary holder indices (absent when replicas == 1).
        self._replica_of: dict[str, tuple[int, ...]] = {}
        #: Permanently lost shard indices.
        self._dead_shards: set[int] = set()
        self._rr_next = 0
        #: Overlap scheduler (None = historical summed-time model).
        #: ``queue=event`` swaps in the event-driven simulator, which
        #: adds per-request latency on top of the same interface.
        if not spec.overlap:
            self.scheduler = None
        elif spec.queue == "event":
            self.scheduler = EventScheduler(
                len(self.shards),
                parallelism=spec.parallelism,
                dispatch_overhead_s=spec.dispatch_overhead_s,
                depth=spec.queue_depth,
                arrival=spec.arrival,
            )
        else:
            self.scheduler = ShardScheduler(
                parallelism=spec.parallelism,
                dispatch_overhead_s=spec.dispatch_overhead_s,
            )
        #: Per-shard device lists, cached: lane time deltas are read on
        #: every dispatch round and the lists never change.
        self._lane_devices = [list(s.devices()) for s in self.shards]
        self.migrated_objects = 0
        self.migrated_bytes = 0
        self.degraded_reads = 0
        self.retries = 0
        self.failovers = 0
        self.rebuilt_objects = 0
        self.rebuilt_bytes = 0
        # Loss clauses without an age trigger fire at construction.
        self.apply_age_faults(None)

    # ------------------------------------------------------------------
    # Dispatch rounds (overlap model)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _dispatch(self, indices: Sequence[int], *,
                  background: bool = False):
        """One scheduler round over the given shard lanes.

        Captures each involved shard's device-clock delta across the
        wrapped operation and records the round's makespan; a no-op
        when the overlap model is off.  ``background`` routes the
        round down the scheduler's background lane (maintenance I/O:
        migration copies, checkpoint write-back) so it shares the
        devices without impersonating foreground arrivals.
        """
        sched = self.scheduler
        if sched is None:
            yield
            return
        lanes = [self._lane_devices[i] for i in indices]
        before = [summed_clock_s(devs) for devs in lanes]
        try:
            yield
        finally:
            sched.record_round([
                summed_clock_s(devs) - b for devs, b in zip(lanes, before)
            ], indices=tuple(indices), background=background)

    def _one_lane(self, index: int, op, *args, **kwargs):
        """``op(*args, **kwargs)`` as a one-lane foreground round on shard
        ``index``: what ``_dispatch((index,))`` records, as one plain
        call (every single-shard op on an unreplicated store is one)."""
        sched = self.scheduler
        if sched is None:
            return op(*args, **kwargs)
        devs = self._lane_devices[index]
        before = summed_clock_s(devs)
        try:
            return op(*args, **kwargs)
        finally:
            sched.record_round([summed_clock_s(devs) - before], (index,))

    def _each(self, indices: Sequence[int], name: str, key: str,
              **kwargs) -> None:
        """Call shard method ``name`` on ``key`` at every shard in
        ``indices``, inside one foreground dispatch round."""
        if len(indices) == 1:
            op = getattr(self.shards[indices[0]], name)
            self._one_lane(indices[0], op, key, **kwargs)
        else:
            with self._dispatch(tuple(indices)):
                for i in indices:
                    getattr(self.shards[i], name)(key, **kwargs)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, key: str, size: int) -> int:
        n = len(self.shards)
        if self.placement == "hash":
            return zlib.crc32(key.encode("utf-8")) % n
        if self.placement == "round_robin":
            index = self._rr_next % n
            self._rr_next += 1
            return index
        # size_banded: bands double from band_bytes; the last shard
        # takes everything beyond the top band.
        band = 0
        threshold = self.band_bytes
        while size > threshold and band < n - 1:
            band += 1
            threshold *= 2
        return band

    def shard_for(self, key: str) -> int:
        """Index of the primary shard of ``key`` (raises when absent)."""
        try:
            return self._shard_of[key]
        except KeyError:
            raise ObjectNotFoundError(f"no object {key!r}") from None

    def holders_of(self, key: str) -> tuple[int, ...]:
        """Every shard holding a copy of ``key``, primary first."""
        return (self.shard_for(key), *self._replica_of.get(key, ()))

    def _route(self, key: str, holders: Sequence[int]) -> None:
        """Record ``holders`` (primary first) as the copies of ``key``.
        For a known key this is a value update, so keys() order holds."""
        self._shard_of[key] = holders[0]
        if len(holders) > 1:
            self._replica_of[key] = tuple(holders[1:])
        else:
            self._replica_of.pop(key, None)

    def _live_holders(self, key: str, *, need: bool = True) -> list[int]:
        """Holders of ``key`` on live shards, primary first; raises when
        none survives unless the caller handles that (``need=False``)."""
        live = list(self.holders_of(key))
        if self._dead_shards:
            live = [i for i in live if i not in self._dead_shards]
        if need and not live:
            raise _no_replica(key)
        return live

    @property
    def dead_shards(self) -> tuple[int, ...]:
        """Permanently lost shard indices, ascending."""
        return tuple(sorted(self._dead_shards))

    def _live_ring(self, index: int) -> Iterator[int]:
        """The healthy shards after ``index``, in ring order."""
        n = len(self.shards)
        for j in range(1, n):
            candidate = (index + j) % n
            if candidate not in self._dead_shards:
                yield candidate

    def _place_live(self, key: str, size: int) -> int:
        """Placement-chosen shard, advanced in ring order past the dead."""
        index = self._place(key, size)
        if index not in self._dead_shards:
            return index
        for candidate in self._live_ring(index):
            return candidate
        raise ShardUnavailableError("no healthy shard to place on")

    def _charge_stall(self, index: int, seconds: float) -> None:
        """Charge host-side waiting (backoff, throttle) as modelled time.

        Under the overlap model the devices are genuinely idle while we
        wait, so the stall is pure wall time on the scheduler; without
        one, it lands as CPU time on the shard's device stats so the
        summed model sees it too.
        """
        if seconds <= 0.0:
            return
        if self.scheduler is not None:
            self.scheduler.record_stall(seconds)
        else:
            devs = self._lane_devices[index]
            if devs:
                devs[0].stats.record_cpu(seconds)

    def _back_off(self, index: int, seconds: float) -> None:
        """Count one transient-read retry and charge its backoff."""
        self.retries += 1
        self._charge_stall(index, seconds)

    def _background(self, indices: tuple[int, ...], work, rate: float,
                    stall_at: int) -> tuple[float, float]:
        """Run ``work()`` as one background round over the shard lanes
        ``indices``, then charge the duty-cycle stall at shard
        ``stall_at``.  Returns the lanes' device seconds and the stall."""
        lanes = [d for i in indices for d in self._lane_devices[i]]
        before = summed_clock_s(lanes)
        with self._dispatch(indices, background=True):
            work()
        spent = summed_clock_s(lanes) - before
        if rate >= 1.0:
            return spent, 0.0
        pause = throttle_pause(spent, rate)
        self._charge_stall(stall_at, pause)
        return spent, pause

    # ------------------------------------------------------------------
    # ObjectStore interface
    # ------------------------------------------------------------------
    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        # Checked before placement moves a cursor (shards check write_request).
        total = checked_write_size(size, data)
        # A duplicate put must fail with the inner backend's error, so
        # route it to the owning shard rather than re-placing.
        index = self._shard_of.get(key)
        if index is not None:
            targets = [index]
        else:
            targets = [self._place_live(key, total)]
            if self.replicas > 1:
                # Ring order keeps the holder set deterministic; short
                # of healthy shards the object starts under-replicated
                # (rebuild cannot improve on it until shards are added).
                targets += islice(self._live_ring(targets[0]),
                                  self.replicas - 1)
        # The write fans out to every holder inside one dispatch round,
        # so replica lanes overlap under the scheduler.
        self._each(targets, "put", key, size=size, data=data)
        if index is None:
            self._route(key, targets)

    def get(self, key: str, offset: int = 0,
            length: int | None = None) -> bytes | None:
        holders = self.holders_of(key)
        primary = holders[0]
        for index in holders:
            if index in self._dead_shards:
                self.failovers += 1
                continue
            read = self.shards[index].get
            try:
                try:
                    value = self._one_lane(index, read, key, offset, length)
                except TransientIoError:
                    value = retry_read(partial(self._back_off, index),
                                       self._one_lane, index, read, key,
                                       offset, length)
            except TransientIoError:
                self.failovers += 1
                continue  # retries spent: give this holder up
            except ShardLostError:
                # The device knows before we do; remember it.
                self._dead_shards.add(index)
                self.failovers += 1
                continue
            if index != primary:
                self.degraded_reads += 1
            return value
        raise _no_replica(key)

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        checked_write_size(size, data)
        live = self._live_holders(key)
        # Dead holders are skipped, not retried: the key runs
        # under-replicated (and its dead copy stale) until rebuild().
        self._each(live, "overwrite", key, size=size, data=data)

    def delete(self, key: str) -> None:
        live = self._live_holders(key, need=False)
        self._each(live, "delete", key)
        # Copies on dead shards died with their devices; dropping the
        # catalog entry is all that is left to do.
        del self._shard_of[key]
        self._replica_of.pop(key, None)

    def exists(self, key: str) -> bool:
        return key in self._shard_of

    def _first_live(self, key: str) -> int:
        """The first live holder of ``key`` (its primary if none died)."""
        if self._dead_shards:
            return self._live_holders(key)[0]
        return self.shard_for(key)

    def meta(self, key: str) -> ObjectMeta:
        return self.shards[self._first_live(key)].meta(key)

    def keys(self) -> list[str]:
        return list(self._shard_of)

    def read_many(self, keys: list[str]) -> list[bytes | None]:
        by_shard: dict[int, list[tuple[int, str]]] = {}
        #: Positions served by the per-key retry/failover path below.
        per_key: list[int] = []
        results: list[bytes | None] = [None] * len(keys)
        for pos, key in enumerate(keys):
            index = self.shard_for(key)
            if index in self._dead_shards:
                # Failover requests are not batched.
                per_key.append(pos)
            else:
                by_shard.setdefault(index, []).append((pos, key))
        # One fan-out = one dispatch round: every touched shard serves
        # its sub-sweep on its own devices, so the lanes overlap.
        with self._dispatch(tuple(by_shard)):
            for index, members in by_shard.items():
                try:
                    shard_results = self.shards[index].read_many(
                        [key for _, key in members]
                    )
                except TransientIoError:
                    # The whole sub-sweep failed; re-issue its keys
                    # through the per-key path (one counted retry).
                    self.retries += 1
                    per_key.extend(pos for pos, _ in members)
                    continue
                except ShardLostError:
                    self._dead_shards.add(index)
                    per_key.extend(pos for pos, _ in members)
                    continue
                for (pos, _), value in zip(members, shard_results):
                    results[pos] = value
        for pos in per_key:
            results[pos] = self.get(keys[pos])
        return results

    def object_extents(self, key: str) -> list[Span]:
        return next(self.layouts((key,)))

    def layouts(self, keys: Sequence[str]) -> Iterator[list[Span]]:
        # Each first live holder reads its keys in one pass.  Shards
        # share no metadata, so only the order within a shard is
        # charged, and that is the keys' order.  A key that cannot be
        # routed raises after the keys before it, as per key.
        holders: list[int] = []
        by_shard: dict[int, list[str]] = {}
        unroutable = None
        for key in keys:
            try:
                index = self._first_live(key)
            except (ObjectNotFoundError, ShardUnavailableError) as exc:
                unroutable = exc
                break
            holders.append(index)
            by_shard.setdefault(index, []).append(key)
        streams = {index: self.shards[index].layouts(members)
                   for index, members in by_shard.items()}
        for index in holders:
            yield next(streams[index])
        if unroutable is not None:
            raise unroutable

    def devices(self) -> list[BlockDevice]:
        return [dev for lane in self._lane_devices for dev in lane]

    def free_bytes(self) -> int:
        return sum(shard.free_bytes() for shard in self.shards)

    def store_stats(self) -> StoreStats:
        # ``objects`` counts *logical* objects (the catalog); byte and
        # capacity fields stay physical sums, so with replication
        # ``live_bytes`` is roughly ``replicas ×`` the logical volume.
        totals = StoreStats(objects=len(self._shard_of), live_bytes=0,
                            free_bytes=0, capacity=0,
                            migrated_objects=self.migrated_objects,
                            migrated_bytes=self.migrated_bytes,
                            degraded_reads=self.degraded_reads,
                            retries=self.retries,
                            failovers=self.failovers,
                            rebuilt_objects=self.rebuilt_objects,
                            rebuilt_bytes=self.rebuilt_bytes)
        for stats in self.shard_stats():
            totals.live_bytes += stats.live_bytes
            totals.free_bytes += stats.free_bytes
            totals.capacity += stats.capacity
        return totals

    # ------------------------------------------------------------------
    # Faults, failover bookkeeping, and rebuild
    # ------------------------------------------------------------------
    def fail_shard(self, index: int) -> None:
        """Permanently kill one shard (its devices raise from now on)."""
        if not 0 <= index < len(self.shards):
            raise ConfigError(
                f"shard index {index} out of range [0, {len(self.shards)})")
        if index in self._dead_shards:
            return
        self._dead_shards.add(index)
        for dev in self._lane_devices[index]:
            mark = getattr(dev, "mark_lost", None)
            if mark is not None:
                mark()

    def apply_age_faults(self, age: float | None) -> list[int]:
        """Fire the fault profile's due ``loss`` clauses; returns them.

        ``age=None`` fires only untimed clauses (construction-time
        losses); otherwise every not-yet-fired clause with
        ``at_age <= age`` kills its shard.  The experiment runner calls
        this once per sampled age.
        """
        if self.fault_profile is None:
            return []
        fired: list[int] = []
        for clause in self.fault_profile.losses:
            if clause.shard in self._dead_shards:
                continue
            due = (clause.at_age is None
                   or (age is not None and age >= clause.at_age))
            if due:
                self.fail_shard(clause.shard)
                fired.append(clause.shard)
        return fired

    def under_replicated(self) -> list[str]:
        """Keys with fewer live copies than the store can hold now."""
        healthy = len(self.shards) - len(self._dead_shards)
        want = min(self.replicas, healthy)
        return [key for key in self._shard_of
                if len(self._live_holders(key, need=False)) < want]

    def rebuild(self, *, rate: float | None = None,
                max_objects: int | None = None) -> RebuildReport:
        """Re-replicate under-replicated objects onto healthy shards.

        Walks the catalog in key order; every key short of
        ``min(replicas, healthy shards)`` live copies is copied from
        its first surviving holder onto the next healthy shards in ring
        order (never one that already holds it), then re-routed so dead
        holders drop out of the maps.  ``rate`` (default the store's
        ``rebuild_rate``) throttles the pass as a duty cycle — see the
        module docstring — and ``max_objects`` bounds one invocation so
        callers can interleave rebuild slices with foreground work.

        Safe to crash and re-run: routing updates only follow completed
        copies, and a leftover target copy is deleted and re-copied
        rather than adopted (it may be torn), so replicas are neither
        lost nor double-counted across a crash.
        """
        rate = _duty_cycle("rebuild rate",
                           self.rebuild_rate if rate is None else rate)
        healthy = len(self.shards) - len(self._dead_shards)
        want = min(self.replicas, healthy)
        examined = rebuilt = rebuilt_bytes = unreachable = 0
        copy_s = stall_s = 0.0
        stopped = False
        for key in list(self._shard_of):
            if max_objects is not None and rebuilt >= max_objects:
                stopped = True
                break
            examined += 1
            live = self._live_holders(key, need=False)
            if not live:
                unreachable += 1
                continue
            if len(live) == len(self.holders_of(key)) and len(live) >= want:
                continue
            src = live[0]
            size = self.shards[src].meta(key).size
            held = len(live)
            for dst in self._live_ring(src):
                if len(live) >= want:
                    break
                if dst in live:
                    continue
                spent, stall = self._background(
                    (src, dst), partial(self._copy, key, size, src, dst),
                    rate, dst)
                copy_s += spent
                stall_s += stall
                live.append(dst)
            # Promote the first live holder to primary, drop dead ones.
            self._route(key, live)
            if len(live) > held:
                rebuilt += 1
                rebuilt_bytes += size
        self.rebuilt_objects += rebuilt
        self.rebuilt_bytes += rebuilt_bytes
        return RebuildReport(
            examined=examined,
            rebuilt_objects=rebuilt,
            rebuilt_bytes=rebuilt_bytes,
            unreachable=unreachable,
            under_replicated_after=(
                len(self.under_replicated()) if stopped else 0),
            copy_device_s=copy_s,
            stall_s=stall_s,
        )

    def _copy(self, key: str, size: int, src_index: int,
              dst_index: int) -> None:
        """Copy ``key`` between shards, inside the caller's round.  A copy
        already on the target (a crashed pass's leftover) is dropped
        first: replaced, never adopted, as it may be torn.  The source
        read retries transient faults like :meth:`get` does, its backoff
        stalls charged inside the same round."""
        read = self.shards[src_index].get
        try:
            data = read(key)
        except TransientIoError:
            data = retry_read(partial(self._back_off, src_index), read, key)
        dst = self.shards[dst_index]
        if dst.exists(key):
            dst.delete(key)
        dst.put(key, size=size if data is None else None, data=data)

    # ------------------------------------------------------------------
    # Rebalancing / migration
    # ------------------------------------------------------------------
    def occupancy_skew(self) -> float:
        """max/min per-shard occupancy (``inf`` when a shard is empty
        while another holds data; 1.0 for a perfectly even or idle
        store)."""
        occupancies = [stats.occupancy for stats in self.shard_stats()]
        hi, lo = max(occupancies), min(occupancies)
        if lo <= 0.0:
            return float("inf") if hi > 0.0 else 1.0
        return hi / lo

    def rebalance(self, *, mode: str = "even", on_move=None,
                  rate: float | None = None) -> RebalanceReport:
        """Migrate objects between shards; returns what moved.

        ``mode="even"`` greedily narrows the live-byte spread: move the
        object from the fullest shard whose size best splits the gap to
        the emptiest shard, until no single move improves the spread.
        ``mode="placement"`` re-applies the placement policy to every
        key in composite key order and moves whatever landed elsewhere
        (``round_robin`` redeals the rotation from shard 0).

        Every migration copies to the target shard *before* deleting
        from the source and only then updates the routing map, so
        concurrent readers — including an ``on_move(key, src, dst)``
        callback fired mid-migration — always find the object.  All
        migration I/O goes through the shards' ordinary ``get``/``put``
        paths (and, under the overlap model, one two-lane dispatch
        round per object).  ``rate`` (default the store's
        ``rebalance_rate``) throttles the pass as a duty cycle: after
        each migrated object the pass stalls ``copy_time * (1-R)/R`` of
        wall time, leaving the devices idle for foreground traffic.
        """
        if mode not in REBALANCE_MODES:
            raise ConfigError(
                f"unknown rebalance mode {mode!r}; "
                f"choose from {REBALANCE_MODES}"
            )
        rate = _duty_cycle("rebalance rate",
                           self.rebalance_rate if rate is None else rate)
        if self._dead_shards:
            raise ConfigError(
                f"cannot rebalance with dead shards {self.dead_shards}; "
                "run rebuild() to restore redundancy first"
            )
        skew_before = self.occupancy_skew()
        sizes = {key: self.shards[index].meta(key).size
                 for key, index in self._shard_of.items()}
        if mode == "placement":
            moves = self._plan_placement(sizes)
        else:
            moves = self._plan_even(sizes)
        if self.replicas > 1:
            # Never migrate a primary onto a shard that already holds
            # one of its replicas (the put would collide); rebalancing
            # considers primary copies only.
            moves = [(key, src, dst) for key, src, dst in moves
                     if dst not in self._replica_of.get(key, ())]
        copy_s = stall_s = 0.0
        for key, src, dst in moves:
            spent, stall = self._background(
                (src, dst), partial(self._migrate, key, sizes[key], src, dst,
                                    on_move), rate, dst)
            self.migrated_objects += 1
            self.migrated_bytes += sizes[key]
            copy_s += spent
            stall_s += stall
        return RebalanceReport(
            mode=mode,
            moved_objects=len(moves),
            moved_bytes=sum(sizes[key] for key, _, _ in moves),
            skew_before=skew_before,
            skew_after=self.occupancy_skew(),
            copy_device_s=copy_s,
            stall_s=stall_s,
        )

    def _plan_placement(self, sizes: dict[str, int]) -> list:
        """Moves that restore the placement policy's shard choice."""
        moves = []
        rr = 0
        for key, current in self._shard_of.items():
            if self.placement == "round_robin":
                desired = rr % len(self.shards)
                rr += 1
            else:
                desired = self._place(key, sizes[key])
            if desired != current:
                moves.append((key, current, desired))
        if self.placement == "round_robin":
            self._rr_next = rr
        return moves

    def _plan_even(self, sizes: dict[str, int]) -> list:
        """Greedy spread-narrowing moves over live bytes.

        Each step moves one object from the fullest to the emptiest
        shard, picking the size closest to half their gap (the move
        that most evens the pair); a move is only taken when it
        strictly narrows the gap, so the plan terminates and never
        oscillates.
        """
        live = [0] * len(self.shards)
        members: list[dict[str, int]] = [{} for _ in self.shards]
        for key, index in self._shard_of.items():
            live[index] += sizes[key]
            members[index][key] = sizes[key]
        moves = []
        for _ in range(2 * len(sizes) + len(self.shards)):
            src = max(range(len(live)), key=live.__getitem__)
            dst = min(range(len(live)), key=live.__getitem__)
            gap = live[src] - live[dst]
            if gap <= 0:
                break
            best = min(
                (key for key, size in members[src].items()
                 if 0 < size < gap),
                key=lambda key: abs(gap - 2 * members[src][key]),
                default=None,
            )
            if best is None:
                break
            size = members[src].pop(best)
            members[dst][best] = size
            live[src] -= size
            live[dst] += size
            moves.append((best, src, dst))
        return moves

    def _migrate(self, key: str, size: int, src_index: int,
                 dst_index: int, on_move) -> None:
        """Copy ``key`` to its new shard, re-route, then delete."""
        self._copy(key, size, src_index, dst_index)
        # Routing flips only once the copy is complete; a dict value
        # update keeps the key's position, preserving the keys()
        # insertion-order contract.
        self._shard_of[key] = dst_index
        if on_move is not None:
            on_move(key, src_index, dst_index)
        self.shards[src_index].delete(key)

    # ------------------------------------------------------------------
    # Charged background writes
    # ------------------------------------------------------------------
    def background_write(self, nbytes: int, *,
                         rate: float | None = None) -> float:
        """Charge background write traffic through the normal lanes.

        ``nbytes`` splits evenly over the live shards; each lane charges
        one sequential streaming write inside a single multi-lane
        dispatch round, so under the overlap model the traffic occupies
        the same queues as foreground requests.  ``rate`` (default the
        store's ``checkpoint_rate``) is the duty cycle: the measured
        device time is followed by a ``spent * (1-R)/R`` stall.  A rate
        of 0 (or nothing to write) charges nothing and returns 0.0;
        returns the device seconds spent otherwise.
        """
        rate = _duty_cycle("background write rate",
                           self.checkpoint_rate if rate is None else rate,
                           off_ok=True)
        if nbytes <= 0 or rate <= 0.0:
            return 0.0
        live = [i for i in range(len(self.shards))
                if i not in self._dead_shards]
        if not live:
            return 0.0
        share, remainder = divmod(nbytes, len(live))

        def stream() -> None:
            for slot, index in enumerate(live):
                chunk = share + (1 if slot < remainder else 0)
                devs = self._lane_devices[index]
                if chunk > 0 and devs:
                    devs[0].charge_sequential_write(chunk)
        return self._background(tuple(live), stream, rate, live[0])[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_stats(self) -> list[StoreStats]:
        """Per-shard :class:`StoreStats`, for balance reporting."""
        return [shard.store_stats() for shard in self.shards]

