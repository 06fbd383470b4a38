"""The composite's retired per-op rounds and tenant tag (test-side only).

``repro.backends.sharded.ShardedStore`` runs a single-shard ``put``,
``get``, ``overwrite`` or ``delete`` as one plain one-lane call, and
sends ``meta``/``object_extents`` straight to the primary while no
shard is dead; ``EventScheduler.tagged`` returns a slotted object.
:class:`OracleStore` is the store with the methods those changes
replaced, as they were written: every op wraps its shard calls in the
generator ``_dispatch`` round (kept here too, so the oracle's
``read_many`` and background rounds run it as well), every lookup
walks ``_live_holders``, and ``get`` keeps its own transient-read retry
loop (the retired one, over :mod:`repro.disk.faults`' constants).  :func:`tagged` is the generator tag block.
:func:`pickled` takes an oracle's bytes under ``ShardedStore``'s name,
so twins compare with ``==``.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import islice

from repro.alloc.extent import Extent
from repro.backends.base import ObjectMeta
from repro.backends.sharded import ShardedStore, _no_replica
from repro.disk.device import summed_clock_s
from repro.disk.events import EventScheduler
from repro.disk.faults import BACKOFF_BASE_S, BACKOFF_CAP_S, READ_RETRIES
from repro.errors import ShardLostError, TransientIoError
from repro.units import checked_write_size


def pickled(store: ShardedStore) -> bytes:
    """``pickle.dumps(store)``, taken under ``ShardedStore``'s name."""
    cls = store.__class__
    store.__class__ = ShardedStore
    try:
        return pickle.dumps(store)
    finally:
        store.__class__ = cls


@contextmanager
def tagged(sched: EventScheduler, tag: str) -> Iterator[None]:
    """The retired ``EventScheduler.tagged``."""
    prev = sched._tag
    sched._tag = tag
    try:
        yield
    finally:
        sched._tag = prev


class OracleStore(ShardedStore):
    """:class:`ShardedStore` with every op in a generator round."""

    @contextmanager
    def _dispatch(self, indices, *, background=False):
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

    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        total = checked_write_size(size, data, 1)
        index = self._shard_of.get(key)
        if index is not None:
            targets = [index]
        else:
            targets = [self._place_live(key, total)]
            if self.replicas > 1:
                targets += islice(self._live_ring(targets[0]),
                                  self.replicas - 1)
        with self._dispatch(tuple(targets)):
            for i in targets:
                self.shards[i].put(key, size=size, data=data)
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
            attempt = 0
            while True:
                try:
                    with self._dispatch((index,)):
                        value = self.shards[index].get(key, offset, length)
                except TransientIoError:
                    attempt += 1
                    if attempt > READ_RETRIES:
                        self.failovers += 1
                        break
                    self._back_off(index, min(
                        BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1))))
                    continue
                except ShardLostError:
                    self._dead_shards.add(index)
                    self.failovers += 1
                    break
                if index != primary:
                    self.degraded_reads += 1
                return value
        raise _no_replica(key)

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        live = self._live_holders(key)
        with self._dispatch(tuple(live)):
            for i in live:
                self.shards[i].overwrite(key, size=size, data=data)

    def delete(self, key: str) -> None:
        live = self._live_holders(key, need=False)
        with self._dispatch(tuple(live)):
            for i in live:
                self.shards[i].delete(key)
        del self._shard_of[key]
        self._replica_of.pop(key, None)

    def meta(self, key: str) -> ObjectMeta:
        return self.shards[self._live_holders(key)[0]].meta(key)

    def object_extents(self, key: str) -> list[Extent]:
        return self.shards[self._live_holders(key)[0]].object_extents(key)
