"""The composite's one-lane rounds against the retired generator rounds.

``tests/shardedoracle.py`` keeps the per-op ``_dispatch`` generator
round, the ``_live_holders`` lookups and the generator tag block.  Twin
stores — the shipped one and the oracle, built from one spec — take the
same seeded walk of puts (sized and with content), whole and ranged
gets, overwrites, deletes, ``read_many`` sweeps, metadata lookups,
``rebuild`` slices and window turnovers, with a ``fail_shard`` midway, every
foreground op inside a tenant tag, on devices that fail requests
transiently (so a shard op can raise after it charged device time).  After every step the scheduler totals and windows, the
event books and histograms, every device's ``IoStats`` and clock, and
the pickled stores are equal.  The grid covers ``queue`` round and
event, closed and poisson arrivals, and one and two replicas.
"""

from __future__ import annotations

import pickle
import random
from contextlib import nullcontext

import pytest
from shardedoracle import OracleStore, pickled, tagged

from repro.backends import StoreSpec, build_store
from repro.errors import ReproError
from repro.units import KB

TAGS = ("t0", "t1", "t2")
QUEUES = ("queue=round", "queue=event",
          "queue=event,arrival=poisson:rate=400:seed=4")


def hist_state(hist):
    return (hist.count, hist.sum_s, hist.min_s, hist.max_s,
            sorted(hist._buckets.items()))


def window_state(win):
    state = [win.name, win.wall_time_s, win.lane_time_s, win.rounds]
    if hasattr(win, "latency"):
        state += [hist_state(win.latency),
                  hist_state(win.background_latency),
                  [(t, hist_state(h)) for t, h in win.tenant_latency.items()]]
    return state


def sched_state(sched, windows):
    state = [sched.wall_time_s, sched.lane_time_s, sched.rounds,
             [window_state(w) for w in windows]]
    if getattr(sched, "is_event", False):
        state += [sched.submitted, sched.completed, sched.in_flight,
                  hist_state(sched.latency),
                  [(t, hist_state(h)) for t, h in sched.tenant_latency.items()]]
    return state


def device_state(store):
    return [(dev.stats, dev.clock_s) for dev in store.devices()]


def store_state(store):
    return (store.keys(), store.dead_shards, store.store_stats())


def content(key: str, size: int) -> bytes:
    seed = key.encode()
    return (seed * (size // len(seed) + 1))[:size]


class Twins:
    """The shipped store and the oracle, stepped together."""

    def __init__(self, spec: str) -> None:
        self.stores = [build_store(StoreSpec.parse(spec)) for _ in range(2)]
        self.stores[1].__class__ = OracleStore
        self.windows = [[s.scheduler.start_window("w0")]
                        for s in self.stores]
        self.next_key = 0
        self.outcomes: list[list] = [[], []]

    def tag(self, i: int, tenant: str):
        sched = self.stores[i].scheduler
        if not getattr(sched, "is_event", False):
            return nullcontext()
        return sched.tagged(tenant) if i == 0 else tagged(sched, tenant)

    def step(self, rng: random.Random) -> str:
        """One random step, as both twins; returns its kind."""
        new = self.stores[0]
        keys = new.keys()
        roll = rng.random()
        key = rng.choice(keys) if keys else None
        size = rng.choice([16, 48, 96]) * KB
        if roll < 0.25 or key is None:
            self.next_key += 1
            key = f"k{self.next_key}"
            data = content(key, size) if rng.random() < 0.5 else None
            step = ("put", key, {"data": data} if data else {"size": size})
        elif roll < 0.55:
            cut = rng.choice([None, (0, 1), (KB, 3 * KB)])
            step = ("get", key, cut)
        elif roll < 0.65:
            step = ("overwrite", key, {"size": size})
        elif roll < 0.75:
            step = ("delete", key)
        elif roll < 0.82:
            step = ("read_many", rng.sample(keys, min(len(keys), 4)))
        elif roll < 0.9:
            step = ("meta", key)
        elif roll < 0.95:
            step = ("window",)
        else:
            step = ("rebuild", rng.choice([1, 3]))
        self.run(step, rng.choice(TAGS))
        return step[0]

    def run(self, step: tuple, tenant: str = TAGS[0]) -> None:
        for i, store in enumerate(self.stores):
            self.outcomes[i].append(self.apply(i, store, step, tenant))
        self.check()

    def apply(self, i: int, store, step: tuple, tenant: str):
        kind = step[0]
        try:
            if kind == "window":
                sched, wins = store.scheduler, self.windows[i]
                sched.end_window(wins[-1])
                wins.append(sched.start_window(f"w{len(wins)}"))
                return None
            if kind == "rebuild":
                return store.rebuild(rate=0.5, max_objects=step[1])
            if kind == "fail":
                return store.fail_shard(step[1])
            if kind == "meta":
                return (store.meta(step[1]), store.object_extents(step[1]))
            with self.tag(i, tenant):
                if kind == "put":
                    return store.put(step[1], **step[2])
                if kind == "get":
                    cut = step[2] or (0, None)
                    return store.get(step[1], *cut)
                if kind == "overwrite":
                    return store.overwrite(step[1], **step[2])
                if kind == "delete":
                    return store.delete(step[1])
                return store.read_many(step[1])
        except ReproError as exc:
            return (type(exc), str(exc))

    def check(self) -> None:
        new, old = self.stores
        assert self.outcomes[0] == self.outcomes[1]
        assert sched_state(new.scheduler, self.windows[0]) == \
            sched_state(old.scheduler, self.windows[1])
        assert device_state(new) == device_state(old)
        assert store_state(new) == store_state(old)
        assert pickle.dumps(new) == pickled(old)


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("queue", QUEUES)
def test_composite_equals_the_retired_rounds(queue, replicas):
    spec = (f"lfs:volume=24M,segment_size=128K,store_data=true,shards=3,"
            f"overlap=true,"
            f"replicas={replicas},{queue},"
            f"faults=transient:rate=0.1:seed=9")
    twins = Twins(spec)
    rng = random.Random(f"{queue}:{replicas}")
    kinds = [twins.step(rng) for _ in range(60)]
    new = twins.stores[0]
    twins.run(("fail", new.shard_for(new.keys()[0])))
    for key in new.keys():  # failover reads, before any rebuild
        twins.run(("get", key, None))
    kinds += [twins.step(rng) for _ in range(100)]
    # The walk really reached every path the rounds serve.
    assert {"put", "get", "overwrite", "delete", "read_many",
            "rebuild"} <= set(kinds)
    assert new.retries > 0 and new.dead_shards
    if replicas == 2:
        assert new.degraded_reads > 0
    if getattr(new.scheduler, "is_event", False):
        assert new.scheduler.tenant_latency
