"""The event scheduler against its retired bookkeeping, with ``==``.

``tests/eventoracle.py`` keeps the multi-lane round plumbing for every
round, the full oldest-head dispatch scan and one bucket computation
per histogram.  Twin schedulers — the shipped one and the oracle —
take the same steps: one- and multi-lane rounds with idle and busy
lanes, background rounds, tags, nested windows closed in any order,
stalls, drains and mid-stream ``set_arrival`` switches.  After every
step their pickled bytes, every round's wall time and every
histogram's buckets, count and sums are equal.  The grid covers one to
five shards, worker pools below, at and above the shard count (a
capped pool runs the scan), bounded and unbounded queue depths, and
closed client sets.
"""

from __future__ import annotations

import pickle
import random

import pytest
from eventoracle import OracleScheduler, pickled
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.events import ArrivalSpec, EventScheduler

TAGS = ("t0", "t1", "t2")
ARRIVALS = ("closed", "poisson:rate=400", "poisson:rate=2500:seed=5",
            "poisson:rate=90:clients=3:seed=2")
#: Lane times: idle lanes, a few repeated values (ties in completion
#: order) and arbitrary ones, around the 400-2500/s arrival gaps.
LANE_S = st.one_of(st.sampled_from([0.0, 0.0005, 0.002, 0.01]),
                   st.floats(min_value=0.0, max_value=0.02))

STEPS = st.one_of(
    st.tuples(st.just("round"),
              st.lists(st.tuples(st.integers(0, 9), LANE_S),
                       min_size=1, max_size=4),
              st.booleans()),
    st.tuples(st.just("stall"), st.floats(min_value=0.0, max_value=0.02)),
    st.tuples(st.just("tag"), st.sampled_from(TAGS)),
    st.tuples(st.just("untag")),
    st.tuples(st.just("open")),
    st.tuples(st.just("close"), st.integers(0, 3)),
    st.tuples(st.just("arrival"), st.sampled_from(ARRIVALS)),
    st.tuples(st.just("drain")),
)


def hist_state(hist):
    return (hist.count, hist.sum_s, hist.min_s, hist.max_s,
            sorted(hist._buckets.items()))


def tenant_hists(tenants):
    return [(tag, hist_state(h)) for tag, h in tenants.items()]


def sched_hists(sched):
    return [hist_state(sched.latency), tenant_hists(sched.tenant_latency)]


def window_hists(win):
    return [hist_state(win.latency), hist_state(win.background_latency),
            tenant_hists(win.tenant_latency)]


class Twins:
    """The shipped scheduler and the oracle, stepped together."""

    def __init__(self, nshards: int, parallelism: int, depth: int,
                 clients: int, overhead: float) -> None:
        arrival = ArrivalSpec.parse(
            f"poisson:rate=600:seed=3:clients={clients}")
        self.scheds = [cls(nshards, parallelism=parallelism, depth=depth,
                           dispatch_overhead_s=overhead, arrival=arrival)
                       for cls in (EventScheduler, OracleScheduler)]
        self.tags: list[list] = [[], []]
        self.open: list[list] = [[], []]
        self.closed: list[list] = [[], []]
        self.walls: list[list[float]] = [[], []]

    def step(self, step: tuple) -> None:
        kind = step[0]
        for i, sched in enumerate(self.scheds):
            if kind == "round":
                lanes = [t for _, t in step[1]]
                indices = [s for s, _ in step[1]]
                self.walls[i].append(sched.record_round(
                    lanes, indices=indices, background=step[2]))
            elif kind == "stall":
                sched.record_stall(step[1])
            elif kind == "tag":
                block = sched.tagged(step[1])
                block.__enter__()
                self.tags[i].append(block)
            elif kind == "untag" and self.tags[i]:
                self.tags[i].pop().__exit__(None, None, None)
            elif kind == "open":
                self.open[i].append(
                    sched.start_window(f"w{len(self.closed[i])}"))
            elif kind == "close" and self.open[i]:
                at = step[1] % len(self.open[i])
                sched.end_window(self.open[i][at])
                self.closed[i] += self.open[i][at:]
                del self.open[i][at:]
            elif kind == "arrival":
                sched.set_arrival(ArrivalSpec.parse(step[1]))
            elif kind == "drain":
                sched.drain()
        self.check()

    def check(self) -> None:
        new, old = self.scheds
        assert pickle.dumps(new) == pickled(old)
        assert self.walls[0] == self.walls[1]
        assert sched_hists(new) == sched_hists(old)
        for wins in (self.open, self.closed):
            assert [window_hists(w) for w in wins[0]] == \
                [window_hists(w) for w in wins[1]]

    def finish(self) -> None:
        for sched in self.scheds:
            sched.drain()
        self.check()
        new = self.scheds[0]
        assert new.submitted == new.completed == new.latency.count


def pools(nshards: int) -> list[int]:
    return sorted({0, 1, 2, nshards, nshards + 1})


@given(data=st.data(), nshards=st.integers(1, 5),
       depth=st.sampled_from([0, 1, 3]), clients=st.sampled_from([0, 2]),
       overhead=st.sampled_from([0.0, 1e-4]),
       steps=st.lists(STEPS, min_size=1, max_size=60))
@settings(max_examples=250, deadline=None)
def test_scheduler_equals_the_retired_bookkeeping(data, nshards, depth,
                                                  clients, overhead, steps):
    parallelism = data.draw(st.sampled_from(pools(nshards)),
                            label="parallelism")
    twins = Twins(nshards, parallelism, depth, clients, overhead)
    for step in steps:
        twins.step(step)
    twins.finish()


def random_step(rng: random.Random) -> tuple:
    roll = rng.random()
    if roll < 0.55:
        lanes = [(rng.randrange(10), rng.choice([0.0, rng.uniform(0, 0.02)]))
                 for _ in range(rng.choice([1, 1, 1, 2, 3, 4]))]
        return ("round", lanes, rng.random() < 0.15)
    if roll < 0.62:
        return ("stall", rng.uniform(0.0, 0.01))
    if roll < 0.72:
        return ("tag", rng.choice(TAGS))
    if roll < 0.8:
        return ("untag",)
    if roll < 0.86:
        return ("open",)
    if roll < 0.9:
        return ("close", rng.randrange(4))
    if roll < 0.95:
        return ("arrival", rng.choice(ARRIVALS[1:]))
    return ("drain",)


@pytest.mark.parametrize("nshards", range(1, 6))
def test_every_pool_depth_and_client_set_on_a_fixed_walk(nshards):
    """The whole parameter grid on seeded walks, so each run takes the
    capped-pool scan and the per-shard start with queues backed up."""
    queued = {True: 0, False: 0}
    for parallelism in pools(nshards):
        for depth in (0, 1, 3):
            for clients in (0, 2):
                rng = random.Random(f"{nshards}:{parallelism}:{depth}:"
                                    f"{clients}")
                twins = Twins(nshards, parallelism, depth, clients, 0.0)
                for _ in range(100):
                    twins.step(random_step(rng))
                twins.finish()
                capped = 0 < parallelism < nshards
                queued[capped] += twins.scheds[0].max_queue_depth > 1
    # Requests really waited behind busy shards, capped or not.
    assert queued[False] > 0
    if nshards > 1:
        assert queued[True] > 0
