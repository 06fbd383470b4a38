"""The tenant draw and the wave's arrival check against their retired
forms (``tests/scenariooracle.py``), with ``==``.

The shipped draw reads a per-spec table kept outside the pickled
state.  These tests pin that it computes the same running totals and
picks the same tenant for 1-64 tenants, with and without a wave, at
op indices on both sides of wave-window boundaries and across a
:class:`ScenarioState` pickle round-trip, and that no derived table
reaches the checkpoint bytes.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace
from unittest import mock

import pytest
import scenariooracle
from scenariooracle import choose_tenant, maybe_update_arrival

from repro.core.workload import ConstantSize, WorkloadSpec, WorkloadState
from repro.disk.events import EventScheduler
from repro.rng import substream
from repro.scenario import engine
from repro.scenario.engine import (ScenarioState, TenantState,
                                   _choose_tenant, _maybe_update_arrival)
from repro.scenario.spec import ScenarioSpec
from repro.units import KB


def make_state(tenants: int, wave: str) -> ScenarioState:
    spec = ScenarioSpec.parse(f"cdn_churn:tenants={tenants},seed=3,{wave}")
    return ScenarioState(
        spec=spec,
        workload=WorkloadState(spec=WorkloadSpec(sizes=ConstantSize(64 * KB)),
                               rng=substream(3, "workload")),
        tenants=[TenantState(profile=t, rng=substream(3, t.name))
                 for t in spec.tenants],
        pick_rng=substream(3, "pick"),
    )


def op_indices(period: int) -> list[int]:
    """Each side of the first wave windows' boundaries, then a spread."""
    width = max(1, period // 8)
    near = [k * width + d for k in range(1, 12) for d in (-1, 0, 1)]
    return near + [7 * period + 5, 123_457, 10_000_019]


WAVES = ["amplitude=0", "amplitude=0.4,period=96", "amplitude=0.9,period=7"]


def spy_on_bisect(module, calls: list):
    """Record every ``bisect_right(cum, x)`` the draw makes: the running
    totals and the scaled draw, compared to the last bit."""
    real = module.bisect_right

    def spy(cum, x):
        calls.append((list(cum), x))
        return real(cum, x)
    return mock.patch.object(module, "bisect_right", spy)


@pytest.mark.parametrize("wave", WAVES)
def test_tenant_draw_equals_the_retired_draw(wave):
    period = int(wave.rpartition("=")[2]) if "period" in wave else 8
    calls: tuple[list, list] = ([], [])
    with spy_on_bisect(engine, calls[0]), \
            spy_on_bisect(scenariooracle, calls[1]):
        for tenants in range(1, 65):
            new, old = make_state(tenants, wave), make_state(tenants, wave)
            for turn, op in enumerate(op_indices(period)):
                if turn == 10:  # the rest of the walk runs on resumed states
                    blob = pickle.dumps(new)
                    assert blob == pickle.dumps(old)
                    new, old = pickle.loads(blob), pickle.loads(blob)
                new.op_index = old.op_index = op
                assert _choose_tenant(new) == choose_tenant(old)
                assert new.pick_rng.getstate() == old.pick_rng.getstate()
            assert pickle.dumps(new) == pickle.dumps(old)
    assert len(calls[0]) == 63 * len(op_indices(period))
    assert calls[0] == calls[1]


def test_a_draw_leaves_no_table_in_the_checkpoint():
    state = make_state(16, WAVES[1])
    rng = state.pick_rng.getstate()
    before = pickle.dumps(state)
    _choose_tenant(state)
    state.pick_rng.setstate(rng)
    assert pickle.dumps(state) == before


STORES = {
    "poisson": lambda: SimpleNamespace(scheduler=EventScheduler(
        2, arrival="poisson:rate=150:seed=4")),
    "poisson-clients": lambda: SimpleNamespace(scheduler=EventScheduler(
        3, arrival="poisson:rate=80:clients=2")),
    "closed": lambda: SimpleNamespace(scheduler=EventScheduler(2)),
    "no-scheduler": lambda: SimpleNamespace(),
}


@pytest.mark.parametrize("wave", WAVES)
@pytest.mark.parametrize("store", sorted(STORES))
def test_arrival_check_equals_the_retired_check(store, wave):
    new, old = make_state(4, wave), make_state(4, wave)
    stores = STORES[store](), STORES[store]()
    for op in range(1, 200):
        if op == 90 and store == "closed":
            # A closed store switched to poisson mid-run captures its
            # base rate at the same op under both checks.
            for twin in stores:
                twin.scheduler.set_arrival("poisson:rate=300:seed=6")
        new.op_index = old.op_index = op
        _maybe_update_arrival(stores[0], new)
        maybe_update_arrival(stores[1], old)
        assert pickle.dumps(new) == pickle.dumps(old)
        assert pickle.dumps(stores[0]) == pickle.dumps(stores[1])
