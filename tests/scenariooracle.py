"""The scenario engine's retired tenant draw and arrival check
(test-side only).

``repro.scenario.engine._choose_tenant`` folds the wave-modulated
weights in one loop over a per-spec ``(weight, phase)`` table, and
``_maybe_update_arrival`` returns on an unchanged wave window before
it looks at the store's scheduler.  The functions here are the two as
they were written — the weight list rebuilt and every phase re-derived
per op, the scheduler probed first — so the tests hold the shipped
pair to them with ``==``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from repro.scenario.engine import ScenarioState


def choose_tenant(state: ScenarioState) -> int:
    tenants = state.tenants
    if len(tenants) == 1:
        return 0
    n = len(tenants)
    weights = [t.profile.weight for t in tenants]
    spec = state.spec
    if spec.wave_amplitude > 0.0:
        tau, amp = 2.0 * math.pi, spec.wave_amplitude
        base = tau * state.op_index / spec.wave_period_ops
        weights = [w * (1.0 + amp * math.sin(base + tau * i / n))
                   for i, w in enumerate(weights)]
    cum = list(accumulate(weights))
    x = state.pick_rng.random() * cum[-1]
    return min(bisect_right(cum, x), n - 1)


def maybe_update_arrival(store, state: ScenarioState) -> None:
    spec = state.spec
    if spec.wave_amplitude <= 0.0:
        return
    sched = getattr(store, "scheduler", None)
    if (not getattr(sched, "is_event", False)
            or sched.arrival.mode != "poisson"):
        return
    if state.base_rate <= 0.0:
        state.base_rate = sched.arrival.rate
    window = state.op_index // max(1, spec.wave_period_ops // 8)
    if window == state.wave_window:
        return
    state.wave_window = window
    angle = 2.0 * math.pi * state.op_index / spec.wave_period_ops
    rate = state.base_rate * (1.0 + spec.wave_amplitude * math.sin(angle))
    seed = sched.arrival.seed * 1000 + (window % 1000)
    sched.set_arrival(
        f"poisson:rate={rate:g}:seed={seed}"
        + (f":clients={sched.arrival.clients}"
           if sched.arrival.clients else "")
    )
