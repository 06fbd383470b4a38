"""The scenario engine's retired tenant draw and arrival check
(test-side only).

``repro.scenario.engine._choose_tenant`` folds the wave-modulated
weights in one loop over a per-spec ``(weight, phase)`` table, and
``_maybe_update_arrival`` returns on an unchanged wave window before
it looks at the store's scheduler.  The functions here are the two as
they were written — the weight list rebuilt and every phase re-derived
per op, the scheduler probed first — so the tests hold the shipped
pair to them with ``==``.

The four ``build_*`` functions are the scenario presets' tenant
builders as they were written, one loop each, before
``repro.scenario.spec`` kept one builder over a per-tenant row per
preset; :data:`PRESET_BUILDERS` maps each preset name to its builder.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from repro.core.workload import ConstantSize, UniformSize
from repro.disk.events import ArrivalSpec
from repro.scenario.engine import ScenarioState
from repro.scenario.spec import TenantProfile
from repro.units import KB, MB


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
    sched.set_arrival(ArrivalSpec.parse(
        f"poisson:rate={rate:g}:seed={seed}"
        + (f":clients={sched.arrival.clients}"
           if sched.arrival.clients else "")
    ))


def _tenant_weights(n: int, skew: float = 0.8) -> list[float]:
    """Gentle Zipf over tenants: a few hot tenants, a long cool tail."""
    return [1.0 / (i + 1) ** skew for i in range(n)]


def build_photo_sharing(n: int, skew: float,
                        ttl: int) -> tuple[TenantProfile, ...]:
    # Read-heavy immutable media: uploads (creates) with long retention,
    # very few edits.  Tenant size mix alternates thumbnail-heavy and
    # full-resolution libraries.
    weights = _tenant_weights(n)
    out = []
    for i in range(n):
        mean = (96, 192, 384)[i % 3] * KB
        out.append(TenantProfile(
            name=f"tenant-{i}",
            sizes=UniformSize.around_mean(mean, spread=0.5),
            weight=weights[i],
            share=1.0,
            read_fraction=0.75,
            overwrite_fraction=0.05,
            create_fraction=0.20,
            zipf=skew,
            ttl_ops=ttl,
        ))
    return tuple(out)


def build_video_dvr(n: int, skew: float,
                    ttl: int) -> tuple[TenantProfile, ...]:
    # Ring-buffer recorders: large objects overwritten in place,
    # near-uniform popularity, no TTL (the ring never shrinks).
    del ttl  # DVR tenants re-record in place; nothing expires.
    weights = _tenant_weights(n, skew=0.4)
    out = []
    for i in range(n):
        size = (1, 2, 4)[i % 3] * MB
        out.append(TenantProfile(
            name=f"tenant-{i}",
            sizes=ConstantSize(size),
            weight=weights[i],
            share=2.0,
            read_fraction=0.3,
            overwrite_fraction=0.7,
            create_fraction=0.0,
            zipf=skew,
            ttl_ops=0,
        ))
    return tuple(out)


def build_log_ingest(n: int, skew: float,
                     ttl: int) -> tuple[TenantProfile, ...]:
    # Append-mostly small objects with short retention: nearly every op
    # creates a fresh segment, expiry deletes keep the window bounded.
    weights = _tenant_weights(n, skew=0.6)
    out = []
    for i in range(n):
        out.append(TenantProfile(
            name=f"tenant-{i}",
            sizes=ConstantSize(64 * KB),
            weight=weights[i],
            share=0.5,
            read_fraction=0.1,
            overwrite_fraction=0.0,
            create_fraction=0.9,
            zipf=skew,
            ttl_ops=ttl,
        ))
    return tuple(out)


def build_cdn_churn(n: int, skew: float,
                    ttl: int) -> tuple[TenantProfile, ...]:
    # Cache churn: hot-skewed reads, misses fill small hot objects with
    # short TTLs; cold tenants hold larger, longer-lived assets.
    weights = _tenant_weights(n)
    out = []
    for i in range(n):
        hot = i < max(1, n // 4)
        mean = 128 * KB if hot else 512 * KB
        out.append(TenantProfile(
            name=f"tenant-{i}",
            sizes=UniformSize.around_mean(mean, spread=0.6),
            weight=weights[i],
            share=0.5 if hot else 1.0,
            read_fraction=0.70,
            overwrite_fraction=0.05,
            create_fraction=0.25,
            zipf=skew,
            ttl_ops=ttl if hot else ttl * 4,
        ))
    return tuple(out)


PRESET_BUILDERS = {
    "photo_sharing": build_photo_sharing,
    "video_dvr": build_video_dvr,
    "log_ingest": build_log_ingest,
    "cdn_churn": build_cdn_churn,
}
