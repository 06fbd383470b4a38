"""Scenario specs: declarative multi-tenant workload composition.

A :class:`ScenarioSpec` follows the :class:`~repro.backends.spec.
StoreSpec` convention — a registry of named presets plus a
flag-friendly text form used by ``--scenario``::

    cdn_churn
    cdn_churn:tenants=8,skew=1.1,seed=7
    photo_sharing:tenants=12
    log_ingest:ttl=400,amplitude=0.8,period=300
    video_dvr:tenants=2

The part before ``:`` names a preset (photo sharing, video DVR, log
ingestion, CDN cache churn); the ``key=value`` tail overrides preset
knobs.  Recognized keys:

``tenants``
    Number of tenants sharing the store (>= 1).
``skew``
    Zipf exponent for *object* popularity within each tenant (0 =
    uniform; the paper's workload).  Tenant-level hotness is fixed by
    the preset (tenant i's op share falls off as a gentle Zipf).
``seed``
    Scenario substream salt, folded with the run seed so two scenarios
    in one experiment draw independent streams.
``ttl``
    Lifetime, in scenario ops, of objects created during the run
    (0 = no TTL churn).  Applies to the preset's creating tenants.
``amplitude`` / ``period``
    Diurnal/bursty arrival-rate modulation: the open-loop Poisson rate
    of a ``queue=event`` store is rescaled to ``base * (1 + amplitude *
    sin(2*pi*op/period))`` as the op stream advances (see
    :meth:`~repro.disk.events.EventScheduler.set_arrival`).  The same
    wave also modulates each tenant's op share, so closed-loop stores
    see the burst structure too.

Unknown presets and unknown keys are rejected with a
:class:`~repro.errors.ConfigError` — specs must round-trip exactly
(``ScenarioSpec.parse(s.text()) == s``).  The grammar rules shared with
the other specs (separators, duplicate keys, non-finite values) are in
:mod:`repro.specgrammar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.workload import ConstantSize, SizeDistribution, UniformSize
from repro.errors import ConfigError
from repro.specgrammar import (Key, convert_items, format_items, render,
                               to_float, to_int, tokenize)
from repro.units import KB, MB, left_sum

#: Parameter keys the spec grammar accepts (every preset understands
#: all of them; presets only differ in their defaults).
_KEYS = {
    "tenants": Key(to_int),
    "skew": Key(to_float, "{:g}".format),
    "seed": Key(to_int),
    "ttl": Key(to_int),
    "amplitude": Key(to_float, "{:g}".format),
    "period": Key(to_int),
}


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic shape inside a scenario.

    ``read/overwrite/create`` fractions partition the tenant's ops and
    must sum to 1.  Creates insert fresh objects that expire after
    ``ttl_ops`` scenario ops (TTL churn); a creating tenant therefore
    needs ``ttl_ops > 0`` or its population would grow without bound.
    """

    name: str
    sizes: SizeDistribution
    #: Relative share of the interleaved op stream.
    weight: float = 1.0
    #: Relative share of the bulk-load bytes.
    share: float = 1.0
    read_fraction: float = 0.7
    overwrite_fraction: float = 0.3
    create_fraction: float = 0.0
    #: Zipf exponent over the tenant's objects (0 = uniform).
    zipf: float = 0.0
    #: Lifetime of created objects, in scenario ops (0 = immortal).
    ttl_ops: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant needs a name")
        if self.weight <= 0 or self.share <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: weight and share must be > 0"
            )
        total = (self.read_fraction + self.overwrite_fraction
                 + self.create_fraction)
        if (min(self.read_fraction, self.overwrite_fraction,
                self.create_fraction) < 0 or abs(total - 1.0) > 1e-9):
            raise ConfigError(
                f"tenant {self.name!r}: op fractions must be >= 0 and "
                f"sum to 1 (got {total:g})"
            )
        if self.zipf < 0:
            raise ConfigError(f"tenant {self.name!r}: zipf must be >= 0")
        if self.ttl_ops < 0:
            raise ConfigError(f"tenant {self.name!r}: ttl_ops must be >= 0")
        if self.create_fraction > 0 and self.ttl_ops <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: create_fraction > 0 needs "
                "ttl_ops > 0, or the population grows without bound"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "sizes": str(self.sizes),
            "weight": self.weight,
            "share": self.share,
            "read_fraction": self.read_fraction,
            "overwrite_fraction": self.overwrite_fraction,
            "create_fraction": self.create_fraction,
            "zipf": self.zipf,
            "ttl_ops": self.ttl_ops,
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """A named multi-tenant scenario, resolved from a preset.

    ``params`` keeps the explicitly-overridden preset knobs in
    canonical (sorted, normalized) form so :meth:`text` round-trips.
    """

    name: str
    tenants: tuple[TenantProfile, ...]
    seed: int = 0
    #: Arrival-rate wave: ``1 + amplitude * sin(2*pi*op/period)``.
    wave_amplitude: float = 0.0
    wave_period_ops: int = 0
    params: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("ScenarioSpec needs a name")
        if not self.tenants:
            raise ConfigError("ScenarioSpec needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        if not 0.0 <= self.wave_amplitude < 1.0:
            raise ConfigError("wave_amplitude must be in [0, 1)")
        if self.wave_amplitude > 0 and self.wave_period_ops <= 0:
            raise ConfigError(
                "wave_amplitude > 0 needs wave_period_ops > 0"
            )
        if all(t.read_fraction >= 1.0 for t in self.tenants):
            raise ConfigError(
                "every tenant is read-only: the scenario could never "
                "advance storage age"
            )

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "ScenarioSpec":
        """Parse ``preset:key=val,...`` (see the module docstring)."""
        name, raw = tokenize("scenario", text)
        preset = SCENARIO_PRESETS.get(name)
        if preset is None:
            raise ConfigError(
                f"unknown scenario {name!r}; "
                f"choose from {scenario_names()}"
            )
        given = convert_items("scenario", raw, _KEYS)
        tenants = given.get("tenants", preset.tenants)
        if not 1 <= tenants <= 64:
            raise ConfigError("tenants must be in 1..64")
        skew = given.get("skew", preset.skew)
        if skew < 0:
            raise ConfigError("skew must be >= 0")
        seed = given.get("seed", 0)
        ttl = given.get("ttl", preset.ttl)
        if ttl < 0:
            raise ConfigError("ttl must be >= 0")
        amplitude = given.get("amplitude", preset.amplitude)
        period = given.get("period", preset.period)
        if period < 0:
            raise ConfigError("period must be >= 0")
        # Canonical params: only the explicitly-given keys, normalized
        # through their parsed values so the text form round-trips.
        params = tuple(sorted(format_items(_KEYS, given)))
        return cls(
            name=name,
            tenants=preset.build(tenants, skew, ttl),
            seed=seed,
            wave_amplitude=amplitude,
            wave_period_ops=period,
            params=params,
        )

    def text(self) -> str:
        """Canonical spec text; ``parse(s.text()) == s``."""
        return render(self.name, self.params, ",")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form, recorded in run results / config hash."""
        return {
            "name": self.name,
            "text": self.text(),
            "seed": self.seed,
            "wave_amplitude": self.wave_amplitude,
            "wave_period_ops": self.wave_period_ops,
            "tenants": [t.to_dict() for t in self.tenants],
        }

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    @property
    def mean_object_size(self) -> float:
        """Share-weighted mean object size (bulk-load planning)."""
        total_share = left_sum(t.share for t in self.tenants)
        return left_sum(t.sizes.mean * t.share
                        for t in self.tenants) / total_share


# ----------------------------------------------------------------------
# Preset registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Preset:
    """Defaults plus the per-tenant row :meth:`build` turns into
    tenant profiles."""

    summary: str
    tenants: int
    skew: float
    ttl: int
    amplitude: float
    period: int
    #: Zipf exponent of the tenants' op-share weights (tenant ``i``
    #: weighs ``1 / (i + 1) ** tenant_skew``).
    tenant_skew: float
    #: ``row(i, n, ttl)``: tenant ``i`` of ``n``'s sizes, bulk-load
    #: share, op fractions and TTL, as :class:`TenantProfile` keywords.
    row: Callable[[int, int, int], dict[str, Any]]

    def build(self, n: int, skew: float,
              ttl: int) -> tuple[TenantProfile, ...]:
        """``n`` tenant profiles; ``skew`` is each tenant's object Zipf."""
        return tuple(
            TenantProfile(name=f"tenant-{i}",
                          weight=1.0 / (i + 1) ** self.tenant_skew,
                          zipf=skew, **self.row(i, n, ttl))
            for i in range(n))


def _photo_sharing_row(i: int, n: int, ttl: int) -> dict[str, Any]:
    # Read-heavy immutable media: uploads (creates) with long retention,
    # very few edits.  Tenant size mix alternates thumbnail-heavy and
    # full-resolution libraries.
    return dict(sizes=UniformSize.around_mean((96, 192, 384)[i % 3] * KB,
                                              spread=0.5),
                share=1.0, read_fraction=0.75, overwrite_fraction=0.05,
                create_fraction=0.20, ttl_ops=ttl)


def _video_dvr_row(i: int, n: int, ttl: int) -> dict[str, Any]:
    # Ring-buffer recorders: large objects overwritten in place,
    # near-uniform popularity, no TTL (the ring never shrinks, so the
    # ttl knob is ignored).
    return dict(sizes=ConstantSize((1, 2, 4)[i % 3] * MB), share=2.0,
                read_fraction=0.3, overwrite_fraction=0.7,
                create_fraction=0.0, ttl_ops=0)


def _log_ingest_row(i: int, n: int, ttl: int) -> dict[str, Any]:
    # Append-mostly small objects with short retention: nearly every op
    # creates a fresh segment, expiry deletes keep the window bounded.
    return dict(sizes=ConstantSize(64 * KB), share=0.5, read_fraction=0.1,
                overwrite_fraction=0.0, create_fraction=0.9, ttl_ops=ttl)


def _cdn_churn_row(i: int, n: int, ttl: int) -> dict[str, Any]:
    # Cache churn: hot-skewed reads, misses fill small hot objects with
    # short TTLs; cold tenants hold larger, longer-lived assets.
    hot = i < max(1, n // 4)
    return dict(sizes=UniformSize.around_mean(
                    128 * KB if hot else 512 * KB, spread=0.6),
                share=0.5 if hot else 1.0, read_fraction=0.70,
                overwrite_fraction=0.05, create_fraction=0.25,
                ttl_ops=ttl if hot else ttl * 4)


#: Ship-with presets; ``ScenarioSpec.parse`` resolves names here.
SCENARIO_PRESETS: dict[str, _Preset] = {
    "photo_sharing": _Preset(
        summary="read-heavy immutable media uploads with long retention",
        tenants=6, skew=0.9, ttl=4000, amplitude=0.3, period=2000,
        tenant_skew=0.8, row=_photo_sharing_row,
    ),
    "video_dvr": _Preset(
        summary="large ring-buffer recordings overwritten in place",
        tenants=3, skew=0.0, ttl=0, amplitude=0.2, period=4000,
        tenant_skew=0.4, row=_video_dvr_row,
    ),
    "log_ingest": _Preset(
        summary="append-mostly small segments with short TTL retention",
        tenants=4, skew=0.6, ttl=800, amplitude=0.6, period=500,
        tenant_skew=0.6, row=_log_ingest_row,
    ),
    "cdn_churn": _Preset(
        summary="hot-skewed cache fills with TTL eviction churn",
        tenants=8, skew=1.1, ttl=600, amplitude=0.4, period=1000,
        tenant_skew=0.8, row=_cdn_churn_row,
    ),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(SCENARIO_PRESETS))
