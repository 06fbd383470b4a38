"""Declarative store construction: :class:`StoreSpec`.

A ``StoreSpec`` is the one value that says what store to run (the
experiment driver holds nothing per-backend): backend name, volume
geometry, typed per-backend options, a shared
:class:`~repro.disk.policy.DevicePolicy`, a shard layout, a fault
profile and an arrival process.  It is the one place a store's
configuration is checked: every spec-level rule runs in its
constructor, so a spec that constructs builds.  The registry
(:mod:`repro.backends.registry`) turns a spec into a live store;
nothing above the backends layer needs to import a backend class.

Specs have a flag-friendly text form, used by ``--store`` (the shared
grammar rules are in :mod:`repro.specgrammar`)::

    lfs
    lfs:reorder=clook,batch=16
    filesystem:size_hints=true
    gfs:chunk_size=8M,volume=512M,shards=4,placement=hash
    filesystem:shards=2,overlap=true,parallelism=4
    lfs:shards=4,overlap=true,batch=16,reorder=clook
    lfs:shards=4,overlap=true,queue=event,depth=64,arrival=poisson:rate=2e3

The keys ``volume``, ``write_request``, ``store_data``, ``reorder``,
``batch``, ``shards``, ``placement``, ``band_bytes``, ``overlap``,
``parallelism``, ``dispatch_overhead``, ``replicas``, ``faults``,
``rebuild_rate``, ``rebalance_rate``, ``checkpoint_rate``, ``queue``,
``depth``, and ``arrival`` set spec-level fields; every other key is a
backend option, validated against the backend's declared option set at
build time.  ``faults`` parses a fault-profile text (see
:mod:`repro.disk.faults`) and ``arrival`` an arrival-process text (see
:mod:`repro.disk.events`) into the value the spec holds, whose
canonical ``text()`` :meth:`StoreSpec.to_dict` records; written inside
a ``--store`` spec, use colons between clause parameters —
``faults=transient:rate=1e-4``, ``arrival=poisson:rate=2e3`` — since
commas separate spec options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Mapping

from repro.disk.events import ArrivalSpec
from repro.disk.faults import FaultProfile
from repro.disk.policy import DEFAULT_POLICY, REORDER_KINDS, DevicePolicy
from repro.errors import ConfigError
from repro.specgrammar import (Key, choice, convert_items, to_bool, to_float,
                               to_int, to_size, tokenize)
from repro.units import DEFAULT_WRITE_REQUEST, GB

#: Placement policies the sharded composite understands.
PLACEMENTS = ("hash", "round_robin", "size_banded")

#: Queue models the sharded composite understands: ``round`` is the
#: PR 5 dispatch-round makespan, ``event`` the event-driven per-shard
#: FIFO simulator with per-request latency (see
#: :mod:`repro.disk.events`).
QUEUE_KINDS = ("round", "event")


@dataclass(frozen=True)
class StoreSpec:
    """Everything needed to build one object store.

    ``options`` holds per-backend knobs (validated and type-converted by
    the registry); ``policy`` is the device submission policy every
    backend threads into :meth:`BlockDevice.submit`; ``shards > 1``
    wraps the backend in a :class:`~repro.backends.sharded.ShardedStore`
    striping over ``shards`` equal sub-volumes.
    """

    backend: str
    volume_bytes: int = 2 * GB
    write_request: int = DEFAULT_WRITE_REQUEST
    #: Keep written bytes on the device (marker analysis; test scale).
    store_data: bool = False
    policy: DevicePolicy = DEFAULT_POLICY
    #: Per-backend options as a normalized (name, value) tuple; pass a
    #: mapping, it is canonicalized (sorted by name) on construction.
    options: tuple[tuple[str, Any], ...] = field(default=())
    shards: int = 1
    placement: str = "hash"
    #: First size band for ``size_banded`` placement (bands double).
    band_bytes: int = 1024 * 1024
    #: Overlap-aware time model: shard device times within one dispatch
    #: round overlap (see :mod:`repro.disk.schedule`) instead of
    #: summing.  Only meaningful with ``shards > 1``.
    overlap: bool = False
    #: Lanes served concurrently per dispatch round (0 = one worker per
    #: shard lane; 1 reproduces the summed model exactly).
    parallelism: int = 0
    #: Fixed per-round dispatch overhead charged by the scheduler.
    dispatch_overhead_s: float = 0.0
    #: Copies per object (1 = no replication).  Requires ``shards >=
    #: replicas``; placement puts the primary plus ``replicas - 1``
    #: ring-order neighbours on distinct shards.
    replicas: int = 1
    #: Fault profile (see :mod:`repro.disk.faults`); ``None`` = none.
    faults: FaultProfile | None = None
    #: Default duty cycle for :meth:`ShardedStore.rebuild` (1.0 = flat
    #: out, 0.25 = rebuild occupies a quarter of wall time).
    rebuild_rate: float = 1.0
    #: Default duty cycle for :meth:`ShardedStore.rebalance` migration
    #: I/O (1.0 = flat out, throttle pauses below that).
    rebalance_rate: float = 1.0
    #: Duty cycle for charged checkpoint write-back (needs ``shards > 1``:
    #: :meth:`ShardedStore.background_write`); 0.0 (the default) keeps
    #: checkpoint I/O uncharged, preserving the historical timeline.
    checkpoint_rate: float = 0.0
    #: Queue model for the overlap scheduler: ``round`` (makespan, the
    #: PR 5 model) or ``event`` (per-shard FIFO queues with
    #: per-request p50/p95/p99 latency).  ``event`` requires
    #: ``overlap=true``.
    queue: str = "round"
    #: Per-shard FIFO depth under ``queue=event`` (0 = unbounded; a
    #: full queue blocks the submitter until completions free space).
    queue_depth: int = 64
    #: Arrival process under ``queue=event`` (see
    #: :class:`~repro.disk.events.ArrivalSpec`): ``closed`` replays
    #: dispatch rounds, ``poisson:rate=...`` re-times requests onto an
    #: open-loop Poisson timeline.
    arrival: ArrivalSpec = ArrivalSpec()

    def __post_init__(self) -> None:
        if not self.backend:
            raise ConfigError("StoreSpec needs a backend name")
        if not isinstance(self.faults, FaultProfile | None):
            raise ConfigError(
                f"faults must be a FaultProfile or None, not "
                f"{self.faults!r}; StoreSpec.parse reads fault text")
        if not isinstance(self.arrival, ArrivalSpec):
            raise ConfigError(
                f"arrival must be an ArrivalSpec, not {self.arrival!r}; "
                "StoreSpec.parse reads arrival text")
        if self.volume_bytes <= 0:
            raise ConfigError("volume_bytes must be positive")
        if self.write_request <= 0:
            raise ConfigError("write_request must be positive")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"choose from {PLACEMENTS}"
            )
        if self.band_bytes <= 0:
            raise ConfigError("band_bytes must be positive")
        if self.parallelism < 0:
            raise ConfigError("parallelism must be >= 0 (0 = unbounded)")
        if not (math.isfinite(self.dispatch_overhead_s)
                and self.dispatch_overhead_s >= 0):
            raise ConfigError(
                "dispatch_overhead_s must be a finite value >= 0"
            )
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if not 0.0 < self.rebuild_rate <= 1.0:
            raise ConfigError("rebuild_rate must be in (0, 1]")
        if not 0.0 < self.rebalance_rate <= 1.0:
            raise ConfigError("rebalance_rate must be in (0, 1]")
        if not 0.0 <= self.checkpoint_rate <= 1.0:
            raise ConfigError(
                "checkpoint_rate must be in [0, 1] (0 = uncharged)"
            )
        if self.queue not in QUEUE_KINDS:
            raise ConfigError(
                f"unknown queue model {self.queue!r}; "
                f"choose from {QUEUE_KINDS}"
            )
        if self.queue_depth < 0:
            raise ConfigError(
                "queue depth must be >= 0 (0 = unbounded)"
            )
        # The rules that tie fields to each other.
        if self.volume_bytes < self.shards:
            raise ConfigError(
                f"volume of {self.volume_bytes} bytes cannot split "
                f"into {self.shards} shards")
        if self.overlap and self.shards <= 1:
            raise ConfigError(
                "overlap=true needs shards > 1 (the overlap model schedules "
                "per-shard device lanes; a single volume has one lane)")
        if self.checkpoint_rate > 0.0 and self.shards <= 1:
            raise ConfigError(
                "checkpoint_rate > 0 needs shards > 1 (checkpoint write-back "
                "is charged through the composite's background lanes)")
        if self.queue == "event" and not self.overlap:
            raise ConfigError(
                "queue=event needs overlap=true (the event queue simulates "
                "per-shard lanes of the overlap scheduler; without overlap "
                "there is no scheduler to layer it under)")
        if self.arrival.mode != "closed" and self.queue != "event":
            raise ConfigError(
                "arrival=... needs queue=event (the round model has no "
                "arrival process; every request in a round finishes "
                "together)")
        if self.replicas > self.shards:
            raise ConfigError(
                f"replicas={self.replicas} needs at least that many shards "
                f"(spec has {self.shards})")
        # A loss clause always names its shard, so it is scoped too.
        scoped = self.faults.max_shard() if self.faults else None
        if scoped is not None and self.shards <= 1:
            raise ConfigError(
                "loss and shard-scoped fault clauses need shards > 1 "
                "(a single volume has no shard to kill or target)")
        if scoped is not None and scoped >= self.shards:
            raise ConfigError(
                f"fault clause targets shard {scoped}, but the spec "
                f"has only {self.shards} shards")
        opts = self.options
        if isinstance(opts, Mapping):
            opts = tuple(sorted(opts.items()))
        else:
            opts = tuple(sorted((str(k), v) for k, v in opts))
        names = [name for name, _ in opts]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate option in {names}")
        object.__setattr__(self, "options", opts)

    # ------------------------------------------------------------------
    # Options
    # ------------------------------------------------------------------
    def options_dict(self) -> dict[str, Any]:
        return dict(self.options)

    def option(self, name: str, default: Any = None) -> Any:
        for key, value in self.options:
            if key == name:
                return value
        return default

    def with_options(self, **updates: Any) -> "StoreSpec":
        """A copy with options merged in (``None`` removes a key)."""
        merged = self.options_dict()
        for key, value in updates.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        return replace(self, options=tuple(sorted(merged.items())))

    # ------------------------------------------------------------------
    # Shard layout
    # ------------------------------------------------------------------
    def shard_specs(self) -> list["StoreSpec"]:
        """The sub-specs a sharded composite builds its shards from.

        The volume splits evenly: N shards of ``volume_bytes // N`` keep
        aggregate capacity (and therefore occupancy at a given workload)
        comparable to the unsharded spec, so sharded-vs-single benches
        are apples to apples.
        """
        if self.shards <= 1:
            return [self]
        # Each shard sees only the device-level fault clauses that apply
        # to it (shard scope stripped, transient streams re-seeded per
        # shard); loss clauses stay with the composite, which resolves
        # them by killing whole shards.
        faults = self.faults
        return [replace(self, shards=1,
                        volume_bytes=self.volume_bytes // self.shards,
                        faults=faults.for_shard(i) if faults else None,
                        **_COMPOSITE_RESETS)
                for i in range(self.shards)]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly form, recorded verbatim in run results: one key
        per field, in declaration order."""
        record = {f.name: getattr(self, f.name)
                  for f in dataclass_fields(self)}
        record["policy"] = self.policy.to_dict()
        record["faults"] = self.faults.text() if self.faults else ""
        record["arrival"] = self.arrival.text()
        record["options"] = {k: _jsonable(v) for k, v in self.options}
        return record

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, *, default_backend: str | None = None,
              **defaults: Any) -> "StoreSpec":
        """Parse ``backend:key=val,...`` (see the module docstring).

        An empty backend part (``":reorder=clook"``) falls back to
        ``default_backend``, so figure benches can apply one ``--store``
        override across curves of different backends.  Keyword
        ``defaults`` fill spec fields the text does not set — the text
        always wins, so ``volume=8G`` in a spec survives a caller that
        passes its own ``volume_bytes`` (e.g. the CLI's ``--volume``
        default).
        """
        options: dict[str, str] = {}
        backend, raw = tokenize("store spec", text)
        values = convert_items("store spec", raw, _KEYS, unknown=options)
        backend = backend or (default_backend or "")
        if not backend:
            raise ConfigError(f"store spec {text!r} names no backend")
        policy = {key: values.pop(key) for key in ("reorder", "batch")
                  if key in values}
        fields: dict[str, Any] = {_KEYS[key].field or key: value
                                  for key, value in values.items()}
        fields.update(backend=backend, options=options)
        if policy:
            fields["policy"] = DevicePolicy(
                batch_size=policy.get("batch", 0),
                reorder=policy.get("reorder", "none"),
            )
        for key, value in defaults.items():
            fields.setdefault(key, value)
        return cls(**fields)


#: The spec-level keys of the text form (see :mod:`repro.specgrammar`);
#: any other key is a backend option.  ``reorder`` and ``batch``
#: together make the ``policy`` field.
_KEYS = {
    "volume": Key(to_size, field="volume_bytes"),
    "write_request": Key(to_size),
    "store_data": Key(to_bool),
    "reorder": Key(choice(*REORDER_KINDS), field="policy"),
    "batch": Key(to_int, field="policy"),
    "shards": Key(to_int),
    "placement": Key(str),
    "band_bytes": Key(to_size),
    "overlap": Key(to_bool),
    "parallelism": Key(to_int),
    "dispatch_overhead": Key(to_float, field="dispatch_overhead_s"),
    "replicas": Key(to_int),
    "faults": Key(FaultProfile.parse),
    "rebuild_rate": Key(to_float),
    "rebalance_rate": Key(to_float),
    "checkpoint_rate": Key(to_float),
    "queue": Key(str),
    "depth": Key(to_int, field="queue_depth"),
    "arrival": Key(ArrivalSpec.parse),
}


#: Fields a shard sub-spec resets to their declared defaults: the
#: composite's dispatch loop owns overlap, replication, the event
#: queue and write-back, so sub-specs must not re-trigger them.
#: Resolved from the dataclass so a changed default cannot drift from
#: this reset site, and a misspelt name is a ``KeyError`` at import.
_COMPOSITE_RESETS = {
    name: StoreSpec.__dataclass_fields__[name].default
    for name in ("overlap", "replicas", "queue", "queue_depth", "arrival",
                 "checkpoint_rate")
}


def _jsonable(value: Any) -> Any:
    """Options may hold config objects; record something serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    for attr in ("to_dict", "_asdict"):
        method = getattr(value, attr, None)
        if callable(method):
            return method()
    if hasattr(value, "__dataclass_fields__"):
        return {f: _jsonable(getattr(value, f))
                for f in value.__dataclass_fields__}
    return repr(value)
