"""Declarative device fault injection.

The paper's aging runs assume devices never fail; at the fleet scale the
ROADMAP targets, they do.  This module turns the test-only crash device
that grew up in ``tests/crashsim.py`` into a supported runtime
primitive: a :class:`FaultProfile` parsed from spec text, applied to a
:class:`~repro.disk.device.BlockDevice` as a :class:`FaultyBlockDevice`
that injects three fault kinds plus the crash-clock semantics the
recovery matrices already rely on.  Each value rule lives in the
:class:`FaultClause` or :class:`FaultProfile` constructor, so text and
programmatic profiles refuse the same values.

Fault spec grammar
------------------
A profile is a ``;``-separated list of clauses; each clause is a fault
kind followed by ``key=value`` parameters separated by ``:`` or ``,``
(both accepted; inside a ``--store`` spec, whose options split on
commas, write them with ``:``)::

    transient:rate=1e-4;slow:shard=2,factor=8;loss:shard=1,at_age=3

(The rules shared with the other specs — first-``=`` split, duplicate
keys, non-finite values — are in :mod:`repro.specgrammar`.)

* ``transient`` — each timed call (a request or a batch) fails with
  probability ``rate``, raising :class:`~repro.errors.TransientIoError`
  before any time is charged or content applied (the failure happens up
  front).  Every read that meets one retries through
  :func:`retry_read`, and the reader charges its backoff.  Optional
  ``ops=read|write|all`` scopes injection, ``shard=N`` restricts it to
  one shard of a composite, and ``seed=N`` picks the injection stream.
  At most one transient clause may reach a device: two unscoped, two
  for one shard, or an unscoped one beside a scoped one are refused;
  clauses for different shards are not.
* ``slow`` — every service time on the device is multiplied by
  ``factor`` (a degraded spindle), visible in
  :class:`~repro.disk.iostats.IoStats` and the device clock.  Optional
  ``shard=N`` scope.
* ``loss`` — shard ``shard=N`` dies permanently, either immediately
  (no ``at_age``) or when the experiment reaches ``at_age=A``; the
  device raises :class:`~repro.errors.ShardLostError` on every
  subsequent I/O.  Loss clauses are resolved by the
  :class:`~repro.backends.sharded.ShardedStore` composite, never by a
  single device.

Injection is deterministic: transient draws come from a
:func:`repro.rng.substream` keyed by the clause seed, and
:meth:`FaultProfile.for_shard` re-keys the stream per shard so shards
fail independently but reproducibly.

Crash semantics (:class:`CrashClock`, ``torn=``) are unchanged from the
PR 4 harness: the clock counts write events across every device of one
system and raises :class:`~repro.errors.CrashPoint` on the armed event,
optionally after applying half of the doomed write's first span.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from repro.disk.device import BlockDevice, RequestRun, Span, requests_of
from repro.disk.geometry import DiskGeometry
from repro.errors import (ConfigError, CrashPoint, ShardLostError,
                          TransientIoError)
from repro.rng import derive_seed, substream
from repro.specgrammar import (Key, convert_items, format_items,
                               render, to_float, to_int, tokenize)

__all__ = [
    "CrashClock",
    "DeviceFaults",
    "FaultClause",
    "FaultProfile",
    "FaultyBlockDevice",
    "read_live",
    "retry_read",
]

#: Recognised fault kinds, in canonical rendering order.
FAULT_KINDS = ("transient", "slow", "loss")

#: Operation scopes a ``transient`` clause may target.
TRANSIENT_OPS = ("read", "write", "all")

#: Bounded retry for transient read faults: re-issues per read.
READ_RETRIES = 3
#: Capped exponential backoff charged before each re-issue.
BACKOFF_BASE_S = 0.002
BACKOFF_CAP_S = 0.016


def retry_read(pause, read, *args):
    """Re-issue ``read(*args)`` after the :class:`TransientIoError` it
    just raised, up to :data:`READ_RETRIES` times, each after
    ``pause(seconds)`` of capped exponential backoff; once the budget
    is spent, the last fault propagates."""
    attempt = 0
    while True:
        pause(min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** attempt))
        attempt += 1
        try:
            return read(*args)
        except TransientIoError:
            if attempt == READ_RETRIES:
                raise


def read_live(device: BlockDevice, spans: list[Span]) -> bytes | None:
    """A cleaner's read of a live record it is about to copy: the stored
    bytes of ``spans`` when ``device`` keeps content (else ``None``),
    then one timed read of them whose transient faults retry, each
    backoff charged as device CPU time."""
    payload = b"".join(device.peek(start, length) for start, length in spans) \
        if device.stores_data else None
    try:
        device.read_extents(spans)
    except TransientIoError:
        retry_read(device.stats.record_cpu, device.read_extents, spans)
    return payload


# ----------------------------------------------------------------------
# Crash clock (promoted from tests/crashsim.py)
# ----------------------------------------------------------------------
class CrashClock:
    """Countdown shared by every faulty device of one system.

    ``kill_after=None`` never fires (used for the fault-free baseline
    that measures a workload's write-event count); ``kill_after=k``
    fires on the ``k``-th write event (0-based), once.
    """

    def __init__(self, kill_after: int | None = None) -> None:
        self.kill_after = kill_after
        self.events = 0
        self.fired = False

    def tick(self, label: str = "") -> None:
        """Count one write event; raise :class:`CrashPoint` when armed."""
        if (self.kill_after is not None and not self.fired
                and self.events >= self.kill_after):
            self.fired = True
            raise CrashPoint(
                f"injected crash at write event {self.events}"
                + (f" ({label})" if label else "")
            )
        self.events += 1


# ----------------------------------------------------------------------
# Profile: parsed clauses
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FaultClause:
    """One parsed clause of a fault profile."""

    kind: str                    # one of FAULT_KINDS
    shard: int | None = None     # None = applies to every shard/device
    rate: float = 0.0            # transient: per-batch failure probability
    ops: str = "all"             # transient: operation scope
    factor: float = 1.0          # slow: service-time multiplier
    at_age: float | None = None  # loss: trigger age (None = immediate)
    seed: int = 0                # transient: injection stream seed

    def __post_init__(self) -> None:
        if self.shard is not None and self.shard < 0:
            raise ConfigError(
                f"fault {self.kind}: shard {self.shard} must be >= 0")
        if self.kind == "loss" and self.shard is None:
            raise ConfigError("fault loss: shard= is required")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(
                f"fault transient: rate {self.rate} not in [0, 1]")
        if self.ops not in TRANSIENT_OPS:
            raise ConfigError(f"fault transient: ops {self.ops!r} unknown; "
                              f"choose from {TRANSIENT_OPS}")
        if not self.factor > 0.0:
            raise ConfigError(f"fault slow: factor {self.factor} must be > 0")
        if self.at_age is not None and not self.at_age >= 0.0:
            raise ConfigError(
                f"fault loss: at_age {self.at_age} must be >= 0")

    def text(self) -> str:
        """Canonical clause text (colon separators, re-parseable)."""
        shown = {"shard": self.shard, "rate": self.rate,
                 "ops": self.ops if self.ops != "all" else None,
                 "seed": self.seed or None, "factor": self.factor,
                 "at_age": self.at_age}
        return render(self.kind,
                      format_items(_CLAUSE_KEYS[self.kind], shown), ":")


_SHARD = {"shard": Key(to_int)}
#: Per-kind key tables, in canonical rendering order.
_CLAUSE_KEYS = {
    "transient": {**_SHARD, "rate": Key(to_float, repr),
                  "ops": Key(str), "seed": Key(to_int)},
    "slow": {**_SHARD, "factor": Key(to_float, repr)},
    "loss": {**_SHARD, "at_age": Key(to_float, repr)},
}
#: The key a clause text must give (FaultClause requires a loss shard).
_REQUIRED = {"transient": "rate", "slow": "factor"}


def _parse_clause(text: str) -> FaultClause:
    kind, raw = tokenize("fault clause", text, ":,")
    table = _CLAUSE_KEYS.get(kind)
    if table is None:
        raise ConfigError(
            f"unknown fault kind {kind!r} (expected one of {FAULT_KINDS})")
    clause = FaultClause(kind, **convert_items(f"fault {kind}", raw, table))
    required = _REQUIRED.get(kind)
    if required is not None and required not in raw:
        raise ConfigError(f"fault {kind}: {required}= is required")
    return clause


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """An ordered set of fault clauses parsed from spec text."""

    clauses: tuple[FaultClause, ...] = ()

    def __post_init__(self) -> None:
        shards = [c.shard for c in self.clauses if c.kind == "transient"]
        if len(shards) > 1 and (None in shards
                                or len(set(shards)) < len(shards)):
            raise ConfigError(f"fault profile {self.text()!r}: two "
                              "transient clauses reach one device")

    @classmethod
    def parse(cls, text: str) -> "FaultProfile":
        """Parse profile text (see the module docstring for the grammar)."""
        clauses = tuple(_parse_clause(part)
                        for part in text.split(";") if part.strip())
        if not clauses:
            raise ConfigError(f"fault profile {text!r} has no clauses")
        return cls(clauses)

    def text(self) -> str:
        """Canonical profile text; ``parse(text())`` round-trips."""
        return ";".join(clause.text() for clause in self.clauses)

    @property
    def losses(self) -> tuple[FaultClause, ...]:
        return tuple(c for c in self.clauses if c.kind == "loss")

    def max_shard(self) -> int | None:
        """Largest shard index referenced, or None if none is."""
        scoped = [c.shard for c in self.clauses if c.shard is not None]
        return max(scoped) if scoped else None

    def for_shard(self, index: int) -> "FaultProfile":
        """Device-level clauses as seen by shard ``index``.

        Keeps ``transient``/``slow`` clauses that target this shard (or
        every shard), strips the ``shard=`` scope, and re-keys each
        transient seed per shard so sibling shards draw independent —
        but reproducible — injection streams.  ``loss`` clauses stay at
        the composite level and are dropped here.
        """
        kept = []
        for clause in self.clauses:
            if clause.kind == "loss":
                continue
            if clause.shard is not None and clause.shard != index:
                continue
            clause = replace(clause, shard=None)
            if clause.kind == "transient":
                clause = replace(
                    clause, seed=derive_seed(clause.seed, f"shard{index}"))
            kept.append(clause)
        return FaultProfile(tuple(kept))

    def device_faults(self) -> "DeviceFaults | None":
        """Resolve unscoped device clauses into a runtime injector.

        Shard-scoped clauses are ignored (resolve them first with
        :meth:`for_shard`); returns ``None`` when nothing applies, so
        callers can keep using a plain :class:`BlockDevice`.
        """
        rate, ops, seed, factor = 0.0, "all", 0, 1.0
        for clause in self.clauses:
            if clause.shard is not None or clause.kind == "loss":
                continue
            if clause.kind == "transient":
                rate, ops, seed = clause.rate, clause.ops, clause.seed
            else:  # slow factors compose multiplicatively
                factor *= clause.factor
        if rate == 0.0 and factor == 1.0:
            return None
        return DeviceFaults(transient_rate=rate, transient_ops=ops,
                            slow_factor=factor, seed=seed)


# ----------------------------------------------------------------------
# Runtime injector state for one device
# ----------------------------------------------------------------------
class DeviceFaults:
    """Resolved, per-device fault state with its own injection stream."""

    def __init__(self, *, transient_rate: float = 0.0,
                 transient_ops: str = "all", slow_factor: float = 1.0,
                 seed: int = 0) -> None:
        self.transient_rate = transient_rate
        self.transient_ops = transient_ops
        self.slow_factor = slow_factor
        self._rng = substream(seed, "transient-faults")

    def fires_on(self, is_write: bool) -> bool:
        """Draw once: does this batch fail transiently?"""
        if self.transient_rate <= 0.0:
            return False
        if self.transient_ops == "read" and is_write:
            return False
        if self.transient_ops == "write" and not is_write:
            return False
        return self._rng.random() < self.transient_rate


# ----------------------------------------------------------------------
# The faulty device
# ----------------------------------------------------------------------
class FaultyBlockDevice(BlockDevice):
    """A block device with crash, transient, latency, and loss faults.

    It overrides the plain device's fault seam, :meth:`_admit`, and no
    timed entry point, so every call is checked (a bad one is refused
    even on a lost device), admitted, served, and costed once; only
    :meth:`write_each` admits each of its requests on its own.

    Crash semantics (the PR 4 recovery-matrix contract): reads never
    crash (a dying read loses nothing); every write call and every
    ``flush`` ticks the shared clock first.  With ``torn=True`` the
    doomed write additionally applies the first half of its first span's
    content (untimed, like a partial transfer cut by power loss) before
    raising — so content-checked recovery sees a genuinely torn state,
    not just a missing one.

    Runtime faults (``faults=``, a :class:`DeviceFaults`): transient
    errors fail a call up front — no time charged, no content applied —
    so a retried operation pays exactly one successful service; slow
    factors scale every modelled service time (:meth:`_scaled`: requests,
    flush, checkpoint write-back).  After
    :meth:`mark_lost`, every timed operation raises
    :class:`~repro.errors.ShardLostError`; untimed inspection
    (``peek``/``poke``) still works, because recovery tooling may
    examine a dead device's platters.
    """

    def __init__(self, geometry: DiskGeometry, *,
                 clock: CrashClock | None = None,
                 torn: bool = False,
                 faults: DeviceFaults | None = None, **kwargs) -> None:
        super().__init__(geometry, **kwargs)
        self.clock = clock if clock is not None else CrashClock()
        self.torn = torn
        self.faults = faults
        self._lost = False

    # -- loss ----------------------------------------------------------
    def mark_lost(self) -> None:
        """Permanently fail the device; all further timed I/O raises."""
        self._lost = True

    def _check_lost(self) -> None:
        if self._lost:
            raise ShardLostError("device is permanently lost")

    # -- cost model ----------------------------------------------------
    def _cost_of(self, runs, head):
        costed, head = super()._cost_of(runs, head)
        return [(nbytes, self._scaled(service), seeks, count)
                for nbytes, service, seeks, count in costed], head

    def _scaled(self, service_s: float) -> float:
        faults = self.faults
        return service_s if faults is None else service_s * faults.slow_factor

    # -- timed I/O -----------------------------------------------------
    def _admit(self, is_write: bool, runs: Iterable[RequestRun],
               data: bytes | list[bytes] | None) -> None:
        """The fault seam: loss, the crash tick (and tear) of a write, one
        transient draw."""
        self._check_lost()
        if is_write:
            try:
                self.clock.tick("write")
            except CrashPoint:
                if self.torn and self.stores_data and data is not None:
                    self._tear(runs, data)
                raise
        faults = self.faults
        if faults is not None and faults.fires_on(is_write):
            raise TransientIoError("injected transient "
                                   f"{'write' if is_write else 'read'} error")

    def _tear(self, runs: Iterable[RequestRun],
              data: bytes | list[bytes]) -> None:
        """Apply half of the first non-empty request's first span, from
        the front of the payload (an empty request's payload is empty)."""
        payload = b"".join(data) if isinstance(data, list) else data
        for spans, _ in runs:
            if spans:
                start, length = spans[0]
                if length // 2:
                    self.poke(start, payload[:length // 2])
                return

    def write_each(self, runs: list[RequestRun],
                   data: list[bytes] | None = None) -> None:
        # The runs are refused whole before anything moves, then each
        # request is one ``_serve``: admitted, ticked, torn, drawn and
        # slowed on its own, as one ``write_extents`` each.
        self._cost_of(runs, self._head)
        requests = list(requests_of(runs))
        self._check_payloads(requests, True, data)
        for at, spans in enumerate(requests):
            self._serve(True, spans, None if data is None else data[at])

    def charge_sequential_write(self, nbytes: int) -> float:
        self._check_lost()
        return super().charge_sequential_write(nbytes)

    def flush(self) -> None:
        self._check_lost()
        self.clock.tick("flush")
        super().flush()
