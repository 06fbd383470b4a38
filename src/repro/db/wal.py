"""Write-ahead log with bulk-logged mode and delete-record durability.

The paper ran SQL Server in *bulk logged* mode: newly allocated BLOBs are
written to the data file and forced at commit; only allocation metadata
goes through the log, avoiding a second full copy of every object
(Section 4).  The log lives on its own device — "SQL was given a
dedicated log and data drive" — so log appends are sequential and do not
steal seeks from the data path.

Crash semantics
---------------
Deletes are the dangerous operation (the paper's Section 2 rule: freed
space must never be reallocatable before the delete that freed it is
durable).  A delete logs a *ghost record* — the page runs it ghosts ride
the log entry — and those runs reach the :class:`~repro.db.ghost.
GhostCleaner` (becoming candidates for deallocation) only when the
commit that logged them is **forced**.  The force is the single
durability point, mirroring :class:`repro.fs.journal.Journal`:

* ghost records logged but not forced are *pending* — a crash discards
  them (the transaction rolled back; the row and its pages are still
  live, and recovery must never free that space);
* records whose force completed but whose hand-off to the cleaner was
  lost are *replayable* — recovery redoes the hand-off, ARIES style.

:meth:`recover` applies exactly that rule; the crash-injection matrix
(``tests/test_crash_wal.py``) holds every kill point to it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.db.page import Run
from repro.disk.device import BlockDevice
from repro.errors import ConfigError


@dataclass(frozen=True)
class GhostRecord:
    """One logged delete: the transaction token and the runs it ghosts."""

    token: int
    runs: tuple[Run, ...]


@dataclass(frozen=True)
class WalRecoveryReport:
    """What :meth:`WriteAheadLog.recover` did on restart after a crash."""

    #: Durable ghost records whose cleaner hand-off was redone.
    replayed: tuple[GhostRecord, ...]
    #: Non-durable ghost records rolled back (pages stay allocated).
    discarded: tuple[GhostRecord, ...]

    def replayed_runs(self) -> list[Run]:
        return [run for record in self.replayed for run in record.runs]

    def discarded_runs(self) -> list[Run]:
        return [run for record in self.discarded for run in record.runs]


class WriteAheadLog:
    """Sequential circular log on a dedicated device."""

    #: Bytes per logged operation record (allocation metadata only).
    RECORD_BYTES = 512

    def __init__(self, device: BlockDevice, *, bulk_logged: bool = True,
                 charge_io: bool = True,
                 on_publish: Callable[[tuple[Run, ...]], None] | None = None
                 ) -> None:
        self.device = device
        self.bulk_logged = bulk_logged
        self._charge_io = charge_io
        self._cursor = 0
        self._pending_records = 0
        self.records = 0
        self.commits = 0
        self.logged_bytes = 0
        #: Where durable ghost records go (the cleaner's intake); set by
        #: the database facade.  None drops them (cost-only unit tests).
        self.on_publish = on_publish
        #: Ghost records logged since the last force (non-durable).
        self._pending_ghosts: list[GhostRecord] = []
        #: Durable ghost records not yet handed to the cleaner;
        #: non-empty only inside a commit's force→publish window.
        self._replayable_ghosts: list[GhostRecord] = []
        #: Optional fault-injection hook: called with a label at the
        #: commit's host-side crash point (between the force and the
        #: cleaner hand-off); raising aborts the commit there.
        self.crash_hook = None

    def log_operations(self, payloads: list[int]) -> None:
        """Log one operation record per entry of ``payloads``, as one
        :meth:`~repro.disk.device.BlockDevice.write_each` on the log
        device: each record is its own write request at the cursor,
        which wraps to the start of the device when a record would run
        past its end.

        In bulk-logged mode BLOB payloads are *not* logged — only the
        fixed-size allocation record.  In full-recovery mode the payload
        rides the log too (the configuration the paper avoided because
        it doubles the write volume).  A negative payload is refused
        before the cursor or any counter moves.
        """
        if any(payload < 0 for payload in payloads):
            raise ConfigError("payload bytes must be >= 0")
        record, full = self.RECORD_BYTES, not self.bulk_logged
        capacity = self.device.geometry.capacity
        cursor = self._cursor
        logged = 0
        requests = []
        for payload in payloads:
            nbytes = record + payload if full else record
            if cursor + nbytes > capacity:
                cursor = 0
            requests.append([(cursor, nbytes)])
            cursor += nbytes
            logged += nbytes
        if self._charge_io:
            self.device.write_each(requests)
        self._cursor = cursor
        self.logged_bytes += logged
        self.records += len(payloads)
        self._pending_records += len(payloads)

    def log_ghost(self, runs: Iterable[Run], *, token: int = 0) -> None:
        """Log one delete's ghost record.

        Cost-identical to a :meth:`log_operations` entry (one fixed-size
        record), but the ghosted runs travel with the record: they reach
        the ghost cleaner only at the commit that makes this record
        durable — never before, which is exactly the deferred-free rule.
        """
        self.log_operations([0])
        self._pending_ghosts.append(GhostRecord(token, tuple(runs)))

    def commit(self) -> None:
        """Group-commit: force the log, then publish ghost records."""
        if (self._pending_records == 0 and not self._pending_ghosts
                and not self._replayable_ghosts):
            return
        if self._charge_io:
            self.device.flush()
        # The force is the durability point: from here the logged ghost
        # records survive a crash (they move to the replayable set)
        # even though the cleaner has not seen them yet.
        self._pending_records = 0
        self.commits += 1
        if self._pending_ghosts:
            self._replayable_ghosts.extend(self._pending_ghosts)
            self._pending_ghosts = []
        self._crash("wal-commit:after_force")
        self._publish_replayable()

    def _publish_replayable(self) -> None:
        # Pop each record only after its hand-off succeeds: a failure
        # mid-publish leaves the rest replayable, never lost.
        ghosts = self._replayable_ghosts
        while ghosts:
            record = ghosts[0]
            if self.on_publish is not None:
                self.on_publish(record.runs)
            ghosts.pop(0)

    def _crash(self, label: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(label)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> WalRecoveryReport:
        """Restart-after-crash: replay durable ghost records, roll back
        the rest.

        Replayable records (force completed, cleaner hand-off lost) are
        redone; pending records (never forced) are discarded — their
        transactions rolled back, so the runs they name stay allocated
        and must never be freed.  The log cursor stays where it was
        (the circular log is self-describing on a real system).
        """
        replayed = tuple(self._replayable_ghosts)
        self._publish_replayable()
        discarded = tuple(self._pending_ghosts)
        self._pending_ghosts = []
        self._pending_records = 0
        return WalRecoveryReport(replayed=replayed, discarded=discarded)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_ghosts(self) -> tuple[GhostRecord, ...]:
        """Ghost records logged but not durably committed (a copy)."""
        return tuple(self._pending_ghosts)

    @property
    def replayable_ghosts(self) -> tuple[GhostRecord, ...]:
        """Durable ghost records not yet handed to the cleaner (a copy)."""
        return tuple(self._replayable_ghosts)
