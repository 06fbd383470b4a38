"""The filesystem's transactional log and deferred free-space reuse.

Section 2 of the paper: *"the NTFS transactional log entry must be
committed before freed space can be reallocated after file deletion."*

:class:`Journal` models that: extents freed by deletes are *pending*
until the next commit, at which point they enter the free index (and
coalesce).  Commits happen every ``commit_interval_ops`` metadata
operations — batching several operations per commit the way a real log
does — or explicitly via :meth:`commit`.

The journal also charges I/O: each logged operation appends a small
record to the log region (sequential), and each commit forces the log.
The log region is circular (like $LogFile): a commit whose batch does
not fit before the region's end splits into a tail write plus a head
write, charging exactly the batch's bytes and leaving the cursor
wrap-correct.

Crash semantics
---------------
A commit has a single durability point: the log force (:meth:`commit`'s
flush).  Frees logged but not yet forced are **non-durable** — a crash
discards them (the delete never happened; the file still exists on the
real volume).  Frees whose force completed but whose free-index update
was lost are **replayable** — mount-time recovery redoes them, ARIES
style.  :meth:`recover` applies exactly that rule and reports both
sets; :meth:`snapshot_state` exposes the recoverable state for the
persistence layer to encode and verify (:mod:`repro.persist.snapshot`).
The invariant the crash-injection suite holds every kill point to: an
extent is never allocatable before the commit that freed it is durable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.disk.device import BlockDevice
from repro.errors import ConfigError


@dataclass(frozen=True)
class JournalState:
    """The recoverable state of a :class:`Journal` at one instant.

    ``pending`` are frees logged but not durably committed (discarded by
    recovery); ``replayable`` are frees whose commit is durable but whose
    free-index publication had not happened yet (redone by recovery).
    Outside a crash window ``replayable`` is always empty.
    """

    cursor: int
    ops_since_commit: int
    buffered_records: int
    commits: int
    logged_ops: int
    pending: tuple[Extent, ...]
    replayable: tuple[Extent, ...]


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`Journal.recover` did on a mount after a crash."""

    replayed: tuple[Extent, ...]
    discarded: tuple[Extent, ...]


class Journal:
    """Write-ahead metadata log with deferred free reuse.

    Parameters
    ----------
    device:
        Device to charge log writes to.
    free_index:
        Where committed frees are returned.
    log_base, log_size:
        The log region (a circular file, like $LogFile).
    commit_interval_ops:
        Logged operations per group commit.  1 commits every operation;
        larger values batch, widening the window in which freed space is
        unavailable for reuse.
    record_bytes:
        Bytes appended to the log per operation.
    """

    def __init__(self, device: BlockDevice, free_index: FreeExtentIndex, *,
                 log_base: int, log_size: int,
                 commit_interval_ops: int = 8,
                 record_bytes: int = 4096,
                 charge_io: bool = True) -> None:
        if commit_interval_ops < 1:
            raise ConfigError("commit_interval_ops must be >= 1")
        if log_size < record_bytes:
            raise ConfigError("log region smaller than one record")
        self._device = device
        self._free_index = free_index
        self._log_base = log_base
        self._log_size = log_size
        self._commit_interval = commit_interval_ops
        self._record_bytes = record_bytes
        self._charge_io = charge_io
        self._cursor = 0
        self._ops_since_commit = 0
        self._buffered_records = 0
        self._pending_frees: list[Extent] = []
        self._pending_bytes = 0
        #: Durably committed frees not yet in the free index; non-empty
        #: only between a commit's force and its publication.
        self._replayable: list[Extent] = []
        self._replayable_bytes = 0
        self.commits = 0
        self.logged_ops = 0
        #: Optional fault-injection hook: called with a label at the
        #: commit's crash point; raising aborts the commit there.  Left
        #: ``None`` in production so checkpoints stay picklable.
        self.crash_hook = None

    # ------------------------------------------------------------------
    def log_operation(self, *, frees: list[Extent] | None = None) -> None:
        """Record one metadata operation (create/delete/rename/extend).

        Records accumulate in the in-memory log buffer (no I/O yet —
        like NTFS's log buffer) and hit the platter as one sequential
        write at the next group commit.  ``frees`` are extents released
        by the operation; they become allocatable only at that commit.
        """
        self.logged_ops += 1
        self._buffered_records += 1
        if frees:
            self._pending_frees.extend(frees)
            for ext in frees:
                self._pending_bytes += ext.length
        self._ops_since_commit += 1
        if self._ops_since_commit >= self._commit_interval:
            self.commit()

    def commit(self) -> None:
        """Write the buffered records, force the log, publish frees."""
        if self._ops_since_commit == 0 and not self._pending_frees \
                and self._buffered_records == 0 and not self._replayable:
            return
        if self._charge_io and self._buffered_records:
            self._write_records(self._buffered_records * self._record_bytes)
        if self._charge_io:
            self._device.flush()
        # The force is the durability point: from here the logged frees
        # survive a crash (they move to the replayable set) even though
        # the free index has not absorbed them yet.
        self._buffered_records = 0
        self.commits += 1
        self._ops_since_commit = 0
        if self._pending_frees:
            self._replayable.extend(self._pending_frees)
            self._replayable_bytes += self._pending_bytes
            self._pending_frees.clear()
            self._pending_bytes = 0
        self._crash("commit:after_force")
        self._publish_replayable()

    def _write_records(self, nbytes: int) -> None:
        """Charge ``nbytes`` of log writes, wrapping the circular region.

        A batch that does not fit before the region's end splits into a
        tail write plus a head write (and keeps lapping for batches
        larger than the whole region), so exactly ``nbytes`` are charged
        and the cursor lands at its wrap-correct position.
        """
        cursor = self._cursor
        log_size = self._log_size
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, log_size - cursor)
            self._device.write(self._log_base + cursor, chunk)
            cursor = (cursor + chunk) % log_size
            remaining -= chunk
        self._cursor = cursor

    def _publish_replayable(self) -> None:
        replay, self._replayable = self._replayable, []
        self._replayable_bytes = 0
        for ext in replay:
            self._free_index.add(ext)

    def _crash(self, label: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(label)

    # ------------------------------------------------------------------
    # Crash recovery and state snapshot
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Mount-after-crash: replay durable frees, discard the rest.

        Replayable frees (force completed, publication lost) are redone
        into the free index; pending frees (never forced) are discarded
        — per the paper's rule, their space was never allowed to become
        allocatable, and on the real volume those files still exist.
        The log buffer is dropped and the cursor left wrap-correct.
        """
        replayed = tuple(self._replayable)
        self._publish_replayable()
        discarded = tuple(self._pending_frees)
        self._pending_frees.clear()
        self._pending_bytes = 0
        self._buffered_records = 0
        self._ops_since_commit = 0
        self._cursor %= self._log_size
        return RecoveryReport(replayed=replayed, discarded=discarded)

    def snapshot_state(self) -> JournalState:
        """The recoverable state, for the persistence layer."""
        return JournalState(
            cursor=self._cursor,
            ops_since_commit=self._ops_since_commit,
            buffered_records=self._buffered_records,
            commits=self.commits,
            logged_ops=self.logged_ops,
            pending=tuple(self._pending_frees),
            replayable=tuple(self._replayable),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_free_bytes(self) -> int:
        """Freed-but-not-yet-allocatable bytes — an O(1) counter read.

        Covers both the non-durable pending frees and any transiently
        unpublished replayable frees.  No run path reads it; only tests
        do.  ``_pending_bytes`` and ``_replayable_bytes`` are still kept
        up to date on every logged free, commit and recovery because
        both are pickled into checkpoints: dropping them moves the
        checkpoint bytes charged to the modelled clock, so it waits on
        ROADMAP 1c.
        """
        return self._pending_bytes + self._replayable_bytes

    @property
    def pending_frees(self) -> tuple[Extent, ...]:
        """Frees logged but not durably committed (a copy)."""
        return tuple(self._pending_frees)

    @property
    def replayable_frees(self) -> tuple[Extent, ...]:
        """Durably committed frees not yet published (a copy)."""
        return tuple(self._replayable)

    @property
    def log_size(self) -> int:
        return self._log_size

    @property
    def log_base(self) -> int:
        return self._log_base

    @property
    def record_bytes(self) -> int:
        return self._record_bytes
