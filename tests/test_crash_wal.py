"""WAL kill-point matrix: ghost-record recovery under injected crashes.

The database analogue of ``test_crash_matrix.py``: replay a BLOB
put/replace/delete workload once per possible crash site — every data
write, every log append, every commit force, the host-side window
between the force and the ghost-cleaner hand-off, and every ghost
sweep — then assert the paper's deferred-free rule on the WAL side:

    **ghost-record recovery never resurrects uncommitted deletes** —
    pages ghosted by a delete whose commit was not durable at the crash
    stay allocated forever (the transaction rolled back; the row still
    exists), while ghost records whose force completed are replayed to
    the cleaner and deallocate normally.  At no kill point is an
    uncommitted delete's page free or cleaner-visible.
"""

import pytest

from crashsim import CrashClock, FaultyDevice, kill_point_matrix
from dboracle import runs_to_pages

from repro.db.database import DbConfig, SimDatabase
from repro.db.wal import GhostRecord, WriteAheadLog
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import CrashPoint
from repro.units import KB, MB

#: Aggressive cleaner settings so ghost sweeps interleave the workload
#: (sweep kill points actually fire) and batched commits stay small.
CRASHY_DB_CONFIG = DbConfig(
    write_request=64 * KB,
    ghost_cleanup_interval_ops=2,
    ghost_max_pages_per_sweep=64,
    ghost_min_age_ops=2,
)


def build_db(clock: CrashClock) -> SimDatabase:
    data = FaultyDevice(scaled_disk(24 * MB), clock=clock)
    log = FaultyDevice(scaled_disk(4 * MB), clock=clock)
    db = SimDatabase(data, log, CRASHY_DB_CONFIG)
    db.wal.crash_hook = clock.hook      # force -> publish window
    db.ghost.crash_hook = clock.hook    # ghost-record sweep boundary
    return db


def workload(db: SimDatabase) -> None:
    ids = [db.put_blob(size=96 * KB) for _ in range(5)]
    # One multi-delete transaction: two ghost records, one force.
    db.delete_blob(ids[0], commit=False)
    db.delete_blob(ids[2], commit=False)
    db.commit()
    # Safe-write replacements (new blob + ghosted old, per commit).
    db.replace_blob(ids[1], size=64 * KB)
    db.replace_blob(ids[3], size=128 * KB)
    db.delete_blob(ids[4], commit=False)
    db.commit()


def recover_and_check(db: SimDatabase) -> None:
    """The assertions every kill point must pass."""
    gam = db.gam
    queued = set(runs_to_pages(db.ghost.queued_runs()))
    pending = db.wal.pending_ghosts
    # At crash time an uncommitted delete's pages are neither free nor
    # visible to the cleaner.
    for record in pending:
        assert record.runs, f"delete {record.token} ghosted nothing"
        for page in runs_to_pages(record.runs):
            assert gam.is_page_used(page), \
                f"page {page} of uncommitted delete {record.token} " \
                "was deallocated before its commit was durable"
            assert page not in queued, \
                f"page {page} reached the ghost cleaner before its " \
                "delete committed"
    replayable = db.wal.replayable_ghosts
    report = db.recover_after_crash()
    # Recovery replays exactly the durable-unpublished set and rolls
    # back exactly the pending set.
    assert report.replayed == replayable
    assert report.discarded == pending
    assert db.rolled_back_pages == report.discarded_runs()
    # Drain the cleaner completely: durable ghost records deallocate ...
    db.ghost.drain()
    assert db.ghost.pending_pages == 0
    for page in runs_to_pages(report.replayed_runs()):
        assert not gam.is_page_used(page), \
            f"replayed ghost page {page} never deallocated"
    # ... while rolled-back deletes never do (the resurrection check).
    for page in runs_to_pages(report.discarded_runs()):
        assert gam.is_page_used(page), \
            f"rolled-back delete's page {page} was freed — recovery " \
            "resurrected an uncommitted delete"
    gam.check_invariants()


class TestWalKillMatrix:
    def test_every_kill_point_recovers(self):
        matrix = list(kill_point_matrix(build_db, workload))
        crashes = sum(1 for _, crashed, _ in matrix if crashed)
        assert crashes > 20, "matrix exercised too few crash sites"
        saw_pending = saw_replayable = False
        for k, crashed, db in matrix:
            db.wal.crash_hook = None
            db.ghost.crash_hook = None
            saw_pending = saw_pending or bool(db.wal.pending_ghosts)
            saw_replayable = (saw_replayable
                              or bool(db.wal.replayable_ghosts))
            recover_and_check(db)
            # The recovered database stays usable: allocate and commit.
            new_id = db.put_blob(size=64 * KB)
            assert db.blobs.exists(new_id)
            db.check_invariants()
        # The matrix must actually have caught both interesting states:
        # deletes pending at the crash, and the force->publish window.
        assert saw_pending, "no kill point landed before a commit force"
        assert saw_replayable, \
            "no kill point landed between force and publish"


class TestWalGhostSemantics:
    """Targeted checks of the WAL's ghost-record life cycle."""

    def make_wal(self, **kwargs) -> tuple[WriteAheadLog, list[tuple]]:
        published: list[tuple] = []
        wal = WriteAheadLog(BlockDevice(scaled_disk(4 * MB)),
                            on_publish=published.append, **kwargs)
        return wal, published

    def test_pages_reach_cleaner_only_at_commit(self):
        wal, published = self.make_wal()
        wal.log_ghost([(3, 3), (9, 1)], token=7)
        assert published == []
        assert wal.pending_ghosts == (GhostRecord(7, ((3, 3), (9, 1))),)
        wal.commit()
        assert published == [((3, 3), (9, 1))]
        assert wal.pending_ghosts == ()
        assert wal.replayable_ghosts == ()

    def test_ghost_record_costs_one_log_record(self):
        wal, _ = self.make_wal()
        before = wal.logged_bytes
        wal.log_ghost([(1, 1)], token=1)
        assert wal.logged_bytes - before == WriteAheadLog.RECORD_BYTES
        assert wal.records == 1

    def test_crash_between_force_and_publish_replays(self):
        wal, published = self.make_wal()

        def boom(label: str) -> None:
            raise CrashPoint(label)

        wal.log_ghost([(8, 2)], token=2)
        wal.crash_hook = boom
        with pytest.raises(CrashPoint):
            wal.commit()
        # Forced but unpublished: durable, invisible to the cleaner.
        assert published == []
        assert wal.replayable_ghosts == (GhostRecord(2, ((8, 2),)),)
        wal.crash_hook = None
        report = wal.recover()
        assert report.replayed == (GhostRecord(2, ((8, 2),)),)
        assert report.replayed_runs() == [(8, 2)]
        assert report.discarded == ()
        assert published == [((8, 2),)]

    def test_crash_before_force_discards(self):
        wal, published = self.make_wal(charge_io=False)
        wal.log_ghost([(11, 1)], token=3)
        report = wal.recover()
        assert report.discarded == (GhostRecord(3, ((11, 1),)),)
        assert report.discarded_runs() == [(11, 1)]
        assert report.replayed == ()
        assert published == []
        # A later commit must not resurrect the rolled-back record.
        wal.log_operation()
        wal.commit()
        assert published == []
