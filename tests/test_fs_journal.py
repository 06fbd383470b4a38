"""Tests for the filesystem journal and deferred free reuse."""

import pytest

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError, CrashPoint, SnapshotError
from repro.fs.journal import Journal
from repro.persist import decode_journal_state, encode_journal, verify_journal
from repro.units import KB, MB

RECORD = 4096


def make_journal(commit_interval=4, charge_io=True):
    device = BlockDevice(scaled_disk(16 * MB))
    index = FreeExtentIndex(16 * MB, initially_free=False)
    journal = Journal(device, index, log_base=0, log_size=1 * MB,
                      commit_interval_ops=commit_interval,
                      charge_io=charge_io)
    return journal, index, device


class TestDeferredFrees:
    def test_frees_invisible_until_commit(self):
        journal, index, _ = make_journal(commit_interval=4)
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        assert index.total_free == 0
        assert journal.pending_free_bytes == 1 * MB

    def test_commit_publishes_frees(self):
        journal, index, _ = make_journal(commit_interval=100)
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        journal.commit()
        assert index.total_free == 1 * MB
        assert journal.pending_free_bytes == 0

    def test_auto_commit_on_interval(self):
        journal, index, _ = make_journal(commit_interval=3)
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        journal.log_operation()
        assert index.total_free == 0
        journal.log_operation()  # third op triggers the group commit
        assert index.total_free == 1 * MB
        assert journal.commits == 1

    def test_published_frees_coalesce(self):
        journal, index, _ = make_journal(commit_interval=100)
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        journal.log_operation(frees=[Extent(3 * MB, 1 * MB)])
        journal.commit()
        assert list(index) == [Extent(2 * MB, 2 * MB)]

    def test_empty_commit_is_noop(self):
        journal, _, device = make_journal()
        before = device.stats.write_time_s
        journal.commit()
        assert device.stats.write_time_s == before
        assert journal.commits == 0


class TestLogIo:
    def test_commit_writes_batched_records_and_flushes(self):
        journal, _, device = make_journal(commit_interval=100)
        for _ in range(5):
            journal.log_operation()
        assert device.stats.write_bytes == 0  # buffered, like a log buffer
        journal.commit()
        assert device.stats.write_bytes == 5 * 4096
        assert device.stats.requests >= 1

    def test_charge_io_off(self):
        journal, _, device = make_journal(charge_io=False)
        for _ in range(10):
            journal.log_operation()
        journal.commit()
        assert device.stats.write_bytes == 0

    def test_log_wraps(self):
        journal, _, device = make_journal(commit_interval=1)
        # 1 MB log, 4 KB records: 256 records before wrap.
        for _ in range(300):
            journal.log_operation()
        assert device.stats.write_bytes == 300 * 4096

    def test_validation(self):
        device = BlockDevice(scaled_disk(16 * MB))
        index = FreeExtentIndex(16 * MB, initially_free=False)
        with pytest.raises(ConfigError):
            Journal(device, index, log_base=0, log_size=1 * MB,
                    commit_interval_ops=0)
        with pytest.raises(ConfigError):
            Journal(device, index, log_base=0, log_size=100)


class TestCircularWraparound:
    """Regression: a batch straddling the region's end must split into
    tail + head writes, charging exactly the batch's bytes (the old
    code reset the cursor and clamped, mischarging the I/O)."""

    def make_small_log(self, log_records: int):
        device = BlockDevice(scaled_disk(16 * MB))
        index = FreeExtentIndex(16 * MB, initially_free=False)
        journal = Journal(device, index, log_base=0,
                          log_size=log_records * RECORD,
                          commit_interval_ops=10_000)
        return journal, device

    def test_straddling_batch_splits_and_charges_exact_bytes(self):
        journal, device = self.make_small_log(16)  # 64 KB region
        for _ in range(14):
            journal.log_operation()
        journal.commit()  # cursor at 56 KB, 8 KB remain
        assert journal.snapshot_state().cursor == 14 * RECORD
        bytes_before = device.stats.write_bytes
        requests_before = device.stats.requests
        for _ in range(5):
            journal.log_operation()
        journal.commit()  # 20 KB batch: 8 KB tail + 12 KB head
        assert device.stats.write_bytes - bytes_before == 5 * RECORD
        # Two record writes (tail, head) plus the forcing flush.
        assert device.stats.requests - requests_before == 3
        assert journal.snapshot_state().cursor \
            == (14 + 5) * RECORD % (16 * RECORD)

    def test_batch_larger_than_whole_region_charges_every_byte(self):
        journal, device = self.make_small_log(16)  # 64 KB region
        for _ in range(20):  # 80 KB buffered: more than one lap
            journal.log_operation()
        journal.commit()
        assert device.stats.write_bytes == 20 * RECORD
        assert journal.snapshot_state().cursor == 20 * RECORD % (16 * RECORD)

    def test_exact_fit_wraps_cursor_to_zero(self):
        journal, device = self.make_small_log(8)
        for _ in range(8):
            journal.log_operation()
        journal.commit()
        assert journal.snapshot_state().cursor == 0
        assert device.stats.write_bytes == 8 * RECORD

    def test_bytes_exact_across_many_wrapping_commits(self):
        journal, device = self.make_small_log(7)  # prime-ish region
        for _ in range(100):
            journal.log_operation()
            if journal.logged_ops % 5 == 0:
                journal.commit()
        journal.commit()
        assert device.stats.write_bytes == 100 * RECORD
        assert journal.snapshot_state().cursor == 100 * RECORD % (7 * RECORD)


class _CountingList(list):
    """Iteration counter for the O(1) accounting regression."""

    def __init__(self, *args):
        super().__init__(*args)
        self.traversals = 0

    def __iter__(self):
        self.traversals += 1
        return super().__iter__()


class TestIncrementalPendingBytes:
    def test_pending_free_bytes_never_rescans_the_list(self):
        journal, index, _ = make_journal(commit_interval=10_000)
        for i in range(500):
            journal.log_operation(frees=[Extent(i * 2 * KB, 1 * KB)])
        counting = _CountingList(journal._pending_frees)
        journal._pending_frees = counting
        for _ in range(100):
            assert journal.pending_free_bytes == 500 * KB
        assert counting.traversals == 0
        assert len(journal.pending_frees) == 500

    def test_counter_tracks_commit_and_recover(self):
        journal, index, _ = make_journal(commit_interval=10_000)
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        assert journal.pending_free_bytes == 1 * MB
        journal.commit()
        assert journal.pending_free_bytes == 0
        journal.log_operation(frees=[Extent(4 * MB, 1 * MB)])
        journal.recover()
        assert journal.pending_free_bytes == 0


class TestRecovery:
    def test_unforced_frees_are_discarded(self):
        journal, index, _ = make_journal(commit_interval=10_000)
        ext = Extent(2 * MB, 1 * MB)
        journal.log_operation(frees=[ext])
        report = journal.recover()
        assert report.discarded == (ext,)
        assert report.replayed == ()
        assert index.total_free == 0  # never became allocatable
        assert len(journal.pending_frees) == 0

    def test_forced_but_unpublished_frees_are_replayed(self):
        journal, index, _ = make_journal(commit_interval=10_000)
        ext = Extent(2 * MB, 1 * MB)
        journal.log_operation(frees=[ext])

        def crash_at_commit(label):
            raise CrashPoint(label)

        journal.crash_hook = crash_at_commit
        with pytest.raises(CrashPoint):
            journal.commit()
        # The force completed: the free is durable but unpublished.
        assert index.total_free == 0
        assert journal.replayable_frees == (ext,)
        assert journal.pending_free_bytes == 1 * MB
        journal.crash_hook = None
        report = journal.recover()
        assert report.replayed == (ext,)
        assert report.discarded == ()
        assert index.total_free == 1 * MB

    def test_recover_on_clean_journal_is_empty(self):
        journal, _, _ = make_journal()
        report = journal.recover()
        assert report.replayed == () and report.discarded == ()

    def test_commit_after_interrupted_commit_publishes(self):
        """A crashed commit's replayable frees survive a later commit."""
        journal, index, _ = make_journal(commit_interval=10_000)
        ext = Extent(2 * MB, 1 * MB)
        journal.log_operation(frees=[ext])
        journal.crash_hook = lambda label: (_ for _ in ()).throw(
            CrashPoint(label))
        with pytest.raises(CrashPoint):
            journal.commit()
        journal.crash_hook = None
        journal.commit()
        assert index.total_free == 1 * MB


class TestStateSnapshot:
    def test_round_trip(self):
        journal, index, _ = make_journal(commit_interval=10_000)
        journal.log_operation(frees=[Extent(2 * MB, 1 * MB)])
        journal.log_operation()
        state = journal.snapshot_state()
        assert state.pending == (Extent(2 * MB, 1 * MB),)
        assert (state.logged_ops, state.buffered_records) == (2, 2)
        blob = encode_journal(journal)
        assert decode_journal_state(blob)[1] == state
        verify_journal(journal, blob)
        assert journal.pending_free_bytes == 1 * MB

    def test_restore_rejects_cursor_outside_log(self):
        """A resume verifies the unpickled journal against its snapshot;
        a snapshot whose cursor lies outside its own log is refused."""
        journal, _, _ = make_journal()
        journal._cursor = journal.log_size
        with pytest.raises(SnapshotError, match="cursor"):
            verify_journal(journal, encode_journal(journal))
