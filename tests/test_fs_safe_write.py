"""Tests for the safe-write protocol (Section 4 of the paper)."""

import pytest

from repro.errors import ConfigError
from repro.units import KB, MB


class TestSafeWriteSemantics:
    def test_replaces_content_atomically(self, content_fs):
        content_fs.create("obj")
        content_fs.append("obj", data=b"old " * 1024)
        content_fs.safe_write("obj", data=b"new " * 2048)
        assert content_fs.read("obj") == b"new " * 2048

    def test_no_temp_files_remain(self, quiet_fs):
        quiet_fs.create("obj")
        quiet_fs.append("obj", nbytes=64 * KB)
        quiet_fs.safe_write("obj", size=128 * KB)
        names = [record.name for record in quiet_fs.table]
        assert names == ["obj"]

    def test_old_space_freed_after_commit(self, quiet_fs):
        quiet_fs.create("obj")
        quiet_fs.append("obj", nbytes=1 * MB)
        quiet_fs.safe_write("obj", size=1 * MB)
        quiet_fs.journal.commit()
        used = quiet_fs.data_capacity - quiet_fs.free_bytes
        slack = sum(e.length for e in
                    quiet_fs.metadata_traffic.outstanding_extents)
        assert used == 1 * MB + slack

    def test_size_change_supported(self, quiet_fs):
        quiet_fs.create("obj")
        quiet_fs.append("obj", nbytes=1 * MB)
        quiet_fs.safe_write("obj", size=256 * KB)
        assert quiet_fs.table.lookup("obj").size == 256 * KB

    def test_write_request_size_controls_append_count(self, quiet_fs):
        quiet_fs.create("obj")
        quiet_fs.append("obj", nbytes=64 * KB)
        record_before = quiet_fs.table.lookup("obj").append_requests
        quiet_fs.safe_write("obj", size=512 * KB, write_request=64 * KB)
        tmp_requests = quiet_fs.table.lookup("obj").append_requests
        assert tmp_requests == 8  # 512K / 64K appends on the temp file

    def test_validation(self, quiet_fs):
        quiet_fs.create("obj")
        with pytest.raises(ConfigError):
            quiet_fs.safe_write("obj")
        with pytest.raises(ConfigError):
            quiet_fs.safe_write("obj", size=10, data=b"ab")
        with pytest.raises(ConfigError):
            quiet_fs.safe_write("obj", size=0)

    @pytest.mark.parametrize("write_request", [0, -64 * KB])
    def test_bad_write_request_is_refused_before_the_temp_file(
            self, fs, write_request):
        fs.create("a")
        fs.append("a", nbytes=64 * KB)
        clock, logged = fs.device.clock_s, fs.journal.logged_ops
        with pytest.raises(ConfigError,
                           match="write_request must be positive"):
            fs.safe_write("a", size=128 * KB, write_request=write_request)
        assert [record.name for record in fs.table] == ["a"]
        assert (fs.device.clock_s, fs.journal.logged_ops) == (clock, logged)

    def test_charges_flush(self, quiet_fs):
        quiet_fs.create("obj")
        quiet_fs.append("obj", nbytes=64 * KB)
        before = quiet_fs.device.stats.write_time_s
        quiet_fs.safe_write("obj", size=64 * KB)
        # At minimum the temp file's fsync forced a rotation.
        assert quiet_fs.device.stats.write_time_s - before >= \
            quiet_fs.device.geometry.rotation_s


class _Crash(Exception):
    pass


class TestCrashAtomicity:
    """Fault injection: a crash at any point of the safe write leaves
    the old version fully readable — the property the protocol buys."""

    @pytest.mark.parametrize("label", [
        "safe_write:after_data",
        "safe_write:after_fsync",
    ])
    def test_crash_preserves_old_version(self, content_fs, label):
        content_fs.create("obj")
        old = b"OLD!" * (16 * KB // 4)
        content_fs.append("obj", data=old)

        def crash_hook(point: str) -> None:
            if point == label:
                raise _Crash(point)

        content_fs.crash_hook = crash_hook
        with pytest.raises(_Crash):
            content_fs.safe_write("obj", data=b"NEW!" * (16 * KB // 4))
        content_fs.crash_hook = None
        assert content_fs.read("obj") == old

    def test_crash_after_rename_exposes_new_version(self, content_fs):
        # Sanity check of the hook mechanism: without a crash the new
        # version is visible.
        content_fs.create("obj")
        content_fs.append("obj", data=b"OLD!" * 4096)
        content_fs.safe_write("obj", data=b"NEW!" * 4096)
        assert content_fs.read("obj") == b"NEW!" * 4096
