"""The merged interleaved loaders held to the two retired loops.

Twin volumes run the same load: one through ``repro.core.interleaved``
(one round-robin loop, each substrate supplying only "open a stream"
and "append one request"), the other through ``interleaveoracle``'s
verbatim copies of the two loops it replaced.  They must agree with
``==`` on per-object fragment counts (in opening order), every
object's extent map, each device's clock and head, ``IoStats``, and the
pickled bytes of the whole volume.
"""

import pickle

import pytest

import interleaveoracle
from repro.core.interleaved import interleaved_db_load, interleaved_fs_load
from repro.db.database import SimDatabase
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.units import DEFAULT_WRITE_REQUEST, KB, MB

#: Below one write request, exactly one, and above it by a tail that is
#: not a page multiple.
SIZES = [24 * KB + 100, DEFAULT_WRITE_REQUEST,
         3 * DEFAULT_WRITE_REQUEST + 5000]
TOTAL_OBJECTS = 12


def _filesystem(delayed: bool) -> SimFilesystem:
    return SimFilesystem(BlockDevice(scaled_disk(64 * MB)),
                         FsConfig(delayed_allocation=delayed))


def _assert_same_device(new: BlockDevice, old: BlockDevice) -> None:
    assert new.clock_s == old.clock_s
    assert new._head == old._head
    assert new.stats == old.stats


@pytest.mark.parametrize("object_size", SIZES)
@pytest.mark.parametrize("nstreams", [1, 2, 5])
@pytest.mark.parametrize("delayed", [False, True],
                         ids=["immediate", "delayed"])
def test_filesystem_load_matches_the_retired_loop(delayed, nstreams,
                                                  object_size):
    new_fs, old_fs = _filesystem(delayed), _filesystem(delayed)
    load = dict(nstreams=nstreams, object_size=object_size,
                total_objects=TOTAL_OBJECTS)
    new = interleaved_fs_load(new_fs, **load)
    old = interleaveoracle.interleaved_fs_load(old_fs, **load)
    assert new == old
    assert list(new.report.counts.items()) == \
        list(old.report.counts.items())
    for name in old.report.counts:
        assert new_fs.table.lookup(name).size == object_size
        assert new_fs.extent_map(name) == old_fs.extent_map(name)
    _assert_same_device(new_fs.device, old_fs.device)
    assert pickle.dumps(new_fs) == pickle.dumps(old_fs)


@pytest.mark.parametrize("object_size", SIZES)
@pytest.mark.parametrize("nstreams", [1, 2, 5])
def test_database_load_matches_the_retired_loop(nstreams, object_size):
    new_db, old_db = (SimDatabase(BlockDevice(scaled_disk(64 * MB)))
                      for _ in range(2))
    load = dict(nstreams=nstreams, object_size=object_size,
                total_objects=TOTAL_OBJECTS)
    new = interleaved_db_load(new_db, **load)
    old = interleaveoracle.interleaved_db_load(old_db, **load)
    assert new == old
    assert list(new.report.counts.items()) == \
        list(old.report.counts.items())
    for key in old.report.counts:
        blob_id = int(key)
        assert new_db.blobs.blob_spans(blob_id) == \
            old_db.blobs.blob_spans(blob_id)
    _assert_same_device(new_db.data_device, old_db.data_device)
    _assert_same_device(new_db.log_device, old_db.log_device)
    assert pickle.dumps(new_db) == pickle.dumps(old_db)
