"""``HeapTable.read_rows`` against one ``get`` per key, on twin tables.

The one-pass read of many rows must charge the buffer pool exactly what
the per-key reads charge, in the same order: the same hits, misses,
evictions and dirty write-backs, the same clock hand and reference
bits, the same index growth, the same device time.  Three databases
are built by the same steps; one reads through ``read_rows``, one
through ``get`` and one through the retired per-page ``get``
(``dboracle.oracle_get``, since ``get`` is now ``read_rows``' one-key
case), and every book is compared, down to the pickled bytes.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from dboracle import oracle_get
from repro.db.database import DbConfig, SimDatabase
from repro.db.heap import HeapTable
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import RowNotFoundError
from repro.units import MB

MISSING = "absent"


def build(frames: int, rows_per_page: int, fanout: int, nrows: int,
          steps: list[tuple[str, int]], regrow: int | None):
    """A database whose ``t`` table holds rows ``k0..k{nrows-1}`` after
    ``steps`` (updates dirty pages, deletes free slots).  ``regrow``
    lowers the index fanout afterwards, so the next read grows the
    index."""
    db = SimDatabase(BlockDevice(scaled_disk(16 * MB)),
                     config=DbConfig(buffer_pool_pages=frames))
    table = db.create_table("t", rows_per_page=rows_per_page,
                            index_fanout=fanout)
    for i in range(nrows):
        table.insert(f"k{i}", {"size": i})
    for op, i in steps:
        key = f"k{i % nrows}"
        if op == "update" and table.contains(key):
            table.update(key, {"size": -i})
        elif op == "delete" and table.contains(key):
            table.delete(key)
        elif op == "get" and table.contains(key):
            table.get(key)
    if regrow is not None:
        table.index_fanout = regrow
    return db, table


def books(db: SimDatabase) -> dict:
    pool = db.pool
    return {
        "frames": {page: (f.dirty, f.referenced)
                   for page, f in pool._frames.items()},
        "frame_order": list(pool._frames),
        "clock": list(pool._clock),
        "hand": pool._hand,
        "counts": (pool.hits, pool.misses, pool.evictions),
        "gam": bytes(db.gam._used_mask),
        "index": list(db._tables["t"]._index_pages),
        "clock_s": db.data_device.clock_s,
        "stats": db.data_device.stats,
    }


@st.composite
def cases(draw):
    nrows = draw(st.integers(1, 40))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["update", "delete", "get"]),
                  st.integers(0, 200)), max_size=30))
    shape = (draw(st.integers(2, 8)),            # pool frames
             draw(st.integers(1, 4)),            # rows per page
             draw(st.sampled_from([1, 2, 3, 512])),  # index fanout
             nrows, steps,
             draw(st.none() | st.integers(1, 3)))  # lowered fanout
    picks = draw(st.lists(st.integers(0, nrows - 1), max_size=60))
    missing_at = draw(st.none() | st.integers(0, len(picks)))
    return shape, picks, missing_at


@settings(max_examples=300, deadline=None)
@given(cases())
def test_read_rows_charges_what_one_get_per_key_charges(case):
    shape, picks, missing_at = case
    one, table_one = build(*shape)
    twins = [build(*shape) for _ in range(2)]
    assert {pickle.dumps(db) for db, _ in twins} == {pickle.dumps(one)}
    keys = [k for k in (f"k{i}" for i in picks) if table_one.contains(k)]
    if missing_at is not None:
        keys.insert(min(missing_at, len(keys)), MISSING)

    got, error = None, None
    try:
        got = table_one.read_rows(keys)
    except RowNotFoundError as exc:
        error = exc
    for (db, table), get in zip(twins, (HeapTable.get, oracle_get)):
        expected = []
        for key in keys:
            try:
                expected.append(get(table, key))
            except RowNotFoundError as exc:
                assert error is not None and str(error) == str(exc)
                break
        else:
            assert error is None
            assert got == expected
        assert books(db) == books(one)
        assert pickle.dumps(db) == pickle.dumps(one)


def test_rows_are_the_stored_rows_not_copies():
    _, table = build(4, 2, 512, 3, [], None)
    rows = table.read_rows(["k2", "k0"])
    assert rows == [{"size": 2}, {"size": 0}]
    assert rows[0] is table._rows["k2"]
    assert table.get("k2") is not table._rows["k2"]


def test_first_read_grows_the_index_before_any_charge():
    db, table = build(8, 1, 512, 9, [], 2)
    assert len(table._index_pages) == 1
    hits, misses = db.pool.hits, db.pool.misses
    table.read_rows(["k3", "k4"])
    assert len(table._index_pages) == 5
    assert db.pool.hits + db.pool.misses - hits - misses == 6

