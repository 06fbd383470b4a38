"""Heap metadata table with a hash index.

Both of the paper's configurations keep object *metadata* (names, paths
or blob pointers, sizes) in database tables; only the object bytes move
between filesystem and BLOB storage.  :class:`HeapTable` models that
metadata path: rows live ``rows_per_page`` to a page, lookups touch one
index page and one heap page through the buffer pool (hot, so they hit
memory — the database's small-object advantage in the folklore), and
page allocations come from the GAM's mixed pages.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

from repro.db.bufferpool import BufferPool
from repro.db.gam import GamAllocator
from repro.errors import ConfigError, RowNotFoundError


class HeapTable:
    """Key → payload rows with page-level cost accounting."""

    def __init__(self, name: str, gam: GamAllocator, pool: BufferPool, *,
                 rows_per_page: int = 64,
                 index_fanout: int = 512) -> None:
        if rows_per_page < 1:
            raise ConfigError("rows_per_page must be >= 1")
        if index_fanout < 1:
            raise ConfigError("index_fanout must be >= 1")
        self.name = name
        self.gam = gam
        self.pool = pool
        self.rows_per_page = rows_per_page
        self.index_fanout = index_fanout
        self._rows: dict[Any, dict[str, Any]] = {}
        self._row_page: dict[Any, int] = {}
        self._page_slots: dict[int, int] = {}  # page -> used slot count
        self._open_page: int | None = None
        self._index_pages: list[int] = []

    # ------------------------------------------------------------------
    # Internal page management
    # ------------------------------------------------------------------
    def _page_for_insert(self) -> int:
        if (self._open_page is not None
                and self._page_slots[self._open_page] < self.rows_per_page):
            return self._open_page
        page_no = self.gam.alloc_page()
        self._page_slots[page_no] = 0
        self._open_page = page_no
        return page_no

    def _index(self) -> list[int]:
        """The index pages, grown to cover the rows; the first stands
        in for the root, and a key's leaf is picked by crc32."""
        pages = self._index_pages
        while not pages or len(self._rows) > len(pages) * self.index_fanout:
            pages.append(self.gam.alloc_page())
        return pages

    def _touch_index(self, key: Any, *, for_write: bool = False) -> None:
        """Charge the index descent: root plus the key's leaf page."""
        index = self._index()
        self.pool.access(index[0], for_write=for_write)
        if len(index) > 1:
            leaf = index[zlib.crc32(str(key).encode("utf-8")) % len(index)]
            self.pool.access(leaf, for_write=for_write)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def insert(self, key: Any, payload: dict[str, Any]) -> None:
        if key in self._rows:
            raise ConfigError(f"duplicate key {key!r} in {self.name}")
        page_no = self._page_for_insert()
        self._rows[key] = dict(payload)
        self._row_page[key] = page_no
        self._page_slots[page_no] += 1
        self._touch_index(key, for_write=True)
        self.pool.access(page_no, for_write=True)

    def read_rows(self, keys: Iterable[Any]) -> list[dict[str, Any]]:
        """The stored rows of ``keys``, in order: read-only, not copied.

        Charges the pool exactly what one :meth:`get` per key charges,
        in the same order: the index grows at the first present key,
        then each key touches the root, its leaf (when there is more
        than one index page) and its row page.  A missing key raises
        :class:`RowNotFoundError` once the keys before it are charged.
        """
        rows, row_page, crc32 = self._rows, self._row_page, zlib.crc32
        found: list[dict[str, Any]] = []
        pages: list[int] = []
        try:
            for key in keys:
                row = rows.get(key)
                if row is None:
                    raise RowNotFoundError(f"no row {key!r} in {self.name}")
                if not found:
                    index = self._index()
                    root, leaves = index[0], len(index)
                found.append(row)
                if leaves > 1:
                    pages += (root,
                              index[crc32(str(key).encode("utf-8")) % leaves],
                              row_page[key])
                else:
                    pages += (root, row_page[key])
        finally:
            self.pool.read_each(pages)
        return found

    def get(self, key: Any) -> dict[str, Any]:
        return dict(self.read_rows((key,))[0])

    def update(self, key: Any, payload: dict[str, Any]) -> None:
        if key not in self._rows:
            raise RowNotFoundError(f"no row {key!r} in {self.name}")
        self._rows[key].update(payload)
        self._touch_index(key)
        self.pool.access(self._row_page[key], for_write=True)

    def delete(self, key: Any) -> None:
        if key not in self._rows:
            raise RowNotFoundError(f"no row {key!r} in {self.name}")
        page_no = self._row_page.pop(key)
        del self._rows[key]
        self._page_slots[page_no] -= 1
        self._touch_index(key, for_write=True)
        self.pool.access(page_no, for_write=True)

    def contains(self, key: Any) -> bool:
        return key in self._rows

    def keys(self) -> list[Any]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)
