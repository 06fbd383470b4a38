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
from typing import Any

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

    def _touch_index(self, key: Any, *, for_write: bool = False) -> None:
        """Charge the index descent: root plus the key's leaf page."""
        needed_leaves = max(1, -(-len(self._rows) // self.index_fanout))
        while len(self._index_pages) < needed_leaves:
            self._index_pages.append(self.gam.alloc_page())
        # The first index page stands in for the root.
        self.pool.access(self._index_pages[0], for_write=for_write)
        if len(self._index_pages) > 1:
            leaf = self._index_pages[zlib.crc32(str(key).encode("utf-8"))
                                     % len(self._index_pages)]
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

    def get(self, key: Any) -> dict[str, Any]:
        row = self._rows.get(key)
        if row is None:
            raise RowNotFoundError(f"no row {key!r} in {self.name}")
        self._touch_index(key)
        self.pool.access(self._row_page[key])
        return dict(row)

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

    def scan(self) -> list[tuple[Any, dict[str, Any]]]:
        """Full scan; touches every heap page once."""
        for page_no in sorted(self._page_slots):
            self.pool.access(page_no)
        return [(k, dict(v)) for k, v in self._rows.items()]

    def __len__(self) -> int:
        return len(self._rows)
