"""The paper's database configuration: everything in SQL Server.

Section 4.2: BLOBs and metadata share a filegroup, BLOB data out of row,
bulk-logged mode, analogous schema to the filesystem configuration.  One
data device (the page file) plus one dedicated log device.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.backends.base import ObjectMeta, StoreStats
from repro.backends.costmodel import CostModel
from repro.backends.registry import object_option, register_backend
from repro.backends.spec import StoreSpec
from repro.db.database import DbConfig, SimDatabase
from repro.disk.device import BlockDevice
from repro.errors import ConfigError, ObjectNotFoundError
from repro.units import Span, checked_read_range, checked_write_size


class BlobBackend:
    """Out-of-row BLOBs + metadata rows in one simulated database."""

    def __init__(self, device: BlockDevice, *,
                 db_config: DbConfig | None = None,
                 log_device: BlockDevice | None = None,
                 cost_model: CostModel | None = None) -> None:
        self.name = "database"
        self.device = device
        self.db = SimDatabase(device, log_device, db_config)
        self.cost = cost_model or CostModel()
        self.meta_table = self.db.create_table("objects")
        self._versions: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _meta_lookup(self, key: str) -> dict:
        if not self.meta_table.contains(key):
            raise ObjectNotFoundError(f"no object {key!r}")
        self.cost.charge_db_query(self.device.stats)
        return self.meta_table.get(key)

    # ------------------------------------------------------------------
    # ObjectStore interface
    # ------------------------------------------------------------------
    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        total = checked_write_size(size, data)
        if self.meta_table.contains(key):
            raise ConfigError(f"object {key!r} exists")
        self.cost.charge_db_query(self.device.stats)
        self.cost.charge_db_stream(self.device.stats, total)
        blob_id = self.db.put_blob(size=size, data=data, commit=False)
        self.meta_table.insert(key, {"blob_id": blob_id, "size": total})
        self.db.commit()
        self._versions[key] = 1

    def get(self, key: str, offset: int = 0,
            length: int | None = None) -> bytes | None:
        row = self._meta_lookup(key)
        nbytes = checked_read_range(offset, length, row["size"])
        result = self.db.get_blob(row["blob_id"], offset, length)
        self.cost.charge_db_stream(self.device.stats, nbytes)
        return result

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        total = checked_write_size(size, data)
        row = self._meta_lookup(key)
        self.cost.charge_db_stream(self.device.stats, total)
        new_id = self.db.replace_blob(row["blob_id"], size=size, data=data,
                                      commit=False)
        self.meta_table.update(key, {"blob_id": new_id, "size": total})
        self.db.commit()
        self._versions[key] = self._versions.get(key, 0) + 1

    def delete(self, key: str) -> None:
        row = self._meta_lookup(key)
        self.db.delete_blob(row["blob_id"], commit=False)
        self.meta_table.delete(key)
        self.db.commit()
        self._versions.pop(key, None)

    def exists(self, key: str) -> bool:
        return self.meta_table.contains(key)

    def meta(self, key: str) -> ObjectMeta:
        row = self._meta_lookup(key)
        return ObjectMeta(key=key, size=row["size"],
                          version=self._versions.get(key, 1))

    def keys(self) -> list[str]:
        return self.meta_table.keys()

    def read_many(self, keys: list[str]) -> list[bytes | None]:
        requests: list[list[Span]] = []
        sizes: list[int] = []
        for key in keys:
            row = self._meta_lookup(key)
            self.cost.charge_db_stream(self.device.stats, row["size"])
            requests.append(self.db.blobs.blob_spans(row["blob_id"]))
            sizes.append(row["size"])
        results = self.device.submit_policy(requests)
        return [r if r is None else r[:size]
                for r, size in zip(results, sizes)]

    def object_extents(self, key: str) -> list[Span]:
        return next(self.layouts((key,)))

    def layouts(self, keys: Sequence[str]) -> Iterator[list[Span]]:
        blob_spans = self.db.blobs.blob_spans
        for row in self.meta_table.read_rows(keys):
            yield blob_spans(row["blob_id"])

    def devices(self) -> list[BlockDevice]:
        return [self.device, self.db.log_device]

    def free_bytes(self) -> int:
        return self.db.free_bytes

    def store_stats(self) -> StoreStats:
        live = sum(row["size"]
                   for row in self.meta_table.read_rows(self.keys()))
        return StoreStats(
            objects=len(self.meta_table),
            live_bytes=live,
            free_bytes=self.free_bytes(),
            capacity=self.db.capacity,
        )


@register_backend(
    "database",
    description="SQL-Server-like: out-of-row BLOBs, bulk logged",
    options={"db_config": object_option(DbConfig)},
)
def _database_from_spec(spec: StoreSpec,
                        device: BlockDevice) -> BlobBackend:
    db_config = spec.option("db_config") or DbConfig(
        write_request=spec.write_request)
    if db_config.write_request != spec.write_request:
        raise ConfigError(f"db_config.write_request={db_config.write_request}"
                          f" differs from the spec's {spec.write_request}")
    return BlobBackend(device, db_config=db_config)
