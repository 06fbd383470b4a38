"""The paper's filesystem configuration: database metadata + NTFS files.

Section 4.1: object names and metadata live in SQL Server tables; each
object is one file in a single directory on an otherwise empty NTFS
volume; updates are safe writes (temp file, force, atomic replace).  The
database "isolates the client from the physical location of data".

Devices: the object volume is its own device; the metadata database gets
a small dedicated device pair (data + log), mirroring the testbed where
SQL had dedicated drives.  Elapsed time for throughput sums across all
of them — the workload is synchronous.
"""

from __future__ import annotations

from dataclasses import replace

from repro.alloc.extent import Extent
from repro.alloc.freelist import INDEX_KINDS
from repro.backends.base import ObjectMeta, StoreStats
from repro.backends.costmodel import CostModel
from repro.backends.registry import object_option, register_backend
from repro.backends.spec import StoreSpec
from repro.db.database import DbConfig, SimDatabase
from repro.disk.device import BlockDevice, IoRequest
from repro.disk.geometry import scaled_disk
from repro.errors import ObjectNotFoundError
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.specgrammar import choice, to_bool
from repro.units import DEFAULT_WRITE_REQUEST, MB


class FileBackend:
    """One file per object + metadata rows in a database."""

    def __init__(self, device: BlockDevice, *,
                 fs_config: FsConfig | None = None,
                 metadata_db: SimDatabase | None = None,
                 cost_model: CostModel | None = None,
                 write_request: int = DEFAULT_WRITE_REQUEST,
                 size_hints: bool = False) -> None:
        self.name = "filesystem"
        self.fs = SimFilesystem(device, fs_config)
        self.device = device
        self.cost = cost_model or CostModel()
        self.write_request = write_request
        #: Use the paper's proposed create-with-size interface.
        self.size_hints = size_hints
        if metadata_db is None:
            meta_device = BlockDevice(scaled_disk(256 * MB))
            metadata_db = SimDatabase(meta_device, config=DbConfig())
        self.meta_db = metadata_db
        self.meta_table = self.meta_db.create_table("objects")
        self._versions: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Metadata helpers (one query per operation, like the test app)
    # ------------------------------------------------------------------
    def _file_name(self, key: str) -> str:
        return f"obj-{key}"

    def _meta_lookup(self, key: str) -> dict:
        self.cost.charge_db_query(self.device.stats)
        try:
            return self.meta_table.get(key)
        except KeyError:
            raise ObjectNotFoundError(f"no object {key!r}") from None

    # ------------------------------------------------------------------
    # ObjectStore interface
    # ------------------------------------------------------------------
    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
        fname = self._file_name(key)
        self.cost.charge_file_open(self.device.stats)
        self.fs.create(fname)
        if self.size_hints:
            self.fs.preallocate(fname, total)
        cursor = 0
        while cursor < total:
            chunk = min(self.write_request, total - cursor)
            if data is not None:
                self.fs.append(fname, data=data[cursor: cursor + chunk])
            else:
                self.fs.append(fname, nbytes=chunk)
            cursor += chunk
        self.cost.charge_file_stream(self.device.stats, total)
        self.fs.fsync(fname)
        self.cost.charge_file_close(self.device.stats)
        self.cost.charge_db_query(self.device.stats)
        self.meta_table.insert(key, {"path": fname, "size": total})
        self.meta_db.commit()
        self._versions[key] = 1

    def get(self, key: str, offset: int = 0,
            length: int | None = None) -> bytes | None:
        row = self._meta_lookup(key)
        fname = row["path"]
        self.cost.charge_file_open(self.device.stats)
        self.fs.read_record(fname)
        result = self.fs.read(fname, offset, length)
        nbytes = length if length is not None else row["size"] - offset
        self.cost.charge_file_stream(self.device.stats, nbytes)
        self.cost.charge_file_close(self.device.stats)
        return result

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
        row = self._meta_lookup(key)
        fname = row["path"]
        self.cost.charge_file_open(self.device.stats)
        self.fs.safe_write(
            fname,
            size=size,
            data=data,
            write_request=self.write_request,
            size_hint=self.size_hints,
        )
        self.cost.charge_file_stream(self.device.stats, total)
        self.cost.charge_file_close(self.device.stats)
        self.cost.charge_db_query(self.device.stats)
        self.meta_table.update(key, {"size": total})
        self.meta_db.commit()
        self._versions[key] = self._versions.get(key, 0) + 1

    def delete(self, key: str) -> None:
        row = self._meta_lookup(key)
        self.fs.delete(row["path"])
        self.cost.charge_db_query(self.device.stats)
        self.meta_table.delete(key)
        self.meta_db.commit()
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
        requests: list[IoRequest] = []
        sizes: list[int] = []
        for key in keys:
            row = self._meta_lookup(key)
            fname = row["path"]
            self.cost.charge_file_open(self.device.stats)
            self.fs.read_record(fname)
            requests.append(IoRequest(False, self.fs.extent_map(fname)))
            self.cost.charge_file_stream(self.device.stats, row["size"])
            self.cost.charge_file_close(self.device.stats)
            sizes.append(row["size"])
        results = self.device.submit_policy(requests)
        return [r if r is None else r[:size]
                for r, size in zip(results, sizes)]

    def object_extents(self, key: str) -> list[Extent]:
        row = self.meta_table.get(key)
        return self.fs.extent_map(row["path"])

    def devices(self) -> list[BlockDevice]:
        return [self.device, self.meta_db.data_device,
                self.meta_db.log_device]

    def free_bytes(self) -> int:
        return self.fs.free_bytes

    def store_stats(self) -> StoreStats:
        live = sum(self.meta_table.get(k)["size"] for k in self.keys())
        return StoreStats(
            objects=len(self.meta_table),
            live_bytes=live,
            free_bytes=self.fs.free_bytes,
            capacity=self.fs.data_capacity,
        )


@register_backend(
    "filesystem",
    description="NTFS-like: file per object + metadata database",
    options={
        "index_kind": choice(*INDEX_KINDS),
        "size_hints": to_bool,
        "fs_config": object_option(FsConfig),
    },
)
def _filesystem_from_spec(spec: StoreSpec,
                          device: BlockDevice) -> FileBackend:
    fs_config = spec.option("fs_config")
    index_kind = spec.option("index_kind")
    if index_kind is not None:
        fs_config = replace(fs_config or FsConfig(),
                            index_kind=index_kind)
    return FileBackend(
        device,
        fs_config=fs_config,
        write_request=spec.write_request,
        size_hints=bool(spec.option("size_hints", False)),
    )
