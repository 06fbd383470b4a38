"""Result containers for aging experiments, with (de)serialization.

A run produces one :class:`RunResult`: the configuration echo, the
bulk-load phase, and one :class:`AgeSample` per sampled storage age.
Everything round-trips through plain dicts so a run can be saved as JSON
(``repro run --json``) and its tables regenerated from the saved file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class AgeSample:
    """Measurements taken at one storage age."""

    age: float
    fragments_per_object: float
    fragments_median: float
    fragments_max: int
    read_mbps: float
    #: Average write throughput over the churn interval that *ended* at
    #: this age (the paper: "the storage age two write performance is
    #: the average write throughput between the bulk load and the
    #: storage age two read measurements").  For age 0 this is the
    #: bulk-load write throughput.
    write_mbps: float
    occupancy: float
    overwrites: int
    seeks_per_read: float = 0.0
    #: Read throughput over the *overlapped* wall-time model (shard
    #: device lanes run concurrently; see repro.disk.schedule).  Equals
    #: ``read_mbps`` — the summed serial model — for single-volume
    #: stores and sharded stores without ``overlap=true``, so records
    #: always report both time models side by side.
    read_wall_mbps: float = 0.0
    #: Summed device+CPU seconds and overlapped wall seconds of the
    #: read sweep behind ``read_mbps``/``read_wall_mbps``.
    read_device_s: float = 0.0
    read_wall_s: float = 0.0
    #: Fault-tolerance counters, cumulative as of this sample (see
    #: :class:`~repro.backends.base.StoreStats`); all zero for healthy
    #: or unsharded runs.
    degraded_reads: int = 0
    retries: int = 0
    failovers: int = 0
    rebuilt_objects: int = 0
    #: Shards permanently lost as of this sample.
    dead_shards: int = 0
    #: Per-request sojourn latency of the read sweep (event-queue
    #: stores only; all zero when the store runs no event scheduler).
    #: Percentile estimates carry the histogram's documented <= 5%
    #: relative error; ``read_lat_max_s`` is exact.
    read_lat_count: int = 0
    read_lat_p50_s: float = 0.0
    read_lat_p95_s: float = 0.0
    read_lat_p99_s: float = 0.0
    read_lat_max_s: float = 0.0
    #: Scenario runs only: global sojourn summary of the scenario op
    #: interval that ended at this sample (a
    #: :meth:`~repro.disk.events.LatencyHistogram.summary` dict), and
    #: the same split per tenant.  When every op in the interval was
    #: tenant-tagged the per-tenant counts sum to the global count —
    #: the reconciliation invariant the scenario suite pins.  Empty
    #: for non-scenario runs and for the age-0 sample (no interval).
    scenario_lat: dict[str, float] = field(default_factory=dict)
    tenant_lat: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class RunResult:
    """One full aging run of one backend."""

    backend: str
    label: str
    config: dict
    samples: list[AgeSample] = field(default_factory=list)
    bulk_load_write_mbps: float = 0.0
    objects_loaded: int = 0
    live_bytes: int = 0

    # ------------------------------------------------------------------
    def sample_at(self, age: float, *, tol: float = 0.26) -> AgeSample:
        """The sample closest to ``age`` (must be within ``tol``)."""
        best = min(self.samples, key=lambda s: abs(s.age - age))
        if abs(best.age - age) > tol:
            raise KeyError(f"no sample near age {age} in {self.label}")
        return best

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "label": self.label,
            "config": self.config,
            "bulk_load_write_mbps": self.bulk_load_write_mbps,
            "objects_loaded": self.objects_loaded,
            "live_bytes": self.live_bytes,
            "samples": [asdict(s) for s in self.samples],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunResult":
        samples = [AgeSample(**s) for s in raw.get("samples", [])]
        return cls(
            backend=raw["backend"],
            label=raw["label"],
            config=raw.get("config", {}),
            samples=samples,
            bulk_load_write_mbps=raw.get("bulk_load_write_mbps", 0.0),
            objects_loaded=raw.get("objects_loaded", 0),
            live_bytes=raw.get("live_bytes", 0),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        return cls.from_dict(json.loads(Path(path).read_text()))
