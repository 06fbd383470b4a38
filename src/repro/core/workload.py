"""Synthetic get/put workloads (Section 4.3).

The paper's workload is deliberately simple: bulk load to a target
occupancy, then a stream of safe-write updates to uniformly random
objects with interleaved reads — no correlation between objects, all
objects equally likely.  Sizes are either constant or drawn from a
uniform distribution with the same mean (Section 5.4 found no
difference).  The generators here implement exactly that, deterministic
under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Protocol

from repro.backends.base import ObjectStore
from repro.core.fragmentation import make_marker_content
from repro.core.storage_age import StorageAgeTracker
from repro.errors import ConfigError
from repro.struct import KeyList
from repro.units import DEFAULT_WRITE_REQUEST, KB, MB, fmt_size


# ----------------------------------------------------------------------
# Size distributions
# ----------------------------------------------------------------------
class SizeDistribution(Protocol):
    """Draws object sizes; must expose its mean for planning."""

    mean: float

    def draw(self, rng: Random) -> int: ...


@dataclass(frozen=True)
class ConstantSize:
    """Every object is exactly ``size`` bytes (the paper's default)."""

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError("size must be positive")

    @property
    def mean(self) -> float:
        return float(self.size)

    def draw(self, rng: Random) -> int:
        return self.size

    def __str__(self) -> str:
        return f"constant({fmt_size(self.size)})"


@dataclass(frozen=True)
class UniformSize:
    """Uniform sizes on ``[lo, hi]``, rounded to the *nearest* 1 KB.

    Section 5.4 compares constant 10 MB objects against "object sizes
    chosen uniformly at random with the same average size";
    :meth:`around_mean` builds that distribution.  Rounding must be to
    the nearest KB: flooring every draw would bias the realized mean
    ~0.5 KB below :attr:`mean`, breaking the "same average size"
    contract the comparison depends on.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo <= 0 or self.hi < self.lo:
            raise ConfigError("need 0 < lo <= hi")

    @classmethod
    def around_mean(cls, mean: int, *, spread: float = 0.8) -> "UniformSize":
        """Uniform with the given mean, ranging mean*(1 ± spread)."""
        if not 0.0 < spread < 1.0:
            raise ConfigError("spread must be in (0, 1)")
        return cls(round(mean * (1 - spread)), round(mean * (1 + spread)))

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def draw(self, rng: Random) -> int:
        raw = rng.randint(self.lo, self.hi)
        return max(1 * KB, (raw + KB // 2) // KB * KB)

    def __str__(self) -> str:
        return f"uniform({fmt_size(self.lo)}..{fmt_size(self.hi)})"


# ----------------------------------------------------------------------
# Workload specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that defines one of the paper's runs."""

    sizes: SizeDistribution
    target_occupancy: float = 0.5
    write_request: int = DEFAULT_WRITE_REQUEST
    #: Generate marker-tagged content (needs a store_data device).
    with_content: bool = False
    marker_interval: int = 1 * KB

    def __post_init__(self) -> None:
        if not 0.0 < self.target_occupancy < 1.0:
            raise ConfigError("target_occupancy must be in (0, 1)")


@dataclass
class WorkloadState:
    """Mutable driver state threaded through the phases."""

    spec: WorkloadSpec
    rng: Random
    tracker: StorageAgeTracker = field(default_factory=StorageAgeTracker)
    keys: list[str] | KeyList[str] = field(default_factory=list)
    next_object_id: int = 1
    versions: dict[str, int] = field(default_factory=dict)
    #: Logical bytes written by churn (new object versions).
    bytes_overwritten: int = 0

    def object_id_of(self, key: str) -> int:
        """Numeric object id from the key's trailing ``-<int>`` suffix.

        Accepts any prefixed scheme (``object-7``, ``tenant-3-object-7``)
        so multi-tenant key spaces share the marker machinery.
        """
        _prefix, sep, tail = key.rpartition("-")
        if not sep or not tail.isascii() or not tail.isdigit():
            raise ConfigError(
                f"malformed object key {key!r}: expected a trailing "
                "integer suffix such as 'object-7' or 'tenant-3-object-7'"
            )
        return int(tail)


def _content_for(state: WorkloadState, key: str, size: int) -> bytes | None:
    if not state.spec.with_content:
        return None
    version = state.versions.get(key, 0) + 1
    state.versions[key] = version
    return make_marker_content(
        state.object_id_of(key), size, version=version,
        interval=state.spec.marker_interval,
    )


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def bulk_load(store: ObjectStore, spec: WorkloadSpec,
              rng: Random) -> WorkloadState:
    """Fill a clean store to the target occupancy (storage age 0).

    Objects are inserted one after another, exactly like the paper's
    bulk load: the store can append each new object to the end of
    allocated storage, so layout starts contiguous.
    """
    state = WorkloadState(spec=spec, rng=rng)
    stats = store.store_stats()
    # target_occupancy is a fraction of *raw* capacity; a replicated
    # store spends ``replicas`` physical bytes per logical byte, so the
    # logical load target shrinks accordingly.
    replicas = max(1, int(getattr(store, "replicas", 1)))
    target_bytes = int(stats.capacity * spec.target_occupancy) // replicas
    loaded = 0
    while True:
        size = spec.sizes.draw(rng)
        if loaded + size > target_bytes:
            break
        # Metadata overhead (index pages, LOB-tree nodes, MFT spill)
        # also consumes space; keep a safety margin so the last object
        # does not wedge the store.
        if store.free_bytes() < size + size // 8 + (1 << 20):
            break
        key = f"object-{state.next_object_id}"
        state.next_object_id += 1
        data = _content_for(state, key, size)
        if data is not None:
            store.put(key, data=data)
        else:
            store.put(key, size=size)
        state.tracker.on_put(size)
        state.keys.append(key)
        loaded += size
    if not state.keys:
        raise ConfigError(
            "volume too small for even one object at this occupancy"
        )
    return state


def churn_step(store: ObjectStore, state: WorkloadState) -> str:
    """One safe-write update of a uniformly random object."""
    key = state.rng.choice(state.keys)
    old_size = store.meta(key).size
    new_size = state.spec.sizes.draw(state.rng)
    data = _content_for(state, key, new_size)
    if data is not None:
        store.overwrite(key, data=data)
    else:
        store.overwrite(key, size=new_size)
    state.tracker.on_overwrite(old_size, new_size)
    state.bytes_overwritten += new_size
    return key


def churn_to_age(store: ObjectStore, state: WorkloadState,
                 target_age: float, *,
                 on_step=None) -> int:
    """Safe-write random objects until storage age reaches the target.

    Returns the number of overwrites performed.  ``on_step`` (if given)
    is called with the operation index after each overwrite — used by
    long benches for progress and by tests for fault injection.
    """
    steps = 0
    while state.tracker.storage_age < target_age:
        churn_step(store, state)
        steps += 1
        if on_step is not None:
            on_step(steps)
    return steps


def read_sweep(store: ObjectStore, state: WorkloadState,
               nreads: int, rng: Random | None = None) -> int:
    """Read ``nreads`` uniformly random whole objects; returns bytes read.

    The paper's read requests "are randomized and incur at least one
    seek" — this is the measurement loop behind Figure 1.  Pass a
    dedicated ``rng`` so measurement sweeps do not perturb the churn
    sequence.
    """
    if nreads <= 0:
        raise ConfigError("nreads must be positive")
    rng = rng or state.rng
    total = 0
    for _ in range(nreads):
        key = rng.choice(state.keys)
        size = store.meta(key).size
        store.get(key)
        total += size
    return total


def delete_all(store: ObjectStore, state: WorkloadState) -> None:
    """Delete every object (teardown / pathological-aging setup)."""
    for key in list(state.keys):
        size = store.meta(key).size
        store.delete(key)
        state.tracker.on_delete(size)
    state.keys.clear()
    # A key re-put after delete-all must restart its marker versions at
    # 1; a carried-over counter would make a fresh object look like a
    # stale resurrected one to content verification.
    state.versions.clear()
    if state.tracker.live_bytes != 0:
        raise RuntimeError(
            "delete_all books out of balance: "
            f"{state.tracker.live_bytes} live bytes still tracked after "
            "deleting every key"
        )
