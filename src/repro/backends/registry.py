"""Backend registry: from a :class:`StoreSpec` to a live object store.

Each backend module registers a ``from_spec`` constructor with
:func:`register_backend`, declaring its name, a one-line description
(surfaced by ``python -m repro backends``) and the options it
accepts (name → converter).  The ``BACKENDS`` tuple, config validation
and store construction all derive from the registry, so adding a
backend is one file plus one decorator (see docs/architecture.md, "add
a backend in one file").

:func:`build_store` is the single construction path:

* ``spec.shards > 1`` builds a
  :class:`~repro.backends.sharded.ShardedStore` striping over per-shard
  sub-specs;
* otherwise the named backend's factory gets a fresh
  :class:`~repro.disk.device.BlockDevice` carrying the spec's
  :class:`~repro.disk.policy.DevicePolicy` (faulty when the spec's
  fault profile reaches it) plus the spec with its options validated
  and type-converted (:func:`resolve_spec`), the one check left to
  the registry: the spec checked everything else when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.backends.base import ObjectStore
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice
from repro.disk.faults import FaultyBlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError

# ----------------------------------------------------------------------
# Option converters: backends declare theirs from the shared vocabulary
# in :mod:`repro.specgrammar`, plus this one for programmatic specs.
# ----------------------------------------------------------------------
def object_option(kind: type) -> Callable[[Any], Any]:
    """An option holding a config object (programmatic specs only)."""
    def convert(value: Any) -> Any:
        if not isinstance(value, kind):
            raise ConfigError(
                f"expected a {kind.__name__}, got {type(value).__name__}"
            )
        return value
    return convert


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry."""

    name: str
    factory: Callable[[StoreSpec, BlockDevice], ObjectStore]
    description: str
    options: Mapping[str, Callable[[Any], Any]]


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(name: str, *, description: str = "",
                     options: Mapping[str, Callable[[Any], Any]]
                     | None = None):
    """Class/function decorator registering a ``from_spec`` factory.

    The factory is called as ``factory(spec, device)`` with the spec's
    options already converted; it returns an :class:`ObjectStore`.
    """
    def deco(factory):
        if name in _REGISTRY:
            raise ConfigError(f"backend {name!r} registered twice")
        _REGISTRY[name] = BackendInfo(
            name=name, factory=factory,
            description=description or (factory.__doc__ or "").strip(),
            options=dict(options or {}),
        )
        return factory
    return deco


def _ensure_loaded() -> None:
    """Import the backend modules so their decorators have run.

    Imports are lazy (inside this function) because the backend modules
    themselves import :func:`register_backend` from here.
    """
    import repro.backends.blob_backend    # noqa: F401
    import repro.backends.file_backend    # noqa: F401
    import repro.backends.gfs_backend     # noqa: F401
    import repro.backends.lfs_backend     # noqa: F401


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, in registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def backend_info(name: str) -> BackendInfo:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; choose from {tuple(_REGISTRY)}"
        ) from None


def backend_descriptions() -> dict[str, str]:
    _ensure_loaded()
    return {name: info.description for name, info in _REGISTRY.items()}


# ----------------------------------------------------------------------
# Spec resolution and construction
# ----------------------------------------------------------------------
def resolve_spec(spec: StoreSpec) -> StoreSpec:
    """Validate and type-convert every option against the backend's
    declaration.

    The spec itself was checked when it was built (every spec-level rule
    lives in :class:`StoreSpec`); the result is what run records
    serialize: fully resolved, so ablations are attributable from the
    JSON alone.
    """
    info = backend_info(spec.backend)
    converted = {}
    for name, value in spec.options:
        converter = info.options.get(name)
        if converter is None:
            raise ConfigError(
                f"backend {info.name!r} does not accept option "
                f"{name!r}; accepted: {tuple(info.options)}"
            )
        try:
            converted[name] = converter(value)
        except ConfigError as exc:
            raise ConfigError(
                f"bad value for {info.name} option {name}: {exc}"
            ) from None
    return replace(spec, options=tuple(sorted(converted.items())))


def build_store(spec: StoreSpec) -> ObjectStore:
    """Construct the store a spec describes (the only build path)."""
    spec = resolve_spec(spec)
    if spec.shards > 1:
        from repro.backends.sharded import ShardedStore

        return ShardedStore([build_store(sub) for sub in spec.shard_specs()],
                            spec)
    info = backend_info(spec.backend)
    faults = spec.faults.device_faults() if spec.faults else None
    if faults is not None:
        device: BlockDevice = FaultyBlockDevice(
            scaled_disk(spec.volume_bytes), store_data=spec.store_data,
            policy=spec.policy, faults=faults)
    else:
        device = BlockDevice(scaled_disk(spec.volume_bytes),
                             store_data=spec.store_data, policy=spec.policy)
    return info.factory(spec, device)
