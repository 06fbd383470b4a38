"""Directory checkpoints with atomic publish and torn-state detection.

A checkpoint is a directory ``ckpt-NNNNNN`` holding named payload files
plus a ``MANIFEST.json`` written last: schema version, caller metadata,
and the SHA-256 + size of every payload file.  Writing goes to a
``.tmp`` sibling and the final ``os.replace`` of the directory is the
commit point — a crash anywhere earlier leaves only a ``.tmp`` husk
that loaders ignore and the next save sweeps away.  LFS keeps two
checkpoint regions and mounts the newer valid one; we do the same by
retaining ``keep`` published checkpoints, so a crash *during* a save
can always fall back to the previous one.

Delta chains
------------
With ``full_interval > 1`` a save may store payload files as binary
deltas (:mod:`repro.persist.delta`) against the previous published
checkpoint instead of full copies.  The manifest then carries a
top-level ``parent_seq`` link and each delta entry records both the
stored blob's digest and the reconstructed content's
(``content_sha256``/``content_bytes``), so every link of the chain is
verified on load.  The rules:

- A file is delta-encoded only when the parent has a file of the same
  name, the delta is strictly smaller than the full copy, and the
  parent was written under the same ``meta["schema"]`` — a schema change
  always cuts the chain.
- Every ``full_interval``-th checkpoint is forced full (chain length is
  at most ``full_interval - 1`` deltas), bounding replay depth.
- :meth:`CheckpointManager.load` replays the whole parent chain; any
  torn or missing link raises :class:`~repro.errors.SnapshotError`, so
  :meth:`load_latest` falls back to the newest checkpoint that does not
  depend on the damage — ultimately the last full snapshot.
- Retention is chain-aware: pruning keeps the ``keep`` newest heads
  *plus* every ancestor a retained head still needs.

:meth:`CheckpointManager.load_latest` walks published checkpoints
newest-first and returns the first that fully verifies (manifest parses,
seq matches the directory name, every file present with matching size
and digest, parent chain intact); anything torn is skipped, never
mounted.  ``fault_hook`` injects crashes at each write boundary for the
kill-point matrix in ``tests/test_crash_matrix.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ConfigError, SnapshotError
from repro.persist.delta import apply_delta, encode_delta

#: Manifest schema; bumped on incompatible layout changes, and a
#: manifest of any other version does not load.  ``2``: manifests carry
#: ``parent_seq`` and per-file ``encoding`` (``full`` / ``delta``) with
#: delta entries carrying ``content_sha256`` / ``content_bytes``.
CHECKPOINT_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"
_PREFIX = "ckpt-"
_TMP_SUFFIX = ".tmp"


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _dir_seq(path: Path) -> int | None:
    """The sequence number a ``ckpt-NNNNNN`` directory name encodes."""
    name = path.name
    if not name.startswith(_PREFIX) or name.endswith(_TMP_SUFFIX):
        return None
    try:
        return int(name[len(_PREFIX):])
    except ValueError:
        return None


@dataclass
class Checkpoint:
    """One published, verified checkpoint directory."""

    seq: int
    path: Path
    meta: dict
    files: dict[str, dict] = field(repr=False)
    #: Chain link: the seq of the checkpoint delta entries decode
    #: against (``None`` for a self-contained checkpoint) and the loaded
    #: parent itself.
    parent_seq: int | None = None
    parent: "Checkpoint | None" = field(default=None, repr=False)
    #: Blobs already verified this session; avoids re-reading and
    #: re-hashing state.pkl (the largest file) on every consumer read.
    _cache: dict[str, bytes] = field(default_factory=dict, repr=False)

    def names(self) -> list[str]:
        return list(self.files)

    def read(self, name: str) -> bytes:
        """Read one payload file's *content*, verifying digests once.

        For delta entries this reads and verifies the stored delta blob,
        reconstructs the content against the parent chain, and verifies
        the content digest too.
        """
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        info = self.files.get(name)
        if info is None:
            raise SnapshotError(
                f"checkpoint {self.path.name} has no file {name!r}"
            )
        try:
            blob = (self.path / name).read_bytes()
        except OSError as exc:
            raise SnapshotError(
                f"checkpoint file {self.path.name}/{name} unreadable: {exc}"
            ) from None
        if len(blob) != info["bytes"] or _digest(blob) != info["sha256"]:
            raise SnapshotError(
                f"checkpoint file {self.path.name}/{name} failed its digest"
            )
        if info["encoding"] == "delta":
            if self.parent is None:
                raise SnapshotError(
                    f"checkpoint file {self.path.name}/{name} is a delta "
                    "but the checkpoint has no parent"
                )
            blob = apply_delta(self.parent.read(name), blob)
            if len(blob) != info["content_bytes"] or \
                    _digest(blob) != info["content_sha256"]:
                raise SnapshotError(
                    f"checkpoint file {self.path.name}/{name} failed its "
                    "content digest after delta replay"
                )
        self._cache[name] = blob
        return blob


class CheckpointManager:
    """Write and load checkpoints under one directory.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first use.
    keep:
        Published checkpoint *heads* to retain (>= 1).  Older ones are
        pruned only after a newer one has been successfully published,
        and never while a retained head's delta chain still needs them.
    full_interval:
        Full-snapshot cadence: every ``full_interval``-th checkpoint is
        stored self-contained, the ones between as deltas against their
        predecessor.  ``1`` (the default) disables deltas entirely;
        ``full_interval > 1`` requires ``keep >= 2`` so a torn chain
        head can always fall back.
    fault_hook:
        Optional fault-injection callable, invoked with a label at every
        write boundary (``"write:<name>"`` before each payload file,
        ``"manifest"`` after the manifest is staged, ``"published"``
        after the atomic rename); raising simulates a crash there.
    """

    def __init__(self, directory: str | Path, *, keep: int = 2,
                 full_interval: int = 1,
                 fault_hook: Callable[[str], None] | None = None) -> None:
        if keep < 1:
            raise ConfigError("keep must be >= 1")
        if full_interval < 1:
            raise ConfigError("full_interval must be >= 1")
        if full_interval > 1 and keep < 2:
            raise ConfigError(
                "keep must be >= 2 when full_interval > 1 (a torn delta "
                "chain needs an older checkpoint to fall back to)"
            )
        self.directory = Path(directory)
        self.keep = keep
        self.full_interval = full_interval
        self.fault_hook = fault_hook
        self._last: Checkpoint | None = None

    # ------------------------------------------------------------------
    def _fault(self, label: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(label)

    def _published(self) -> list[tuple[int, Path]]:
        if not self.directory.is_dir():
            return []
        out = []
        for path in self.directory.iterdir():
            seq = _dir_seq(path)
            if seq is not None:
                out.append((seq, path))
        return sorted(out)

    # ------------------------------------------------------------------
    def _delta_parent(self, published: list[tuple[int, Path]],
                      meta: dict[str, Any]) -> Checkpoint | None:
        """The checkpoint the next save may delta against, or ``None``.

        ``None`` means the save must be full: deltas are disabled, there
        is no loadable predecessor, the chain already holds
        ``full_interval - 1`` deltas, or the predecessor was written
        under a different schema.
        """
        if self.full_interval <= 1 or not published:
            return None
        newest_seq = published[-1][0]
        if self._last is not None and self._last.seq == newest_seq:
            parent = self._last
        else:
            parent = self.load_latest()
        if parent is None or parent.seq != newest_seq:
            # The newest published checkpoint is torn: a delta against
            # an older one would fork the chain, so cut it here.
            return None
        if parent.meta.get("schema") != meta.get("schema"):
            return None
        chain = 0
        node: Checkpoint | None = parent
        while node is not None and node.parent_seq is not None:
            chain += 1
            node = node.parent
        if chain + 1 >= self.full_interval:
            return None
        return parent

    def save(self, files: Mapping[str, bytes],
             meta: dict[str, Any] | None = None) -> Checkpoint:
        """Write a new checkpoint; returns it once durably published."""
        for name in files:
            if name == MANIFEST_NAME or "/" in name or name.startswith("."):
                raise ConfigError(f"bad checkpoint file name {name!r}")
        self.directory.mkdir(parents=True, exist_ok=True)
        published = self._published()
        seq = published[-1][0] + 1 if published else 1
        meta = dict(meta or {})
        parent = self._delta_parent(published, meta)
        final = self.directory / f"{_PREFIX}{seq:06d}"
        staging = self.directory / f"{_PREFIX}{seq:06d}{_TMP_SUFFIX}"
        if staging.exists():
            shutil.rmtree(staging)  # husk of a crashed save
        staging.mkdir()
        manifest_files = {}
        used_delta = False
        for name, blob in files.items():
            self._fault(f"write:{name}")
            stored = blob
            content_sha256 = _digest(blob)
            entry: dict[str, Any] = {"sha256": content_sha256,
                                     "bytes": len(blob),
                                     "encoding": "full"}
            if parent is not None and name in parent.files:
                delta = encode_delta(parent.read(name), blob)
                if len(delta) < len(blob):
                    stored = delta
                    entry = {"sha256": _digest(delta),
                             "bytes": len(delta),
                             "encoding": "delta",
                             "content_sha256": content_sha256,
                             "content_bytes": len(blob)}
                    used_delta = True
            (staging / name).write_bytes(stored)
            manifest_files[name] = entry
        manifest = {
            "version": CHECKPOINT_VERSION,
            "seq": seq,
            "parent_seq": parent.seq if used_delta else None,
            "meta": meta,
            "files": manifest_files,
        }
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        self._fault("manifest")
        os.replace(staging, final)  # the commit point
        self._fault("published")
        self._prune()
        ckpt = Checkpoint(seq=seq, path=final, meta=manifest["meta"],
                          files=manifest_files,
                          parent_seq=manifest["parent_seq"],
                          parent=parent if used_delta else None,
                          _cache={name: bytes(blob)
                                  for name, blob in files.items()})
        self._last = ckpt
        return ckpt

    def _manifest_parent_seq(self, path: Path) -> int | None:
        """A checkpoint's ``parent_seq``, or None if unreadable/absent."""
        try:
            manifest = json.loads((path / MANIFEST_NAME).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        parent_seq = manifest.get("parent_seq")
        return parent_seq if isinstance(parent_seq, int) else None

    def _prune(self) -> None:
        published = self._published()
        if len(published) <= self.keep:
            return
        by_seq = dict(published)
        needed: set[int] = set()
        for seq, _ in published[-self.keep:]:
            node = seq
            while node in by_seq:
                parent_seq = self._manifest_parent_seq(by_seq[node])
                if parent_seq is None or parent_seq >= node or \
                        parent_seq in needed:
                    break
                needed.add(parent_seq)
                node = parent_seq
        for seq, path in published[: len(published) - self.keep]:
            if seq in needed:
                continue
            shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------------
    def load(self, path: Path) -> Checkpoint:
        """Verify and open one checkpoint directory (raises if torn).

        Verifies the whole parent chain: a delta checkpoint whose
        ancestors are torn or missing fails to load, so the fallback
        walk in :meth:`load_latest` lands on a checkpoint whose chain is
        intact.
        """
        manifest_path = path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"checkpoint {path.name} has no readable manifest: {exc}"
            ) from None
        # Structural validation: a manifest that parses as JSON can
        # still be arbitrarily misshapen after a torn write; everything
        # load touches must be checked before it is used, so corruption
        # surfaces as SnapshotError (which load_latest skips), never as
        # a TypeError escaping the fallback walk.
        if not isinstance(manifest, dict) or \
                manifest.get("version") != CHECKPOINT_VERSION or \
                not isinstance(manifest.get("seq", 0), int) or \
                not isinstance(manifest.get("meta", {}), dict) or \
                not isinstance(manifest.get("files"), dict):
            raise SnapshotError(
                f"checkpoint {path.name} manifest is malformed or not "
                f"version {CHECKPOINT_VERSION}"
            )
        seq = manifest.get("seq", 0)
        if _dir_seq(path) != seq:
            # A copied or renamed directory would otherwise "fully
            # verify" while corrupting newest-first ordering and save's
            # next-seq computation.
            raise SnapshotError(
                f"checkpoint {path.name} manifest seq {seq} does not "
                "match its directory name"
            )
        parent_seq = manifest.get("parent_seq")
        if parent_seq is not None and not (
                isinstance(parent_seq, int) and 0 < parent_seq < seq):
            raise SnapshotError(
                f"checkpoint {path.name} has a malformed parent_seq "
                f"{parent_seq!r}"
            )
        for name, info in manifest["files"].items():
            if not (isinstance(name, str) and isinstance(info, dict)
                    and isinstance(info.get("bytes"), int)
                    and isinstance(info.get("sha256"), str)):
                raise SnapshotError(
                    f"checkpoint {path.name} manifest entry {name!r} "
                    "is malformed"
                )
            encoding = info.get("encoding")
            if encoding not in ("full", "delta") or (
                    encoding == "delta" and not (
                        parent_seq is not None
                        and isinstance(info.get("content_bytes"), int)
                        and isinstance(info.get("content_sha256"), str))):
                raise SnapshotError(
                    f"checkpoint {path.name} manifest entry {name!r} "
                    "has a malformed encoding"
                )
        parent = None
        if parent_seq is not None:
            parent = self.load(
                self.directory / f"{_PREFIX}{parent_seq:06d}")
        ckpt = Checkpoint(
            seq=seq,
            path=path,
            meta=dict(manifest.get("meta", {})),
            files=manifest["files"],
            parent_seq=parent_seq,
            parent=parent,
        )
        for name in ckpt.files:
            ckpt.read(name)  # digest check; raises SnapshotError if torn
        return ckpt

    def load_latest(self) -> Checkpoint | None:
        """The newest checkpoint that fully verifies, or ``None``.

        Torn or partially written checkpoints (bad manifest, missing
        file, digest mismatch, broken parent chain) are skipped — never
        mounted — and the walk falls back to the next older one.
        """
        for _, path in reversed(self._published()):
            try:
                return self.load(path)
            except SnapshotError:
                continue
        return None


# ----------------------------------------------------------------------
# Store introspection (duck-typed so this layer imports no backend)
# ----------------------------------------------------------------------
def fs_components(store: Any) -> list[tuple[str, Any]]:
    """(label, SimFilesystem) pairs reachable inside an object store.

    The filesystem backend exposes one (``vol0``); a sharded composite
    exposes one per filesystem shard (``shard0``..); backends without a
    free index contribute none.  Labels are stable, so checkpoint file
    names (``free_index-<label>.bin``) line up across save and load.
    """
    fs = getattr(store, "fs", None)
    if fs is not None and hasattr(fs, "free_index"):
        return [("vol0", fs)]
    out: list[tuple[str, Any]] = []
    for i, shard in enumerate(getattr(store, "shards", ()) or ()):
        fs = getattr(shard, "fs", None)
        if fs is not None and hasattr(fs, "free_index"):
            out.append((f"shard{i}", fs))
    return out
