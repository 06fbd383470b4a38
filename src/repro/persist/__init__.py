"""Durable state: snapshots, rebuild paths, and checkpoints.

The simulation's hot structures live in memory; this package is how
they survive a process death.  Three layers, lowest first:

* :mod:`repro.persist.snapshot` — versioned, byte-stable binary
  encodings of the free-extent index (both engines) and the journal's
  recoverable state, each guarded by magic, version, and CRC so a torn
  write is detected rather than mounted.
* :mod:`repro.persist.delta` — a generic content-keyed binary delta
  (COPY of matching parent blocks, INSERT of the rest) between two
  payloads under the same CRC framing, pinned to its exact parent by
  length + CRC; the delta-checkpoint encoding.
* :mod:`repro.persist.rebuild` — reconstruction of the free index from
  the file table's extent maps (the authoritative source), plus the
  run-for-run cross-check that catches a snapshot diverging from the
  extent maps — the torn/partial-state detector.
* :mod:`repro.persist.checkpoint` — :class:`CheckpointManager`,
  directory-level checkpoints published by an atomic rename with a
  manifest of checksums written last; checkpoints may be stored as
  delta chains against their predecessor (``full_interval``); loading
  replays and verifies the whole chain, skips anything invalid, and
  falls back to the newest checkpoint whose chain is intact.

The experiment driver composes these into ``--checkpoint-dir`` /
``--resume`` (see :mod:`repro.core.experiment`); the crash-injection
suite (``tests/crashsim.py``) holds every layer to the paper's
deferred-free rule under a kill-point matrix.
"""

from repro.persist.checkpoint import Checkpoint, CheckpointManager, fs_components
from repro.persist.delta import DELTA_BLOCK, apply_delta, encode_delta
from repro.persist.rebuild import cross_check, rebuild_free_index, rebuild_fs_free_index
from repro.persist.snapshot import (
    SNAPSHOT_VERSION,
    decode_free_index,
    decode_journal_state,
    encode_free_index,
    encode_journal,
    verify_journal,
)

__all__ = [
    "DELTA_BLOCK",
    "SNAPSHOT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "apply_delta",
    "cross_check",
    "encode_delta",
    "decode_free_index",
    "decode_journal_state",
    "encode_free_index",
    "encode_journal",
    "fs_components",
    "rebuild_free_index",
    "rebuild_fs_free_index",
    "verify_journal",
]
