"""Storage age: the paper's time axis.

Section 4.4 defines storage age as *"the ratio of bytes in objects that
once existed on a volume to the number of bytes in use on the volume"* —
for the safe-write workload, "safe writes per object".  Unlike elapsed
time or total work, it is independent of volume size, update strategy,
and hardware, so curves from different systems are comparable.

:class:`StorageAgeTracker` accumulates the ratio from allocation events.
The experiment driver reaches each sampling point (ages 0, 2, 4 for
Figures 1/4; 0..10 for Figures 2/3/5/6) by safe-writing until the
tracked ratio gets there (:func:`repro.core.workload.churn_to_age`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StorageAgeTracker:
    """Event-fed storage-age accumulator."""

    live_bytes: int = 0
    dead_bytes: int = 0
    puts: int = 0
    deletes: int = 0
    overwrites: int = 0
    _history: list[tuple[int, float]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Event feed
    # ------------------------------------------------------------------
    def on_put(self, size: int) -> None:
        self.live_bytes += size
        self.puts += 1

    def on_delete(self, size: int) -> None:
        self.live_bytes -= size
        self.dead_bytes += size
        self.deletes += 1

    def on_overwrite(self, old_size: int, new_size: int) -> None:
        """A safe write: the old version's bytes become dead."""
        self.dead_bytes += old_size
        self.live_bytes += new_size - old_size
        self.overwrites += 1

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    @property
    def storage_age(self) -> float:
        """Dead bytes over live bytes (0 on an empty or fresh volume)."""
        if self.live_bytes <= 0:
            return 0.0
        return self.dead_bytes / self.live_bytes

    def record_history(self) -> None:
        """Append (total events, current age) for later inspection."""
        events = self.puts + self.deletes + self.overwrites
        self._history.append((events, self.storage_age))

    @property
    def history(self) -> list[tuple[int, float]]:
        return list(self._history)
