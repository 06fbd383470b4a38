"""Device submission policy: how a backend batches and orders its I/O.

The scatter/gather path (:meth:`BlockDevice.submit`) can serve a batch
in elevator (C-LOOK) order, and bulk producers can cap how many
requests they put in one batch.  Both knobs used to be per-call-site
decisions; :class:`DevicePolicy` makes them one declarative value that
a :class:`~repro.backends.spec.StoreSpec` carries and every backend
threads into its device submissions — the handle for the paper's
request-scheduling ablations (ROADMAP: elevator scheduling study).

The default policy (unbounded batches, no reordering) is cost-identical
to the pre-policy behaviour: ``submit`` orders every batch by the
device's policy, and the default policy's ``reorder_flag`` is False.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.errors import ConfigError

#: Accepted reorder disciplines: submission order, or C-LOOK elevator.
REORDER_KINDS = ("none", "clook")


@dataclass(frozen=True, slots=True)
class DevicePolicy:
    """Batching and ordering discipline for timed device submissions.

    Parameters
    ----------
    batch_size:
        Maximum requests per :meth:`BlockDevice.submit` call on bulk
        paths (appends, ``read_many`` sweeps).  ``0`` means unbounded —
        producers submit whatever batch they naturally built, which is
        the historical behaviour.
    reorder:
        ``"none"`` serves batches in submission order (cost-identical
        to one-at-a-time submission); ``"clook"`` serves each batch in
        C-LOOK elevator order, modelling a request scheduler.
    """

    batch_size: int = 0
    reorder: str = "none"

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0 (0 = unbounded)")
        if self.reorder not in REORDER_KINDS:
            raise ConfigError(
                f"unknown reorder {self.reorder!r}; "
                f"choose from {REORDER_KINDS}"
            )

    @property
    def reorder_flag(self) -> bool:
        """The boolean :meth:`BlockDevice.submit` expects."""
        return self.reorder == "clook"

    def chunks(self, requests: Sequence) -> Iterator[Sequence]:
        """Split a request list into policy-sized batches.

        With ``batch_size == 0`` the whole list comes back as one
        batch; empty input yields nothing.
        """
        if not requests:
            return
        if self.batch_size == 0:
            yield requests
            return
        for lo in range(0, len(requests), self.batch_size):
            yield requests[lo: lo + self.batch_size]

    def to_dict(self) -> dict:
        return {"batch_size": self.batch_size, "reorder": self.reorder}


#: Shared default instance (policies are immutable, sharing is safe).
DEFAULT_POLICY = DevicePolicy()
