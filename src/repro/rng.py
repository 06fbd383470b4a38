"""Deterministic random number helpers.

Every stochastic component (workload generator, size distributions,
metadata traffic) takes an explicit seed so experiments are exactly
reproducible and benches are stable run to run.  Components never share
a generator: each derives an independent stream from a root seed with
:func:`substream`, so adding randomness to one component does not perturb
another component's draws.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "substream"]


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for ``label`` under a root seed.

    The one derivation recipe: :func:`substream` seeds its generator
    with it, and specs that hand a seed on (a fault clause resolved per
    shard) derive the child seed the same way.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, label: str) -> random.Random:
    """Derive an independent named generator from a root seed.

    The label is hashed together with the seed, so ``substream(7, "sizes")``
    and ``substream(7, "ops")`` are decorrelated but both fully determined
    by the root seed.

    >>> substream(7, "sizes").random() == substream(7, "sizes").random()
    True
    """
    return random.Random(derive_seed(seed, label))
