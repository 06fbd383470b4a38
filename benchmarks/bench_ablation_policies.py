"""Ablation A1 — textbook allocation policies on the paper's workload.

The paper's theory section (3.2) discusses first fit's near-optimal
worst case and why theoretically optimal policies can behave poorly in
practice.  This bench churns a raw free-extent index with each policy
(plus the DTSS buddy system) under the safe-write pattern
(allocate-new-then-free-old) and reports external fragmentation — the
number of pieces per allocation — and, for buddy, the internal waste it
trades for its zero external fragmentation.
"""

from repro.alloc.buddy import BuddyAllocator
from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.policy import allocate_fragmented, make_policy, policy_names
from repro.analysis.compare import ShapeCheck, check_between
from repro.analysis.tables import render_table
from repro.errors import AllocationError
from repro.rng import substream
from repro.units import KB, MB

VOLUME = 256 * MB
OBJECT = 1 * MB
OCCUPANCY = 0.9
CHURN_OPS = 2000


def churn_policy(policy_name: str, seed: int = 5):
    """Safe-write churn against one policy; returns (mean pieces,
    max pieces, failed ops)."""
    index = FreeExtentIndex(VOLUME)
    policy = make_policy(policy_name)
    rng = substream(seed, policy_name)
    live: list[list[Extent]] = []
    target = int(VOLUME * OCCUPANCY)
    while sum(sum(e.length for e in obj) for obj in live) + OBJECT <= target:
        live.append(allocate_fragmented(index, OBJECT, policy))
    failures = 0
    for _ in range(CHURN_OPS):
        victim = rng.randrange(len(live))
        try:
            replacement = allocate_fragmented(index, OBJECT, policy)
        except AllocationError:
            failures += 1
            continue
        for ext in live[victim]:
            index.add(ext)
        live[victim] = replacement
    pieces = [len(obj) for obj in live]
    return sum(pieces) / len(pieces), max(pieces), failures


def churn_buddy(seed: int = 5):
    """Same churn against the buddy allocator (always 1 piece, but
    internal waste; uses a 1.25 MB odd size to expose the rounding)."""
    odd_object = OBJECT + 256 * KB
    buddy = BuddyAllocator(VOLUME, min_block=4 * KB)
    rng = substream(seed, "buddy")
    live: list[Extent] = []
    target = int(VOLUME * OCCUPANCY)
    while sum(e.length for e in live) + buddy.block_size(
            (odd_object // (4 * KB)).bit_length()) <= target:
        try:
            live.append(buddy.alloc(odd_object))
        except AllocationError:
            break
    for _ in range(CHURN_OPS):
        victim = rng.randrange(len(live))
        buddy.free(live[victim])
        live[victim] = buddy.alloc(odd_object)
    waste = buddy.internal_waste(odd_object) / odd_object
    return 1.0, 1, waste


def compute(run):
    rows = {}
    for name in policy_names():
        rows[name] = churn_policy(name)
    rows["buddy"] = churn_buddy()
    return rows


def render(results) -> str:
    table_rows = []
    for name, values in results.items():
        if name == "buddy":
            mean_pieces, max_pieces, waste = values
            table_rows.append([name, mean_pieces, max_pieces,
                               f"{waste:.0%} internal waste"])
        else:
            mean_pieces, max_pieces, failures = values
            table_rows.append([name, mean_pieces, max_pieces,
                               f"{failures} failed ops"])
    return render_table(
        "Ablation A1: allocation policy vs external fragmentation "
        f"({OBJECT // MB} MB objects, {OCCUPANCY:.0%} full)",
        ["Policy", "Mean pieces/object", "Max", "Notes"],
        table_rows,
        footer=("Constant-size objects with free-before-allocate churn "
                "stay contiguous under every fit policy (the paper's "
                "§5.4 intuition); buddy adds internal waste instead."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    out = {}
    for name in policy_names():
        mean_pieces, _, failures = results[name]
        out[f"{name}_pieces"] = check_between(
            f"{name}: constant-size churn stays near-contiguous",
            mean_pieces, 1.0, 1.6,
        )
        out[f"{name}_failures"] = check_between(
            f"{name}: no failed allocations", failures, 0, 0,
        )
    _, _, waste = results["buddy"]
    out["buddy_waste"] = check_between(
        "buddy pays internal fragmentation for predictability",
        waste, 0.05, 1.0,
    )
    return out

