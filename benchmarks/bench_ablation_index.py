"""Ablation A8 — the free-space engine under the longest free lists.

Not a claim of the paper but the control its reproduction needs: the
tiered :class:`~repro.alloc.freelist.FreeExtentIndex` replaced the flat
O(n)-per-mutation list (:mod:`repro.alloc.naive`) on the promise of
*placement parity* — every allocation lands on the same extent, so no
modelled number may move.  This ablation holds it to that on Figure 3's
filesystem curve (97% full, 256 KB objects: one fragment per 64 KB
request shreds the free space into the longest free lists any figure
builds), and the record keeps both engines' host seconds side by side —
what the flat list costs where it costs the most.
"""

from repro.analysis.compare import ShapeCheck, check_between
from repro.analysis.tables import render_series_table

import paperfig
from bench_fig3_small_fragmentation import curve

ENGINES = ("tiered", "naive")


def compute(run):
    return {kind: curve(run, "filesystem", index_kind=kind, label=kind)
            for kind in ENGINES}


def render(results) -> str:
    return render_series_table(
        "Ablation A8: free-space engine vs Figure 3's filesystem curve "
        "(fragments/object)",
        "Storage Age",
        {kind: paperfig.frag_series(results[kind]) for kind in ENGINES},
        footer=("Placement parity: the engines differ in host time only "
                "(per-curve seconds below and in the record)."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    tiered, naive = (results[kind].samples for kind in ENGINES)
    return {
        "samples_moved": check_between(
            "naive places every extent where tiered does (samples ==)",
            sum(a != b for a, b in zip(tiered, naive, strict=True)), 0, 0),
    }
