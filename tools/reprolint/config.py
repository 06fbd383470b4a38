"""Project policy: which paths each rule patrols.

The engine and rule modules are generic; this file is where the
*project* decides the scope of each rule.
"""

from __future__ import annotations

#: Per-rule path scoping (fnmatch over repo-relative posix paths; ``*``
#: crosses ``/``).  Rules not listed here use their declared defaults.
#: Rationale for each scope lives in docs/architecture.md.
RULE_SCOPES: dict[str, dict[str, list[str]]] = {
    # Host timers are fine in benchmarks (they time the *host*); inside
    # the simulator, simulated time is the only clock.
    "RPL102": {"include": ["src/*"]},
    # RNG construction is the business of repro/rng.py alone.
    "RPL103": {"include": ["src/*"], "exclude": ["src/repro/rng.py"]},
    # src/ may not construct RNGs at all (RPL103), so the unseeded-use
    # rule patrols the driver code.
    "RPL104": {"include": ["benchmarks/*", "tests/*"]},
    # Accumulation order is part of the bit-exactness contract only in
    # the accounting/cost paths.
    "RPL106": {"include": ["src/repro/alloc/*", "src/repro/backends/*"]},
    # Salted str/bytes hashes must not reach modelled numbers; drivers
    # and tests may key dicts however they like.
    "RPL107": {"include": ["src/*"]},
    # Hot-path allocation: structures and per-IO objects.
    "RPL402": {"include": [
        "src/repro/struct/*", "src/repro/alloc/*", "src/repro/disk/*",
    ]},
}
