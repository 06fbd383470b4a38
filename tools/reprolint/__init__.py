"""reprolint: project-specific static analysis for the repro simulator.

Bit-exact determinism, the device-error contract and hot-path hygiene
were once defended in review; this package checks them mechanically.
It is **stdlib-only and never imports ``repro``**: every
rule works on the AST of the source tree, so the linter runs in a bare
CI container and cannot be confused by import-time side effects.

Rule families (catalogue in ``docs/architecture.md`` § "Enforced
invariants"):

* **RPL0xx** — suppression hygiene (malformed pragma, missing reason,
  unknown code, unused suppression).  Not themselves suppressible.
* **RPL1xx** — determinism: wall-clock/entropy sources, host timers in
  simulation code, RNG construction outside :mod:`repro.rng`, unseeded
  randomness in benches/tests, unordered ``set`` iteration, float/int
  accumulation over ``dict.values()`` in accounting modules, builtin
  ``hash()`` in simulation code.
* **RPL3xx** — error-contract consistency: ``DeviceError`` subclasses
  declared, with their contract, in the one contract module.
* **RPL4xx** — performance hygiene: ``slots=True`` on hot-path
  dataclasses, no mutable default arguments.

Violations are suppressed **only** with a reason::

    something_unusual()  # reprolint: ok RPL105 (order irrelevant: feeds a set union)

A file-wide waiver uses ``# reprolint: file ok RPL104 (reason)`` on its
own line.  A suppression without a ``(reason)`` is itself an error, as
is one that suppresses nothing.

Command line::

    python -m tools.reprolint src benchmarks tests   # lint (exit 1 on findings)
    python -m tools.reprolint --list-rules           # the rule catalogue

Library use: :func:`tools.reprolint.engine.run_lint` and
:func:`tools.reprolint.engine.lint_source` (used by the fixture tests).
"""

from tools.reprolint.engine import (
    Finding,
    all_rules,
    lint_source,
    run_lint,
)

__all__ = ["Finding", "all_rules", "lint_source", "run_lint"]
