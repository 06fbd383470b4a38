"""The one text grammar behind every spec: ``head`` + ``key=value`` items.

:class:`~repro.backends.spec.StoreSpec`,
:class:`~repro.scenario.spec.ScenarioSpec`,
:class:`~repro.disk.events.ArrivalSpec` and the clauses of a
:class:`~repro.disk.faults.FaultProfile` all read (and, where they have
a ``text()``, write) the same shape; they differ only in their
separators and in a declarative table of :class:`Key` entries.  The
rules, stated once (see also docs/architecture.md, "Spec text grammar"):

* the head ends at the first ``:``; items follow, split on the caller's
  separator set — ``,`` for store and scenario specs, ``:`` or ``,`` for
  arrival specs and fault clauses, so those can ride inside a store spec
  as ``arrival=poisson:rate=2e3`` (for them the head also ends at the
  first ``,``);
* an item splits on its *first* ``=`` (``faults=slow:shard=1:factor=8``
  is one item); blank items are skipped; a missing ``=``, an empty key
  or an empty value is rejected, and so is a key given twice;
* values go through the table's converter; floats must be finite;
* canonical text lists items in table order through each key's ``fmt``.

Every rejection is a :class:`~repro.errors.ConfigError` naming the spec
kind and the offending item.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from repro.errors import ConfigError
from repro.units import parse_size

Converter = Callable[[Any], Any]


# ----------------------------------------------------------------------
# Converters: text (or an already-typed programmatic value) -> value
# ----------------------------------------------------------------------
def to_int(value: Any) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad integer {value!r}") from None


def to_float(value: Any) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad number {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"non-finite number {value!r}")
    return number


def to_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {value!r}")


def to_size(value: Any) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"bad size {value!r}")
    try:
        return parse_size(value if isinstance(value, int) else str(value))
    except (ValueError, OverflowError):
        raise ConfigError(f"bad size {value!r}") from None


def choice(*choices: str) -> Converter:
    def convert(value: Any) -> str:
        text = str(value)
        if text not in choices:
            raise ConfigError(f"bad value {text!r}; choose from {choices}")
        return text
    return convert


class Key(NamedTuple):
    """One row of a spec's key table."""

    convert: Converter
    #: Renders the value in canonical text.
    fmt: Callable[[Any], str] = str
    #: Constructor argument the key sets, when it is not the key itself.
    field: str = ""


# ----------------------------------------------------------------------
# Parsing and rendering
# ----------------------------------------------------------------------
def tokenize(kind: str, text: str,
             separators: str = ",") -> tuple[str, dict[str, str]]:
    """Split spec text into its head and raw ``{key: value}`` items."""
    splitter = re.compile(f"[{re.escape(separators)}]")
    if ":" in separators:
        head, *parts = splitter.split(text)
    else:
        head, _, tail = text.partition(":")
        parts = splitter.split(tail)
    raw: dict[str, str] = {}
    for item in filter(None, (part.strip() for part in parts)):
        key, eq, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not (eq and key and value):
            raise ConfigError(
                f"bad {kind} item {item!r}; expected key=value")
        if key in raw:
            raise ConfigError(f"{kind} sets {key!r} twice (at {item!r})")
        raw[key] = value
    return head.strip(), raw


def convert_items(kind: str, raw: Mapping[str, str],
                  table: Mapping[str, Key],
                  unknown: dict[str, str] | None = None) -> dict[str, Any]:
    """Raw items -> ``{key: converted value}`` through ``table``.

    A key the table lacks is rejected, unless ``unknown`` is given to
    collect such items unconverted (store specs pass them on as backend
    options, which the registry converts at build time).
    """
    values: dict[str, Any] = {}
    for key, text in raw.items():
        entry = table.get(key)
        if entry is not None:
            try:
                values[key] = entry.convert(text)
            except ConfigError as exc:
                raise ConfigError(
                    f"bad {kind} item '{key}={text}': {exc}") from None
        elif unknown is not None:
            unknown[key] = text
        else:
            raise ConfigError(
                f"unknown {kind} item '{key}={text}'; "
                f"keys are {tuple(table)}")
    return values


def format_items(table: Mapping[str, Key],
                 values: Mapping[str, Any]) -> list[tuple[str, str]]:
    """``(key, canonical value text)`` in table order, skipping ``None``."""
    return [(key, entry.fmt(values[key])) for key, entry in table.items()
            if values.get(key) is not None]


def render(head: str, items: Iterable[tuple[str, str]],
           separator: str) -> str:
    """Canonical text: ``head`` alone, or ``head:k=v<separator>k=v``."""
    tail = separator.join(f"{key}={value}" for key, value in items)
    return f"{head}:{tail}" if tail else head
