"""Byte-size units, parsing, and formatting.

The paper quotes sizes in KB/MB/GB with binary semantics (256 KB objects,
64 KB write requests, 8 KB pages, 40/400 GB volumes).  Everything in this
library is an integer number of bytes; these constants and helpers keep
call sites readable.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB
TB: int = 1024 * GB

#: SQL Server style page and extent sizes (8 KB pages, 8 pages per extent).
PAGE_SIZE: int = 8 * KB
PAGES_PER_EXTENT: int = 8
EXTENT_SIZE: int = PAGE_SIZE * PAGES_PER_EXTENT  # 64 KB

#: NTFS default cluster size used throughout the experiments.
CLUSTER_SIZE: int = 4 * KB

#: The paper's application write request size (Section 5.3).
DEFAULT_WRITE_REQUEST: int = 64 * KB

_SIZE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[KMGT]?i?B?)\s*$", re.IGNORECASE
)

_UNIT_FACTORS = {
    "": 1,
    "B": 1,
    "K": KB,
    "KB": KB,
    "KIB": KB,
    "M": MB,
    "MB": MB,
    "MIB": MB,
    "G": GB,
    "GB": GB,
    "GIB": GB,
    "T": TB,
    "TB": TB,
    "TIB": TB,
}


def parse_size(text: str | int) -> int:
    """Parse a human-readable size such as ``"256K"`` or ``"10MB"`` to bytes.

    Integers pass through unchanged, so call sites can accept either form.

    >>> parse_size("256K")
    262144
    >>> parse_size("1.5MB")
    1572864
    >>> parse_size(4096)
    4096
    """
    if isinstance(text, int):
        return text
    match = _SIZE_RE.match(text)
    if match is None:
        raise ValueError(f"unparseable size: {text!r}")
    unit = match.group("unit").upper()
    if unit not in _UNIT_FACTORS:
        raise ValueError(f"unknown size unit in {text!r}")
    value = float(match.group("num")) * _UNIT_FACTORS[unit]
    result = int(round(value))
    if result < 0:
        raise ValueError(f"negative size: {text!r}")
    return result


def fmt_size(nbytes: int | float) -> str:
    """Format a byte count the way the paper labels its axes.

    Sizes that are exact multiples of a unit render without a decimal
    point (``256K``, ``10M``); others keep one decimal (``1.5M``).

    >>> fmt_size(262144)
    '256K'
    >>> fmt_size(10 * MB)
    '10M'
    """
    nbytes = float(nbytes)
    sign = "-" if nbytes < 0 else ""
    nbytes = abs(nbytes)
    for factor, suffix in ((TB, "T"), (GB, "G"), (MB, "M"), (KB, "K")):
        if nbytes >= factor:
            value = nbytes / factor
            if abs(value - round(value)) < 1e-9:
                return f"{sign}{int(round(value))}{suffix}"
            return f"{sign}{value:.1f}{suffix}"
    if abs(nbytes - round(nbytes)) < 1e-9:
        return f"{sign}{int(round(nbytes))}B"
    return f"{sign}{nbytes:.1f}B"


def fmt_rate(bytes_per_second: float) -> str:
    """Format a throughput in MB/s with two significant decimals.

    >>> fmt_rate(17_700_000 * 1.048576 / 1.048576)  # doctest: +SKIP
    """
    return f"{bytes_per_second / MB:.2f} MB/s"


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for sizing extents/pages.

    >>> ceil_div(10, 4)
    3
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the next multiple of ``multiple``.

    >>> round_up(100, 64)
    128
    """
    return ceil_div(value, multiple) * multiple


def left_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right: ``((0.0 + a) + b) + ...``.

    Builtin ``sum()`` is this fold up to CPython 3.11 and a compensated
    (Neumaier) sum from 3.12, so the two disagree in the last bit on
    about a third of random inputs.  Modelled numbers must not depend
    on the interpreter: every float total that reaches a run record or
    steers a random draw is folded here (or by an explicit loop).

    >>> left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    True
    """
    total = 0.0
    for value in values:
        total += value
    return total
