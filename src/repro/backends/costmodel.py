"""Host-side CPU costs of the two access paths.

The disk model covers seeks and media transfer; what remains of the
paper's folklore (Section 3.1) is CPU:

* *"Database queries are faster than file opens"* — a parameterized
  query against a cached metadata page costs well under a millisecond;
  the Win32 CreateFile path (name parsing, security descriptor checks,
  handle creation) costs on the order of a millisecond of CPU, plus the
  MFT record read the filesystem layer charges.
* *"Database client interfaces are not designed for large objects"* —
  BLOB bytes cross the server's page assembly and the client protocol
  stack, adding a per-page and a per-byte cost that files streamed
  straight from the cache manager do not pay.

Defaults are order-of-magnitude figures for the paper's 1.8 GHz Opteron
era, chosen so the *clean-system* curves reproduce Figure 1's shape
(database ahead below ~1 MB, filesystem ahead at 10 MB).  The checks
that hold the calibration are named in docs/benchmarks.md,
"Contract, scaling and calibration".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.iostats import IoStats
from repro.units import MB, PAGE_SIZE


@dataclass(frozen=True)
class CostModel:
    """CPU-time parameters, all in seconds."""

    #: Parse/plan/execute a parameterized single-row metadata query.
    db_query_cpu_s: float = 0.0003
    #: Open a file handle (CreateFile path), excluding the MFT read.
    file_open_cpu_s: float = 0.0012
    #: Close a file handle.
    file_close_cpu_s: float = 0.0003
    #: Per-page BLOB processing (latching, assembly, TDS framing).
    db_per_page_cpu_s: float = 0.00002
    #: Per-byte BLOB client-interface cost (memory copies, marshalling).
    db_per_byte_cpu_s: float = 4.3e-9
    #: Per-byte cost of the file read/write path (cache manager copy).
    file_per_byte_cpu_s: float = 0.6e-9

    # ------------------------------------------------------------------
    # Charging helpers: accumulate into the device's IoStats so CPU time
    # lands in the same measurement windows as the I/O it accompanies.
    # ------------------------------------------------------------------
    def charge_db_query(self, stats: IoStats) -> None:
        stats.record_cpu(self.db_query_cpu_s)

    def charge_db_stream(self, stats: IoStats, nbytes: int) -> None:
        """BLOB bytes moving through server + client interface."""
        pages = -(-nbytes // PAGE_SIZE)
        stats.record_cpu(pages * self.db_per_page_cpu_s
                         + nbytes * self.db_per_byte_cpu_s)

    def charge_file_open(self, stats: IoStats) -> None:
        stats.record_cpu(self.file_open_cpu_s)

    def charge_file_close(self, stats: IoStats) -> None:
        stats.record_cpu(self.file_close_cpu_s)

    def charge_file_stream(self, stats: IoStats, nbytes: int) -> None:
        stats.record_cpu(nbytes * self.file_per_byte_cpu_s)

    def describe(self) -> str:
        """One line per parameter, for bench headers."""
        lines = [
            f"  db query          {self.db_query_cpu_s * 1e3:.2f} ms",
            f"  file open/close   {self.file_open_cpu_s * 1e3:.2f}"
            f"/{self.file_close_cpu_s * 1e3:.2f} ms",
            f"  db stream         {self.db_per_page_cpu_s * 1e6:.0f} us/page"
            f" + {self.db_per_byte_cpu_s * MB * 1e3:.2f} ms/MB",
            f"  file stream       {self.file_per_byte_cpu_s * MB * 1e3:.2f}"
            " ms/MB",
        ]
        return "\n".join(lines)
