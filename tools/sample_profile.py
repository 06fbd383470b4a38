"""Where an e2e workload's timed region spends its CPU: a stack sampler.

    python tools/sample_profile.py WORKLOAD [--seed N | --seeds 7-14]
                                   [--top K] [--smoke]

Runs one ``benchmarks/e2e`` workload in this process and, from the end
of its bulk load (the first sample, where the benchmark's timed region
starts) to the end of the run, samples the Python stack on
``ITIMER_PROF`` (process CPU time).  Prints, per function, the share of
samples with the function on top of the stack (self) and anywhere in
it (inclusive, counted once per sample under recursion).  ``--seeds``
takes seeds and ranges (``7-14``, ``7,9,11-12``), runs the workload
once per seed, one after another, and pools every run's samples into
one table.

The kernel delivers ``ITIMER_PROF`` at its CPU-accounting tick, so a
run gets about one sample per tick however short the interval asked
(``samples`` against ``cpu_s`` in the header shows the real rate); a
short timed region wants several seeds.  Python handles the signal at
its next check for pending work (a call or a loop's backward jump), so
C work that ends one frame can be charged to the next frame entered:
confirm a surprising self share with a direct timing.  A sampler costs
the same per sample wherever the program is, so the shares stay honest
for call-heavy code that ``cProfile`` inflates (its per-call hook
costs more than a small function's body).

The config is the benchmark's own: ``bench_e2e.WORKLOADS`` makes it
and ``e2e_child.build_config`` turns it into an ``ExperimentConfig``,
both only read.  ``--smoke`` divides the volume as ``bench_e2e
--smoke`` does.  A checkpointing workload writes its checkpoints to a
temporary directory and runs straight through, with no kill and
resume.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import FrameType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"

#: CPU seconds between samples.
INTERVAL_S = 0.001


def function_name(code) -> str:
    """``module.qualname`` for code under ``src``, else ``file:qualname``."""
    path = Path(code.co_filename)
    qualname = getattr(code, "co_qualname", code.co_name)
    try:
        parts = path.resolve().relative_to(SRC).with_suffix("").parts
    except ValueError:
        return f"{path.name}:{qualname}"
    return ".".join(parts + (qualname,))


class StackSampler:
    """Counts self and inclusive samples per code object."""

    def __init__(self) -> None:
        self.samples = 0
        self.self_counts: Counter = Counter()
        self.incl_counts: Counter = Counter()
        self.running = False
        #: Process CPU seconds between start and stop, over every run.
        self.cpu_s = 0.0
        self._previous = None

    def _take(self, _signum: int, frame: FrameType | None) -> None:
        if frame is None:
            return
        self.samples += 1
        self.self_counts[frame.f_code] += 1
        seen = set()
        while frame is not None:
            seen.add(frame.f_code)
            frame = frame.f_back
        self.incl_counts.update(seen)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._take)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.running = True
        self.cpu_s -= time.process_time()

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
            self.running = False
            self.cpu_s += time.process_time()

    def table(self, top: int) -> list[tuple[float, float, str]]:
        """``(self share, inclusive share, name)`` of the ``top``
        functions by self samples; code objects of one name merge."""
        self_by: Counter = Counter()
        incl_by: Counter = Counter()
        for code, count in self.self_counts.items():
            self_by[function_name(code)] += count
        for code, count in self.incl_counts.items():
            incl_by[function_name(code)] += count
        total = self.samples or 1
        return [(count / total, incl_by[name] / total, name)
                for name, count in self_by.most_common(top)]


def _benchmark_modules():
    """``bench_e2e`` and ``e2e_child``, with ``repro`` importable."""
    for path in (SRC, E2E):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import bench_e2e
    import e2e_child
    return bench_e2e, e2e_child


def parse_seeds(text: str) -> list[int]:
    """``7-14`` or ``7,9,11-12``: the seeds in the order written."""
    seeds: list[int] = []
    for part in text.split(","):
        first, dash, last = part.partition("-")
        try:
            lo = int(first)
            hi = int(last) if dash else lo
        except ValueError:
            raise ValueError(f"bad seed list {text!r}") from None
        if hi < lo:
            raise ValueError(f"empty seed range {part!r}")
        seeds += range(lo, hi + 1)
    return seeds


def profile(workload: str, *, seed: int, smoke: bool,
            sampler: StackSampler | None = None) -> StackSampler:
    """Run ``workload`` at ``seed``, sampling its timed region into
    ``sampler`` (a new one if ``None``), and return the sampler."""
    bench_e2e, e2e_child = _benchmark_modules()
    from repro.core.experiment import ExperimentRunner

    shrink = bench_e2e.SMOKE_SHRINK if smoke else 1
    cfg = bench_e2e.WORKLOADS[workload].make_config(seed, shrink)
    config = e2e_child.build_config(cfg)
    if sampler is None:
        sampler = StackSampler()

    def progress(phase: str, _value: float) -> None:
        if phase == "sample" and not sampler.running:
            sampler.start()

    with tempfile.TemporaryDirectory() as work_dir:
        kwargs = {}
        if cfg.get("checkpoint") is not None:
            kwargs = {"checkpoint_dir": Path(work_dir),
                      "checkpoint_full_interval":
                          cfg["checkpoint"]["full_interval"]}
        try:
            ExperimentRunner(config, progress=progress, **kwargs).run()
        finally:
            sampler.stop()
    return sampler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=7)
    seeds.add_argument("--seeds", help="seeds to pool, e.g. 7-14")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--smoke", action="store_true",
                        help="the bench_e2e --smoke volume")
    args = parser.parse_args(argv)
    bench_e2e, _ = _benchmark_modules()
    if args.workload not in bench_e2e.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench_e2e.WORKLOADS)}")
    try:
        seed_list = parse_seeds(args.seeds) if args.seeds else [args.seed]
    except ValueError as exc:
        parser.error(str(exc))
    sampler = StackSampler()
    for seed in seed_list:
        profile(args.workload, seed=seed, smoke=args.smoke, sampler=sampler)
    which = f"seeds={args.seeds}" if args.seeds else f"seed={args.seed}"
    print(f"{args.workload} {which} samples={sampler.samples} "
          f"cpu_s={sampler.cpu_s:.3f} interval_ms={INTERVAL_S * 1e3:g}")
    print(f"{'self':>7} {'incl':>7}  function")
    for self_share, incl_share, name in sampler.table(args.top):
        print(f"{self_share:7.1%} {incl_share:7.1%}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
