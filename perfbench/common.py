"""Shared pieces: the run context, statistics, processes and results."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7
#: About the median time of :func:`reference_seconds` on the 2-CPU box
#: this benchmark was tuned on; in-process figures are scaled to it.
REFERENCE_SECONDS = 0.0115


@dataclass
class Context:
    """What every workload gets: where the checkout is, and the seed."""

    root: Path
    seed: int
    tmp: Path

    @property
    def env(self) -> dict[str, str]:
        """Environment for child processes: the checkout's ``src`` only."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env


@dataclass
class Measurement:
    """One measured pass of a workload.

    Attributes:
        e2e: the benchmark's end-to-end slots (see ``run.py``).
        named: the same figures under their per-workload names, for
            the human-readable report.
        layers: per-layer figures gathered outside the tracer.
        attempted / failed: operations tried, and operations that
            failed, were refused or were answered wrongly.
        problems: why the run is invalid or wrong (empty when fine).
        server_trace: per-phase span snapshots from a traced server.
    """

    e2e: dict[str, float]
    named: dict[str, tuple[float, str]]
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    server_trace: list[dict] = field(default_factory=list)


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of a non-empty sample.

    Interpolated between samples (the inclusive method), so the p99 of
    a handful of calls lies just under the slowest of them.
    """
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    cuts = statistics.quantiles(data, n=1000, method="inclusive")
    index = round(q * 1000) - 1
    return float(cuts[min(max(index, 0), len(cuts) - 1)])


def median(values) -> float:
    return float(statistics.median(values))


def reference_seconds() -> float:
    """Time one fixed kernel of Python tuple work and a numpy sort.

    The kernel stands for the machine, not the program: it calls nothing
    from ``repro``, so no change to the program moves it.  The box this
    benchmark runs on is shared, and its speed drifts by tens of percent
    over a minute; the kernel, timed between the workload's calls, drifts
    with it.
    """
    import numpy as np

    begin = time.perf_counter()
    total = 0
    for index in range(40_000):
        total += hash((index, index + 1)) & 7
    values = (np.arange(1 << 17, dtype=np.int64) * 7919) % 65521
    values.sort()
    return time.perf_counter() - begin


class CallLog:
    """Timed calls of an in-process workload, by kind and by cycle.

    A cycle makes one call of every kind, then times the reference
    kernel.  Every call of the cycle, and the cycle itself, is scaled by
    ``REFERENCE_SECONDS`` over that reference time, so a cycle run while
    the box was busy reads like one at its usual speed.  Rates come from
    the median scaled time of each kind and latency samples are scaled
    whole cycles, so the figures do not depend on the mix of kinds a
    run happened to end on.
    """

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        self.cycles: list[float] = []
        self.reference: list[float] = []
        self._pending: list[tuple[str, float]] = []

    def call(self, kind: str, function, *args, **kwargs):
        begin = time.perf_counter()
        result = function(*args, **kwargs)
        self._pending.append((kind, time.perf_counter() - begin))
        return result

    def end_cycle(self) -> None:
        reference = reference_seconds()
        self.reference.append(reference)
        scale = REFERENCE_SECONDS / reference
        for kind, elapsed in self._pending:
            self.times[kind].append(elapsed * scale)
        self.cycles.append(sum(elapsed for _, elapsed in self._pending)
                           * scale)
        self._pending = []

    @property
    def slowdown(self) -> float:
        """How much slower the box ran than its usual speed (1: usual)."""
        return median(self.reference) / REFERENCE_SECONDS

    def rate(self, work: dict[str, float]) -> float:
        """Units of work per second over one median call of each kind."""
        return sum(work.values()) / sum(median(self.times[kind])
                                        for kind in work)

    def latency_ms(self) -> tuple[float, float]:
        """Median and p99 of the cycle times, in ms."""
        return median(self.cycles) * 1e3, quantile(self.cycles, 0.99) * 1e3


def own_peak_rss_mib() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop_process(process: subprocess.Popen, timeout: float = 15.0) -> None:
    """Wait for a child to exit; terminate, then kill, if it will not."""
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.terminate()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def probe_setup(ctx: Context, workload: str) -> list[float]:
    """Cold set-up times of an in-process workload, one child each.

    Each child imports ``repro`` and builds the workload's state, then
    prints ``ready``; the sample is spawn to that line, so interpreter
    start and imports count, as they do for a user.
    """
    script = str(Path(__file__).with_name("setup_probe.py"))
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, script, workload, str(ctx.seed)],
            cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - started
        finally:
            child.stdout.close()
            stop_process(child)
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed: {line!r}, exit "
                f"{child.returncode}")
        samples.append(elapsed)
    return samples
