"""Clocks, percentiles, process accounting and run context."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import NamedTuple

_TICK = os.sysconf("SC_CLK_TCK")


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return float(sorted_values[rank])


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness figure BENCHMARK.json's bounds are set from."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def self_cpu_s() -> float:
    """user+sys of this process, all threads."""
    return time.process_time()


def child_cpu_s(pid: int) -> float:
    """user+sys of a live child, from /proc (os.times() only sees
    children that were already reaped)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def files_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


#: a window's own p99 is used only when it has this many samples
TAIL_SAMPLES = 1000


class Window(NamedTuple):
    ops: int
    seconds: float
    #: user+sys of the generator and its children over the window
    cpu_s: float
    #: read / write latency samples taken by the time the window ended
    reads_end: int
    writes_end: int


class Section:
    """One timed section of a workload: fixed-size windows plus the
    latency samples and failure count its ops produced.

    Every figure is made robust to a stall that hits some windows but not
    most: throughput and CPU per op are the median window's; p50 pools all
    windows; p99 is the median of the windows' own p99 where a window has
    TAIL_SAMPLES samples of that kind, and the pooled p99 otherwise (few
    samples per window say little about a tail).
    """

    def __init__(self) -> None:
        self.windows: list[Window] = []
        # arrays, not lists: nothing for the garbage collector to walk
        self.read_ns = array("q")
        self.write_ns = array("q")
        self.attempted = 0
        self.failed = 0
        #: key+value bytes handed to the program by writes
        self.user_bytes = 0
        # filled in by the harness around the windows
        self.cpu_self_s = self.cpu_children_s = 0.0
        self.counters_before: dict = {}
        self.counters_after: dict = {}
        self.spans: dict = {}

    def add_window(self, ops: int, seconds: float, cpu_s: float) -> None:
        self.windows.append(
            Window(ops, seconds, cpu_s, len(self.read_ns), len(self.write_ns))
        )

    @property
    def ops(self) -> int:
        return sum(w.ops for w in self.windows)

    @property
    def wall_s(self) -> float:
        return sum(w.seconds for w in self.windows)

    def rates(self) -> list[float]:
        return [w.ops / w.seconds for w in self.windows]

    def ops_per_s(self) -> float:
        return statistics.median(self.rates())

    def cpu_ms_per_kop(self) -> float:
        return statistics.median(w.cpu_s / w.ops for w in self.windows) * 1e6

    def window_spread(self) -> float:
        return spread(self.rates())

    def _tail_us(self, samples, ends: list[int]) -> float:
        starts = [0] + ends[:-1]
        if min(e - s for s, e in zip(starts, ends)) >= TAIL_SAMPLES:
            return statistics.median(
                percentile(sorted(samples[s:e]), 0.99) for s, e in zip(starts, ends)
            ) / 1e3
        return percentile(sorted(samples), 0.99) / 1e3

    def latency_us(self) -> dict[str, float]:
        out = {}
        for kind, samples, ends in (
            ("read", self.read_ns, [w.reads_end for w in self.windows]),
            ("write", self.write_ns, [w.writes_end for w in self.windows]),
        ):
            out[f"{kind}_p50_us"] = percentile(sorted(samples), 0.50) / 1e3
            out[f"{kind}_p99_us"] = self._tail_us(samples, ends)
        return out


def _fs_type(path: str) -> str:
    best, fstype = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mnt, typ = line.split()[:3]
                if path.startswith(mnt) and len(mnt) > len(best):
                    best, fstype = mnt, typ
    except OSError:
        pass
    return fstype


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def context(root: str, seed: int, scale: float, seconds: float) -> dict:
    """What a reader needs to place a result file: machine, code, inputs."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_commit": _git_commit(root),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "tmp_fs": _fs_type(root),  # scratch files live inside the checkout
        "clock": time.get_clock_info("perf_counter").implementation,
    }
