"""Measurement helpers of the end-to-end benchmark: statistics and layer clocks.

Everything here is independent of the ``repro`` package, so the statistics can
be tested against numpy and the clocks can wrap any callable.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

def percentile(values, q: float) -> float:
    """The ``q``-th percentile with numpy's default (linear) interpolation.

    Failed operations enter as ``inf``: they count as missing any latency
    limit, so they push the percentile up instead of being dropped.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    if frac == 0 or data[hi] == data[lo]:   # keeps inf * 0 out of the blend
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * frac


def window_totals(ends, weights, t0: float, seconds: float,
                  starts=None) -> list[float]:
    """Work done in each whole one-second window after ``t0``.

    Without ``starts`` each operation's weight counts at its end time (a
    request completing).  With ``starts`` each weight is spread evenly over
    ``[start, end]`` and every window takes the overlapping share, so slow
    operations (a 0.3 s pass, a 0.1 s step) give a smooth rate instead of a
    count that jumps by whole operations.  Throughput is the median of
    these totals, so a single host stall costs one window, not the figure.
    """
    n_windows = int(seconds)
    if n_windows < 1:
        raise ValueError("need at least one whole one-second window")
    totals = [0.0] * n_windows
    if starts is None:
        for end, weight in zip(ends, weights):
            k = math.floor(end - t0)
            if 0 <= k < n_windows:
                totals[k] += weight
    else:
        for start, end, weight in zip(starts, ends, weights):
            span = end - start
            if span <= 0:
                continue
            first = max(math.floor(start - t0), 0)
            last = min(math.floor(end - t0), n_windows - 1)
            for k in range(first, last + 1):
                lo = max(start, t0 + k)
                hi = min(end, t0 + k + 1)
                if hi > lo:
                    totals[k] += weight * (hi - lo) / span
    return totals


def host_probe_ms() -> dict[str, float]:
    """Median times of fixed pure-numpy loops: the host's speed right now.

    ``blas`` is ten float matrix products, ``int64`` ten elementwise passes
    over an int64 array of one layer's Winograd tiles (the integer
    pipeline's kind of work), and ``fault`` touches 16 MB of freshly mapped memory, the
    page faults a pass of the integer pipeline pays on every temporary it
    allocates.  A run whose host was slow for any of these shows here.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    tiles = rng.integers(-128, 128, size=(8, 16, 8, 8, 6, 6))
    out = np.empty_like(tiles)

    def blas():
        for _ in range(10):
            a @ a

    def int64():
        for _ in range(10):
            np.multiply(tiles, 3, out=out)
            np.right_shift(out, 2, out=out)

    def fault():
        with mmap.mmap(-1, 16 << 20) as region:
            view = np.frombuffer(region, dtype=np.int64)
            view[:] = 1
            del view

    times = {}
    for name, fn in (("blas", blas), ("int64", int64), ("fault", fault)):
        samples = []
        for _ in range(9):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        times[name] = percentile(samples, 50) * 1e3
    return times


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks since boot, where ``/proc/stat`` exists.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work: the host contention that timings alone cannot show.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_pct(before, after) -> float | None:
    """Share of CPU time stolen between two :func:`cpu_ticks` readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


class LayerClock:
    """Calls, total time and self time per layer, timed around public calls.

    :meth:`wrap` returns a drop-in replacement for a function.  Nested
    wrapped calls on the same thread are subtracted from their caller's
    self time, so self times never double count.  ``work`` optionally maps
    a call's arguments to a work amount (MACs, say), accumulated per layer.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                amount = work(*args, **kwargs) if work is not None else 0.0
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - children
                    self.work[name] += amount
        return timed

    def snapshot(self) -> dict[str, "LayerTime"]:
        """Every layer's running totals at this instant."""
        with self._lock:
            return {name: LayerTime(self.calls[name], self.total[name],
                                    self.self_time[name], self.work[name])
                    for name in self.calls}


class LayerTime(NamedTuple):
    """One layer's calls, total and self seconds, and work done."""

    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0
    work: float = 0.0

    def __add__(self, other: "LayerTime") -> "LayerTime":
        return LayerTime(*(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "LayerTime") -> "LayerTime":
        return LayerTime(*(a - b for a, b in zip(self, other)))


def delta(after: dict, before: dict) -> dict:
    """Per-layer difference of two :meth:`LayerClock.snapshot` results."""
    return {name: now - before.get(name, LayerTime())
            for name, now in after.items()
            if now.calls > before.get(name, LayerTime()).calls}


def sum_layers(snapshots) -> dict:
    """Per-layer sum of several :func:`delta` results."""
    out: dict[str, LayerTime] = {}
    for layers in snapshots:
        for name, value in layers.items():
            out[name] = out.get(name, LayerTime()) + value
    return out
