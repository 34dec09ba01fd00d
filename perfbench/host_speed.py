"""The host's speed, sampled while an untraced run is measured.

A shared host runs the benchmark's thread at a speed that changes with
what the host's other tenants do: for tens of milliseconds at a time it
is about 1.7 times faster than usual, the share of fast time differs
from minute to minute, and the usual speed itself drifts by a tenth or
more over a few minutes. No statistic over one run's timings removes
that, so a run samples the speed as it goes.

Every ``SAMPLE_EVERY_S`` of process CPU time a profiling signal
interrupts the program, and the handler runs a fixed reference kernel
(``kernel``) twice and times the second run; the first warms the caches,
so a sample measures the host, not what the program was doing when it
was interrupted. The samples fall uniformly in CPU time, so their mean
kernel time over a window is the host's mean slowness over that window.
``clock`` leaves the handler's time out, so no span of the program
contains a sample.

A duration times ``scale`` of its window is the duration at the nominal
speed, the speed at which the kernel takes ``NOMINAL_KERNEL_S``. The
kernel runs no code of the package, so a change to the package moves
the scaled times as it moves the measured ones.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

SAMPLE_EVERY_S = 0.008
# The kernel's mean time on a 2-vCPU x86_64 KVM guest (Xeon, Python 3.11,
# numpy 2.4 with OpenBLAS, one thread), midway between the 0.17 ms and
# 0.35 ms it took there in different hours.
NOMINAL_KERNEL_S = 0.25e-3

_excluded_s = 0.0  # thread CPU time spent in the sampling handler


def clock() -> float:
    """CPU time of the calling thread, less the time spent sampling the host.

    The benchmark is single-threaded, so this is its wall time minus the
    time a shared host keeps it off the processor. A sample taken while
    the clock is read makes it read again.
    """
    while True:
        before = _excluded_s
        now = time.thread_time()
        if _excluded_s == before:
            return now - before


_rng = np.random.default_rng(0)
_W = [_rng.standard_normal((64, 64)) / 8.0 for _ in range(2)]
_X = _rng.standard_normal((16, 64))
_ROWS = _rng.integers(0, 16, 24)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def apply(self, x: int) -> int:
        return self.a * x + self.b


def kernel() -> tuple[np.ndarray, str]:
    """Numpy on small arrays and plain Python, both as varied as the package's.

    Few distinct operations in a tight loop track the host's speed less
    well than the package's code does, so the kernel mixes gates, a
    softmax, row gathers and scatters, concatenation and transposes with
    dicts, sorting, small objects and string building.
    """
    h = _X
    for w in _W:
        a = np.tanh(h @ w)
        g = 1.0 / (1.0 + np.exp(-a))
        h = g * a + (1.0 - g) * h
        e = np.exp(h - h.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        out = np.zeros_like(h)
        np.add.at(out, _ROWS, h[_ROWS])
        h = np.where(out > 0, out, 0.1 * out)
        h = np.concatenate([h[:, :32], p[:, 32:]], axis=1)
        h = np.stack([h.T[j] for j in range(0, 64, 8)], axis=1) @ w[:8]
    counts: dict[tuple[str, int], int] = {}
    total = 0
    for i in range(60):
        key = ("k", i % 17)
        counts[key] = counts.get(key, 0) + i
        total += _Cell(i, i % 5).apply(3)
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    return h, "".join(f"{name}{n}{total}" for (name, n), _ in ranked)


class HostSpeed:
    """Kernel times sampled in CPU time while `sampling` is active."""

    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each sample was taken
        self.kernel_s: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        global _excluded_s
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.thread_time()
        # The kernel makes no cycles; a collection it set off would scan
        # the program's objects and time the program's heap, not the host.
        collecting = gc.isenabled()
        gc.disable()
        kernel()  # warms the caches the program's own work left cold
        t1 = time.thread_time()
        kernel()
        t2 = time.thread_time()
        if collecting:
            gc.enable()
        self.at.append(t0 - _excluded_s)
        self.kernel_s.append(t2 - t1)
        _excluded_s += time.thread_time() - t0
        self._busy = False

    @contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, start: float, end: float) -> float:
        """Nominal over mean kernel time of the samples taken in [start, end).

        A window without samples takes the mean of every sample; a run
        without samples is left unscaled.
        """
        at, kernel_s = np.asarray(self.at), np.asarray(self.kernel_s)
        inside = kernel_s[(at >= start) & (at < end)]
        if inside.size == 0:
            inside = kernel_s
        return NOMINAL_KERNEL_S / inside.mean() if inside.size else 1.0
