"""Machine-drift calibration: a fixed kernel timed next to every region.

A shared 2-core sandbox does not run the same Python at the same speed
twice: the identical deterministic 2000-node cell costs 17-40 % more CPU
seconds when a neighbour is busy (frequency, cache and memory-bandwidth
contention all show up as *CPU* time, not as waiting).  The kernel below
runs before, between and after the timed regions of a repeat; a region's
CPU seconds are multiplied by ``CALIB_REF_S / mean(adjacent kernel
times)``, which turns them into **normalised seconds** — what the region
would have cost while the machine ran the kernel in ``CALIB_REF_S``.

The kernel mixes the three kinds of work the simulator does, roughly in
the simulator's own proportions, because each slows down differently
under contention:

- interpreter: ``heapq`` push/pop of event-like tuples and dict
  insert/pop (the event loop, ``DeliveryCalendar`` batches, id maps);
- small numpy: gap / argmin / boolean-mask kernels over ``(512, 5)``
  float64 blocks (routing candidate blocks, ``StateCache`` scans), where
  per-call dispatch overhead dominates;
- memory: a strided gather over a 32 MB array (SoA state far larger
  than the last-level cache share a neighbour leaves us).

Everything is generated once from a fixed seed, so every call does the
same work and returns the same checksum.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

__all__ = ["CALIB_REF_S", "Calibrator", "normalise"]

#: CPU seconds one :meth:`Calibrator.run` takes on the reference machine
#: state (quiet 2-core sandbox, CPython 3.11, numpy 2.x).  Only a unit:
#: changing it rescales every host metric of every workload alike, so two
#: result files are comparable only when they carry the same value.
CALIB_REF_S = 0.060

_HEAP_EVENTS = 24_000
_DICT_KEYS = 60_000
_BLOCK_ROUNDS = 440
_BIG_ELEMENTS = 4 * 1024 * 1024  # float64 -> 32 MB
_GATHER_ROUNDS = 4
_GATHER_SIZE = 65_536


class Calibrator:
    """The fixed calibration kernel.  Build one per process (it owns the
    32 MB gather array), call :meth:`run` around each timed region."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20110913)
        self._times = rng.random(_HEAP_EVENTS).tolist()
        self._keys = rng.integers(0, 1 << 40, size=_DICT_KEYS).tolist()
        self._lo = rng.random((512, 5))
        self._hi = self._lo + 0.05 * rng.random((512, 5))
        self._points = rng.random((_BLOCK_ROUNDS, 5))
        self._big = rng.random(_BIG_ELEMENTS)
        # A large odd stride walks the whole array with no two consecutive
        # reads on one cache line or one page.
        self._gather = [
            ((np.arange(_GATHER_SIZE, dtype=np.int64) * 104_729 + r * 7_919)
             % _BIG_ELEMENTS)
            for r in range(_GATHER_ROUNDS)
        ]
        self.checksum: float | None = None

    def run(self) -> float:
        """Run the kernel once; returns the CPU seconds it took.

        The collector is off meanwhile: the kernel allocates, and a
        collection it triggered would walk the simulator's live objects
        and bill the kernel for the size of someone else's heap."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time()
            acc = self._work()
            elapsed = time.process_time() - started
        finally:
            if collecting:
                gc.enable()
        if self.checksum is None:
            self.checksum = acc
        elif acc != self.checksum:
            raise RuntimeError("calibration kernel is not deterministic")
        return elapsed

    def _work(self) -> float:
        acc = 0.0

        heap: list[tuple[float, int, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        for seq, when in enumerate(self._times):
            push(heap, (when, seq & 3, seq))
            if seq & 1:
                acc += pop(heap)[0]
        while heap:
            acc += pop(heap)[0]

        table: dict[int, int] = {}
        for i, key in enumerate(self._keys):
            table[key] = i
        for key in self._keys:
            acc += table.pop(key)

        lo, hi = self._lo, self._hi
        for p in self._points:
            gap = np.clip(p, lo, hi)
            np.subtract(gap, p, out=gap)
            np.multiply(gap, gap, out=gap)
            dist = gap.sum(axis=1)
            acc += float(dist[int(dist.argmin())])
            mask = (hi >= p - 1e-9).all(axis=1)
            acc += float(np.flatnonzero(mask).size)

        big = self._big
        for idx in self._gather:
            acc += float(big[idx].sum())
        return acc


def normalise(cpu_seconds: float, calib_before: float, calib_after: float) -> float:
    """``cpu_seconds`` of a region in normalised seconds, given the kernel
    times measured just before and just after it."""
    return cpu_seconds * CALIB_REF_S / (0.5 * (calib_before + calib_after))
