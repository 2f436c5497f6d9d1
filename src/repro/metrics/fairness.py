"""Jain's fairness index (Eq. 4 of the paper, after [28]).

    ϕ = (Σ e_ij)² / (m · Σ e_ij²)

over the execution efficiencies ``e_ij`` of finished tasks, where the
efficiency is the task's *expected* execution time (estimated from its load
and the system-wide average capacity) divided by its *real* completion span.
ϕ ∈ (0, 1]; 1 means all tasks were treated equally.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["jain_index", "EfficiencyAccumulator"]


def jain_index(efficiencies: Sequence[float]) -> float:
    """Jain's index of the given efficiency samples; NaN for no samples."""
    e = np.asarray(efficiencies, dtype=np.float64)
    if e.size == 0:
        return float("nan")
    if bool(np.any(e < 0)):
        raise ValueError("efficiencies must be non-negative")
    denom = e.size * float(np.sum(e * e))
    if denom == 0:
        return float("nan")
    return float(np.sum(e)) ** 2 / denom


class EfficiencyAccumulator:
    """Execution efficiencies of finished tasks, accumulated in bulk.

    A task's efficiency ``e_ij`` is its expected execution time — its work
    over the system-wide mean capacity, the slowest work dimension
    deciding (§IV-A) — over its actual submit→finish span.  The
    mean-capacity work rates are folded in once at construction, each
    observation is pure scalar arithmetic, and samples land in an
    amortized-doubling float64 buffer whose live view feeds
    :func:`jain_index` directly (Eq. 4) with no list round-trip.
    """

    def __init__(self, mean_work_rates: Sequence[float]):
        self._rates = [float(r) for r in mean_work_rates]
        if any(r <= 0 for r in self._rates):
            raise ValueError("mean work rates must be positive")
        self._buf = np.empty(256, dtype=np.float64)
        self._n = 0

    def observe(self, work: Sequence[float], submit_time: float, finish_time: float) -> float:
        """Record one finished task given its work vector (the work dims of
        ``e(t) · T_nominal``) and its submit→finish span; returns the
        efficiency sample ``e_ij`` = expected / actual completion span."""
        actual = finish_time - submit_time
        if actual <= 0:
            eff = 1.0
        else:
            expected = max(float(w) / r for w, r in zip(work, self._rates))
            eff = expected / actual
        if self._n >= self._buf.size:
            grown = np.empty(2 * self._buf.size, dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = eff
        self._n += 1
        return eff

    def values(self) -> np.ndarray:
        """Live view of all samples so far (do not mutate)."""
        return self._buf[: self._n]
