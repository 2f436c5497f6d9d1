"""User tasks and their demand model (Table II of the paper).

A task carries a *minimal demand* expectation vector ``e(t)`` sampled, for a
given demand ratio λ, uniformly from::

    cpu   ~ U(1·λ,   25.6·λ)        disk ~ U(20·λ, 240·λ)
    io    ~ U(20·λ,  80·λ)          mem  ~ U(512·λ, 4096·λ)
    net   ~ U(0.1·λ, 10·λ)

and a *nominal runtime* — the execution time the task achieves when granted
exactly its expectation on every work dimension.  Nominal runtimes are drawn
uniformly with mean 3000 s as stated in §IV-A.  The resulting work vector is
``w_k = e_k · T_nominal`` for the three work dimensions; under the
proportional-share model a task's actual per-dimension progress rate is its
allocated share, so completion time is ``max_k w_k / r_k`` integrated over
share changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cloud.resources import ResourceVector

__all__ = ["Task", "TaskFactory", "DEMAND_RANGES", "demand_bounds"]

#: (low, high) multipliers applied to the demand ratio λ, per dimension.
DEMAND_RANGES: dict[str, tuple[float, float]] = {
    "cpu": (1.0, 25.6),
    "io": (20.0, 80.0),
    "net": (0.1, 10.0),
    "disk": (20.0, 240.0),
    "mem": (512.0, 4096.0),
}

_LOWS = np.array([DEMAND_RANGES[d][0] for d in ("cpu", "io", "net", "disk", "mem")])
_HIGHS = np.array([DEMAND_RANGES[d][1] for d in ("cpu", "io", "net", "disk", "mem")])

#: Work is carried by the first three dimensions (cpu, io, net).
N_WORK_DIMS = 3


@dataclass(slots=True)
class Task:
    """One user task ``t_ij`` and its lifecycle bookkeeping."""

    task_id: int
    origin: int
    demand: ResourceVector
    nominal_time: float
    submit_time: float

    # lifecycle --------------------------------------------------------
    placed_node: Optional[int] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    failed: bool = False
    query_messages: int = 0
    #: Remaining work on (cpu, io, net); initialized from demand × nominal.
    remaining_work: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.remaining_work is None:
            self.remaining_work = (
                self.demand.values[:N_WORK_DIMS] * self.nominal_time
            ).copy()

    # ------------------------------------------------------------------
    @property
    def expectation(self) -> np.ndarray:
        """``e(t)`` as a raw array (alias used by hot paths)."""
        return self.demand.values

    @property
    def work(self) -> np.ndarray:
        """Total work on the three work dimensions."""
        return self.demand.values[:N_WORK_DIMS] * self.nominal_time


class TaskFactory:
    """Samples Table-II tasks for a fixed demand ratio λ."""

    def __init__(
        self,
        demand_ratio: float,
        rng: np.random.Generator,
        mean_nominal_time: float = 3000.0,
    ):
        if not 0 < demand_ratio <= 1:
            raise ValueError(f"demand ratio must be in (0, 1], got {demand_ratio}")
        self.demand_ratio = float(demand_ratio)
        self.mean_nominal_time = float(mean_nominal_time)
        self._rng = rng
        self._next_id = 0
        self._lo, self._hi = demand_bounds(self.demand_ratio)
        self._span = self._hi - self._lo

    def sample_demand(self) -> ResourceVector:
        """One expectation vector ``e(t)``; always dominated by λ·CMAX.

        ``lo + (hi − lo)·U[0, 1)`` is what ``rng.uniform(lo, hi)`` computes
        per element from the same five doubles, so values and stream match
        it draw for draw, without its argument handling."""
        return ResourceVector(self._lo + self._span * self._rng.random(5))

    def sample_nominal_time(self) -> float:
        """Uniform on [0.2, 1.8]×mean — keeps the stated 3000 s average
        while giving the heterogeneous runtimes the evaluation relies on."""
        return float(
            self._rng.uniform(0.2 * self.mean_nominal_time, 1.8 * self.mean_nominal_time)
        )

    def create(self, origin: int, submit_time: float) -> Task:
        task = Task(
            task_id=self._next_id,
            origin=origin,
            demand=self.sample_demand(),
            nominal_time=self.sample_nominal_time(),
            submit_time=submit_time,
        )
        self._next_id += 1
        return task


def demand_bounds(demand_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """The Table-II demand box ``(lo, hi)`` at ratio λ (fresh copies).

    The uniform sampler draws inside this box; the skewed workload
    (:class:`repro.cloud.workload.SkewedTaskFactory`) anchors its hot-range
    prototypes to it so skewed demands stay dominated by λ·CMAX too.
    """
    return _LOWS * demand_ratio, _HIGHS * demand_ratio
