"""Poisson task arrival process (§IV-A) and the skewed demand workload.

User requests are generated on each node by a Poisson process with mean
inter-arrival time 3000 s, so one simulated day on 2000 nodes yields about
2000 × 86400/3000 ≈ 57600 tasks, matching the paper's accounting.

The hot-range evaluation (docs/caching.md) additionally needs demand
*skew*: real clouds ask for a few popular resource shapes far more often
than the Table-II uniform box suggests.  :class:`SkewedTaskFactory`
replaces the uniform demand sampler with draws near Zipf-popular
prototype ranges of bounded-Pareto width, built on two standalone
inverse-CDF samplers (:class:`ZipfRankSampler`,
:class:`BoundedParetoSampler`).  Each sampler consumes exactly one
``rng.uniform()`` per draw, so the RNG stream is stable across refactors
— the property the workload stability tests pin.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cloud.resources import ResourceVector
from repro.cloud.tasks import Task, TaskFactory
from repro.sim.engine import Simulator, ceil_to_grid

__all__ = [
    "PoissonWorkload",
    "ZipfRankSampler",
    "BoundedParetoSampler",
    "SkewedTaskFactory",
]


class ZipfRankSampler:
    """Ranks ``0..k-1`` with probability ∝ ``(rank+1)^-s`` (Zipf's law).

    Inverse-CDF over the precomputed normalized weights: one
    ``rng.uniform()`` per draw, no rejection, so the consuming RNG stream
    position depends only on the number of draws.  ``s=0`` degenerates to
    the uniform distribution over ranks.
    """

    def __init__(self, s: float, k: int):
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s!r}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        self.s = float(s)
        self.k = int(k)
        weights = np.arange(1, k + 1, dtype=np.float64) ** -self.s
        self._cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator) -> int:
        u = rng.uniform()
        return min(int(np.searchsorted(self._cdf, u, side="right")), self.k - 1)


class BoundedParetoSampler:
    """Heavy-tailed values on ``[lo, hi]`` via the bounded Pareto
    distribution with shape ``alpha`` (inverse-CDF, one ``rng.uniform()``
    per draw).  Small values dominate; the tail up to ``hi`` stays fat
    enough that occasional draws span a large fraction of the range —
    the classic heavy-tailed width model for range queries."""

    def __init__(self, alpha: float, lo: float, hi: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha!r}")
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got {lo!r}, {hi!r}")
        self.alpha = float(alpha)
        self.lo = float(lo)
        self.hi = float(hi)
        self._la = lo**-self.alpha
        self._ha = hi**-self.alpha

    def draw(self, rng: np.random.Generator) -> float:
        u = rng.uniform()
        return float((self._la - u * (self._la - self._ha)) ** (-1.0 / self.alpha))


class SkewedTaskFactory(TaskFactory):
    """Table-II tasks with Zipf-skewed, heavy-tailed-width demand.

    ``hot_ranges`` prototype demand points are drawn once (uniform in the
    λ-scaled Table-II box).  Each task then picks a prototype with
    Zipf(s) popularity, a relative range width from a bounded Pareto, and
    jitters the prototype by ±width/2 of the box extent per dimension
    (clipped back into the box, so demands stay dominated by λ·CMAX and
    every scheduling invariant of the uniform workload holds).

    RNG discipline: ``__init__`` consumes one ``uniform(size=(k, 5))``
    block; every ``sample_demand`` consumes exactly three generator calls
    (rank, width, 5-wide jitter) — stable and cheap.  Nominal-time
    sampling is inherited untouched.
    """

    def __init__(
        self,
        demand_ratio: float,
        rng: np.random.Generator,
        mean_nominal_time: float = 3000.0,
        *,
        zipf_s: float = 1.0,
        hot_ranges: int = 64,
        width_alpha: float = 1.5,
        width_lo: float = 0.02,
        width_hi: float = 0.5,
    ):
        super().__init__(demand_ratio, rng, mean_nominal_time)
        self.zipf_s = float(zipf_s)
        self.hot_ranges = int(hot_ranges)
        self._rank_sampler = ZipfRankSampler(zipf_s, hot_ranges)
        self._width_sampler = BoundedParetoSampler(width_alpha, width_lo, width_hi)
        self._prototypes = rng.uniform(
            self._lo, self._hi, size=(self.hot_ranges, self._lo.shape[0])
        )

    def sample_demand(self) -> ResourceVector:
        rank = self._rank_sampler.draw(self._rng)
        width = self._width_sampler.draw(self._rng)
        jitter = self._rng.uniform(-0.5, 0.5, size=self._lo.shape[0])
        demand = self._prototypes[rank] + jitter * width * self._span
        # ``np.clip``'s values without its wrapper
        np.maximum(demand, self._lo, out=demand)
        return ResourceVector(np.minimum(demand, self._hi, out=demand))


class PoissonWorkload:
    """Schedules per-node Poisson task submissions onto a simulator."""

    def __init__(
        self,
        factory: TaskFactory,
        rng: np.random.Generator,
        mean_interarrival: float = 3000.0,
    ):
        self.factory = factory
        self.mean_interarrival = float(mean_interarrival)
        self._rng = rng
        self.generated = 0
        #: The arrival chains' fire callback, bound once so every node's
        #: heap entries share it.
        self._fire = self._fire_arrival

    def start_node(
        self,
        node_id: int,
        sim: Simulator,
        submit: Callable[[Task], None],
        is_alive: Callable[[int], bool],
        quantum: float = 0.0,
    ) -> None:
        """Begin the arrival process for ``node_id``: :meth:`start_nodes`
        for one node."""
        self.start_nodes([node_id], sim, submit, is_alive, quantum)

    def start_nodes(
        self,
        node_ids: Sequence[int],
        sim: Simulator,
        submit: Callable[[Task], None],
        is_alive: Callable[[int], bool],
        quantum: float = 0.0,
    ) -> None:
        """Begin the arrival process of every node, in order.

        Each first arrival is offset by a fresh exponential draw, so nodes
        are naturally staggered; the draws are made in one call, node by
        node, and the chains are posted in the same order.  A chain
        self-terminates once its node is no longer alive (churned out) —
        it simply stops re-arming.  It is one heap entry at a time whose
        callback is this workload's shared fire method and whose
        arguments carry the node id with its ``sim``, ``submit``,
        ``is_alive`` and ``quantum`` — no closure per node, so a caller
        that passes the same callables for every node adds one entry per
        node and nothing else.

        ``quantum`` > 0 rounds every fire time *up* onto the quantum grid
        (the exponential draws themselves are untouched, so the RNG stream
        position is quantum-independent).  Many nodes' arrivals then share
        delivery instants and the runner's arrival coalescing gets real
        batches instead of singletons.
        """
        offsets = self._rng.exponential(self.mean_interarrival, size=len(node_ids))
        for node_id, offset in zip(node_ids, offsets.tolist()):
            self._post(node_id, sim.now + offset, sim, submit, is_alive, quantum)

    def _post(
        self,
        node_id: int,
        target: float,
        sim: Simulator,
        submit: Callable[[Task], None],
        is_alive: Callable[[int], bool],
        quantum: float,
    ) -> None:
        if quantum > 0.0:
            target = ceil_to_grid(target, quantum)
        sim.post_at(target, self._fire, node_id, sim, submit, is_alive, quantum)

    def _fire_arrival(
        self,
        node_id: int,
        sim: Simulator,
        submit: Callable[[Task], None],
        is_alive: Callable[[int], bool],
        quantum: float,
    ) -> None:
        if not is_alive(node_id):
            return
        task = self.factory.create(node_id, sim.now)
        self.generated += 1
        submit(task)
        self._post(
            node_id, sim.now + self._rng.exponential(self.mean_interarrival),
            sim, submit, is_alive, quantum,
        )
