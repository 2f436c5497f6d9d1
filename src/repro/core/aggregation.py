"""Gossip-based aggregation (reference [23] of the paper).

§III-C notes that the system-wide upper-bound capacity ``cmax`` "can be
statistically aggregated using cached information" via the push-pull gossip
of Jelasity et al.  This module provides the round-based protocol for
the MAX aggregate (cmax itself).

Push-pull semantics per round: every node contacts one uniformly random
peer; both replace their estimates with ``max(mine, theirs)``.  MAX
converges exactly in O(log n) rounds w.h.p.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import index_draw

__all__ = ["gossip_aggregate", "AggregationResult"]


class AggregationResult:
    """Estimates after gossip plus the message bill."""

    def __init__(
        self, estimates: dict[int, np.ndarray], messages: int, rounds: int
    ):
        self.estimates = estimates
        self.messages = messages
        self.rounds = rounds

    def consensus(self) -> np.ndarray:
        """The (component-wise) median estimate across nodes."""
        stacked = np.stack(list(self.estimates.values()))
        return np.median(stacked, axis=0)


def gossip_aggregate(
    values: dict[int, np.ndarray],
    rng: np.random.Generator,
    rounds: int | None = None,
) -> AggregationResult:
    """Run push-pull MAX gossip over ``values`` (node id → local vector).

    ``rounds`` defaults to ``2·⌈log2 n⌉ + 2``, enough for MAX to converge
    exactly.
    """
    if not values:
        raise ValueError("no nodes to aggregate over")
    ids = sorted(values)
    n = len(ids)
    if rounds is None:
        rounds = 2 * int(np.ceil(np.log2(max(n, 2)))) + 2
    est = {i: np.asarray(values[i], dtype=np.float64).copy() for i in ids}

    messages = 0
    below = index_draw(rng)
    for _ in range(rounds):
        order = rng.permutation(n)
        for idx in order:
            a = ids[int(idx)]
            b = ids[below(n)]
            if a == b:
                continue
            messages += 2  # push + pull
            merged = np.maximum(est[a], est[b])
            est[a] = merged.copy()
            est[b] = merged
    return AggregationResult(est, messages, rounds)
