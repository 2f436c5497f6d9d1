"""Requester-side record selection — the "best-fit" of the paper's title.

A query returns up to δ qualified records; the requester picks one node to
host the task.  *Best-fit* minimizes the normalized slack between the
recorded availability and the demand, i.e. it picks the tightest qualifying
node and leaves large-capacity nodes free for large requests — the packing
rationale behind maximizing "best-fit resource shares" (§I).  First-fit,
worst-fit and random policies are provided for the ablation benches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.state import StateRecord
from repro.sim.rng import index_draw

__all__ = ["select_record", "SELECTION_POLICIES", "normalized_slack"]


def normalized_slack(
    record: StateRecord, demand: np.ndarray, cmax: np.ndarray
) -> float:
    """Mean per-dimension slack ``(a_k − e_k)/cmax_k``; ≥ 0 for qualified
    records, smaller = tighter fit."""
    slack = (record.availability - demand) / cmax
    # What ``np.mean`` computes, bit for bit, without its wrappers (this
    # is the key of every best-fit comparison: ~15 k calls per bench run).
    return float(np.add.reduce(slack) / slack.size)


def _best_fit(records, demand, cmax, rng):
    return min(
        records, key=lambda r: (normalized_slack(r, demand, cmax), r.owner)
    )


def _worst_fit(records, demand, cmax, rng):
    return max(
        records, key=lambda r: (normalized_slack(r, demand, cmax), -r.owner)
    )


def _first_fit(records, demand, cmax, rng):
    # Records accumulate in discovery order; first found = first fit.
    return records[0]


def _random_fit(records, demand, cmax, rng):
    return records[index_draw(rng)(len(records))]


SELECTION_POLICIES = {
    "best-fit": _best_fit,
    "worst-fit": _worst_fit,
    "first-fit": _first_fit,
    "random": _random_fit,
}


def select_record(
    records: Sequence[StateRecord],
    demand: np.ndarray,
    cmax: np.ndarray,
    rng: np.random.Generator,
    policy: str = "best-fit",
) -> StateRecord:
    """Pick the record to place the task on from a non-empty ``records``.

    Duplicate owners are collapsed to their freshest record before the
    policy is applied (an owner can be reported by several index nodes).
    """
    freshest: dict[int, StateRecord] = {}
    for rec in records:
        old = freshest.get(rec.owner)
        if old is None or old.timestamp < rec.timestamp:
            freshest[rec.owner] = rec
    unique = sorted(freshest.values(), key=lambda r: r.owner)
    try:
        chooser = SELECTION_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown selection policy {policy!r}; "
            f"expected one of {sorted(SELECTION_POLICIES)}"
        ) from None
    if policy == "first-fit":
        # preserve discovery order, not owner order
        order = []
        seen: set[int] = set()
        for rec in records:
            if rec.owner not in seen:
                seen.add(rec.owner)
                order.append(freshest[rec.owner])
        unique = order
    return chooser(unique, np.asarray(demand), np.asarray(cmax), rng)
