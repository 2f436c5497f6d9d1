"""Proportional Share Model (Eq. 1) and VM maintenance overhead.

Under PSM, a node running tasks with expectation vectors ``e_1..e_s`` grants
task ``j`` the share

    r_j = e_j / l · c        where  l = Σ_j e_j   (componentwise)

so shares scale the full capacity proportionally to expectations: when the
node is under-subscribed (``l ⪯ c``) every task receives *more* than it
asked for (the paper's worked example: 13.5 GFlops split 2:3:4 across tasks
expecting 9 total); when over-subscribed, everyone is squeezed below its
expectation — this is exactly the contention failure mode of §I.  The
host engine grants these shares at every scheduling point, as one
``share = c / l`` vector per host (:meth:`repro.cloud.engine.HostEngine.
_reschedule`); this module holds the overhead model it applies first.

Capacity is first reduced by the per-VM maintenance cost measured in [5] and
quoted in §IV-A: 5 % CPU, 10 % I/O, 5 % network per VM instance, plus a flat
5 MB of memory per VM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VMOverhead",
    "effective_capacity_batch",
]


@dataclass(frozen=True, slots=True)
class VMOverhead:
    """Per-VM-instance capacity losses (fractions of total capacity plus a
    flat amount, per dimension in canonical order cpu/io/net/disk/mem)."""

    fractions: tuple[float, ...] = (0.05, 0.10, 0.05, 0.0, 0.0)
    flat: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 5.0)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.fractions, dtype=np.float64),
            np.asarray(self.flat, dtype=np.float64),
        )


#: Paper defaults (§IV-A).
DEFAULT_OVERHEAD = VMOverhead()


def effective_capacity_batch(
    capacities: np.ndarray,
    n_vms: np.ndarray,
    overhead: VMOverhead = DEFAULT_OVERHEAD,
) -> np.ndarray:
    """Capacity remaining for task work with ``n_vms[i]`` VM instances
    resident on host ``i``: ``(H, d)`` capacities and a per-host VM-count
    vector in, ``(H, d)`` effective capacities out.

    Clamped at zero: a node hosting 20 VMs at 5 % CPU overhead apiece has no
    CPU left for work, it does not go negative.  Row ``i`` equals the
    seed's scalar form (``tests.oracles.effective_capacity``) bit-for-bit:
    the same elementwise arithmetic, just broadcast."""
    frac, flat = overhead.arrays()
    n = np.asarray(n_vms, dtype=np.float64)[:, None]
    eff = np.asarray(capacities, dtype=np.float64) * (1.0 - frac * n) - flat * n
    return np.maximum(eff, 0.0, out=eff)
