"""Self-Organizing Cloud substrate.

Implements §II of the paper: host machines with multi-dimensional resource
capacities (Table I), user tasks with minimal-demand expectation vectors
(Table II), the proportional-share model (Eq. 1) with Xen-style per-VM
maintenance overhead, and the vectorized host-execution engine whose
piecewise constant shares drive actual completion times
(:mod:`repro.cloud.engine`; the seed's scalar per-host executor survives as
:class:`tests.oracles.ReferenceNodeExecutor`, the equivalence oracle).
"""

from repro.cloud.resources import (
    RESOURCE_DIMS,
    WORK_DIMS,
    ResourceVector,
    dominates,
)
from repro.cloud.machine import MachineConfig, machine_of, sample_machines, CMAX
from repro.cloud.tasks import Task, TaskFactory
from repro.cloud.workload import PoissonWorkload
from repro.cloud.psm import (
    effective_capacity_batch,
    VMOverhead,
)
from repro.cloud.engine import HostEngine
from repro.cloud.checkpoint import CheckpointStore, CheckpointSnapshot

__all__ = [
    "RESOURCE_DIMS",
    "WORK_DIMS",
    "ResourceVector",
    "dominates",
    "MachineConfig",
    "machine_of",
    "sample_machines",
    "CMAX",
    "Task",
    "TaskFactory",
    "PoissonWorkload",
    "effective_capacity_batch",
    "VMOverhead",
    "HostEngine",
    "CheckpointStore",
    "CheckpointSnapshot",
]
