"""Host machine configurations (Table I of the paper).

Each participating host samples:

=====================  ==============================
# of processors        1, 2, 4, 8
rate per processor     1, 2, 2.4, 3.2  (units of 10 MI/s)
I/O speed              20, 40, 60, 80 MbPS
memory size            512, 1024, 2048, 4096 MB
disk size              20, 60, 120, 240 GB
network bandwidth      the host's LAN bandwidth, U(5, 10) Mbps
=====================  ==============================

The CPU capacity dimension is ``processors × rate`` (max 25.6), which is
exactly the upper bound of the task CPU demand range in Table II, so the
system-wide maximum capacity vector ``CMAX`` is known in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cloud.resources import ResourceVector
from repro.sim.rng import power_of_two_draws

__all__ = [
    "MachineConfig",
    "machine_of",
    "sample_machines",
    "CMAX",
    "CMAX_VECTOR",
]

_PROCESSORS = (1, 2, 4, 8)
_RATES = (1.0, 2.0, 2.4, 3.2)
_IO_SPEEDS = (20.0, 40.0, 60.0, 80.0)
_MEM_SIZES = (512.0, 1024.0, 2048.0, 4096.0)
_DISK_SIZES = (20.0, 60.0, 120.0, 240.0)
#: The pools in draw order: one draw per field, machine by machine.
_POOLS = (_PROCESSORS, _RATES, _IO_SPEEDS, _DISK_SIZES, _MEM_SIZES)
_POOL_TABLE = np.array(_POOLS, dtype=np.float64)

#: System-wide maximum capacity per dimension (cpu, io, net, disk, mem).
#: net = 10 Mbps is the top of the LAN bandwidth range.
CMAX_VECTOR = ResourceVector.of(cpu=25.6, io=80.0, net=10.0, disk=240.0, mem=4096.0)
CMAX = CMAX_VECTOR.values


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """One host's physical configuration."""

    processors: int
    rate_per_processor: float
    io_speed: float
    net_bandwidth_mbps: float
    disk_size: float
    memory_size: float

    @property
    def capacity(self) -> ResourceVector:
        """The capacity vector ``c_i`` of §II."""
        return ResourceVector.of(
            cpu=self.processors * self.rate_per_processor,
            io=self.io_speed,
            net=self.net_bandwidth_mbps,
            disk=self.disk_size,
            mem=self.memory_size,
        )


def machine_of(picks: Sequence[int], net_bandwidth_mbps: float) -> MachineConfig:
    """The configuration one row of :func:`sample_machines`' pool indexes
    names, on a host whose LAN bandwidth is ``net_bandwidth_mbps``."""
    p, r, io, disk, mem = (int(pick) for pick in picks)
    return MachineConfig(
        _PROCESSORS[p], _RATES[r], _IO_SPEEDS[io], float(net_bandwidth_mbps),
        _DISK_SIZES[disk], _MEM_SIZES[mem],
    )


def sample_machines(
    rng: np.random.Generator, net_bandwidths_mbps: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one Table-I configuration per LAN bandwidth entry:
    ``(picks, capacities)``.  Row ``i`` of the ``(H, 5)`` integer matrix
    ``picks`` holds host ``i``'s pool indexes in draw order (processors,
    rate, io, disk, mem; :func:`machine_of` turns a row back into a
    :class:`MachineConfig`), and row ``i`` of the ``(H, 5)`` float matrix
    ``capacities`` is that machine's ``capacity`` — the batch form feeding
    :meth:`repro.cloud.engine.HostEngine.add_hosts`.

    ``net_bandwidths_mbps`` come from the network model (each host's
    LAN), keeping the capacity dimension consistent with the
    transfer-delay model.  Each field is one bounded integer draw
    indexing its pool, machine by machine in field order — the draw
    ``Generator.choice`` makes on the pool.  Every pool has four
    entries, a power of two, so the draws come from one
    :func:`repro.sim.rng.power_of_two_draws` call (``tests/sim/test_rng.py``
    and ``tests/cloud/test_machine.py`` pin the stream identity).  A
    population is the same whether it was sampled one host at a time or
    in one batch.
    """
    bandwidths = [float(bw) for bw in net_bandwidths_mbps]
    rows = power_of_two_draws(
        rng, _POOL_TABLE.shape[1], len(_POOLS) * len(bandwidths)
    ).astype(np.uint8).reshape(-1, len(_POOLS))
    # The drawn values in pool order (processors, rate, io, disk, mem),
    # rearranged in place into capacity order (cpu, io, net, disk, mem).
    capacities = _POOL_TABLE[np.arange(len(_POOLS)), rows]
    capacities[:, 0] *= capacities[:, 1]
    capacities[:, 1] = capacities[:, 2]
    capacities[:, 2] = bandwidths
    return rows, capacities
