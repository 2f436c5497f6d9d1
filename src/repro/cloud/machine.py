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
from typing import Callable

import numpy as np

from repro.cloud.resources import ResourceVector
from repro.sim.rng import index_draw

__all__ = [
    "MachineConfig",
    "sample_machine",
    "sample_machines",
    "capacity_matrix",
    "CMAX",
    "CMAX_VECTOR",
]

_PROCESSORS = (1, 2, 4, 8)
_RATES = (1.0, 2.0, 2.4, 3.2)
_IO_SPEEDS = (20.0, 40.0, 60.0, 80.0)
_MEM_SIZES = (512.0, 1024.0, 2048.0, 4096.0)
_DISK_SIZES = (20.0, 60.0, 120.0, 240.0)

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


def sample_machine(rng: np.random.Generator, net_bandwidth_mbps: float) -> MachineConfig:
    """Draw one Table-I configuration.

    ``net_bandwidth_mbps`` comes from the network model (the host's LAN),
    keeping the capacity dimension consistent with the transfer-delay model.

    Each field is one bounded integer draw indexing its pool — the same
    draw ``Generator.choice`` makes on the pool, made by
    :func:`repro.sim.rng.index_draw` without numpy's call overhead
    (``tests/sim/test_rng.py`` pins the stream identity).
    """
    return _sample(index_draw(rng), net_bandwidth_mbps)


def _sample(draw: Callable[[int], int], net_bandwidth_mbps: float) -> MachineConfig:
    return MachineConfig(
        processors=_PROCESSORS[draw(len(_PROCESSORS))],
        rate_per_processor=_RATES[draw(len(_RATES))],
        io_speed=_IO_SPEEDS[draw(len(_IO_SPEEDS))],
        net_bandwidth_mbps=float(net_bandwidth_mbps),
        disk_size=_DISK_SIZES[draw(len(_DISK_SIZES))],
        memory_size=_MEM_SIZES[draw(len(_MEM_SIZES))],
    )


def sample_machines(
    rng: np.random.Generator, net_bandwidths_mbps: list[float]
) -> list[MachineConfig]:
    """Draw one Table-I configuration per LAN bandwidth entry.

    Stream-compatible with repeated :func:`sample_machine` calls: the
    draws happen machine-by-machine in the exact same order, so a seeded
    population is identical whether it was sampled one host at a time
    (the seed runner) or in one batch (the host-engine runner).
    """
    draw = index_draw(rng)
    return [_sample(draw, bw) for bw in net_bandwidths_mbps]


def capacity_matrix(machines: list[MachineConfig]) -> np.ndarray:
    """``(H, 5)`` capacity vectors ``c_i``, one row per machine — the
    batch form feeding :meth:`repro.cloud.engine.HostEngine.add_hosts`."""
    return np.stack([m.capacity.values for m in machines])
