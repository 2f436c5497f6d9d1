"""Discrete-event simulation kernel.

A small, deterministic, single-threaded event engine that stands in for the
Peersim simulator used by the paper.  Messages between overlay nodes are
modelled with a LAN/WAN latency + bandwidth delay model; multi-hop overlay
routes are computed in-process and charged per-hop to the traffic meter, so
the event volume stays proportional to protocol-level messages rather than
physical hops.
"""

from repro.sim.engine import CohortTimer, Simulator, next_grid_index
from repro.sim.events import Event
from repro.sim.network import NetworkModel, NetworkParams
from repro.sim.rng import RngRegistry
from repro.sim.stats import TimeSeries

__all__ = [
    "Simulator",
    "CohortTimer",
    "next_grid_index",
    "Event",
    "NetworkModel",
    "NetworkParams",
    "RngRegistry",
    "TimeSeries",
]
