"""Sandbox harness for driving the protocol without the SOC runner.

:class:`ProtocolSandbox` wires a bootstrapped INSCAN overlay to a live
:class:`~repro.core.context.ProtocolContext` — simulator, network model,
traffic meter, controllable availability and membership — without the full
SOC runner.  It is what the unit tests, the examples and interactive
exploration use to drive Algorithms 1-5 one step at a time::

    sandbox = ProtocolSandbox(n=64, dims=2, seed=7)
    sandbox.plant_record(holder, owner=99, availability=[0.8, 0.9])
    engine = QueryEngine(sandbox.ctx, sandbox.overlay, sandbox.tables,
                         sandbox.caches, sandbox.pilists, QueryParams())

A node leaves the sandbox's membership with ``sandbox.dead.add(node_id)``:
messages to it are dropped from then on.  The seed's scalar equivalence
oracles live test-side, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.can.inscan import build_index_table
from repro.can.overlay import CANOverlay
from repro.core.context import ProtocolContext
from repro.core.pilist import PIList
from repro.core.state import StateCache, StateRecord
from repro.metrics.traffic import TrafficMeter
from repro.sim.engine import Simulator
from repro.sim.network import NetworkModel, NetworkParams

__all__ = ["ProtocolSandbox"]


class ProtocolSandbox:
    """Overlay + context + per-node protocol state, minus the SOC runner."""

    def __init__(
        self,
        n: int = 32,
        dims: int = 2,
        seed: int = 0,
        cmax: np.ndarray | None = None,
        state_ttl: float = 600.0,
        pilist_ttl: float = 1200.0,
    ):
        self.sim = Simulator()
        rng = np.random.default_rng(seed)
        self.network = NetworkModel(NetworkParams(), np.random.default_rng(seed + 1))
        self.traffic = TrafficMeter()
        self.dead: set[int] = set()
        self.availability: dict[int, np.ndarray] = {}
        self.cmax = np.ones(dims) if cmax is None else np.asarray(cmax, float)

        self.overlay = CANOverlay(dims, rng)
        self.overlay.bootstrap(range(n))
        for node_id in range(n):
            self.network.add_node(node_id)
            self.availability[node_id] = np.zeros(dims)

        self.ctx = ProtocolContext(
            sim=self.sim,
            network=self.network,
            traffic=self.traffic,
            rng=np.random.default_rng(seed + 2),
            cmax=self.cmax,
            availability_of=lambda i: self.availability[i],
            is_alive=lambda i: i not in self.dead,
        )
        self.tables = {
            i: build_index_table(self.overlay, i, np.random.default_rng(seed + 3))
            for i in self.overlay.node_ids()
        }
        self.caches = {i: StateCache(state_ttl) for i in self.overlay.node_ids()}
        self.pilists = {i: PIList(pilist_ttl) for i in self.overlay.node_ids()}

    # ------------------------------------------------------------------
    def plant_record(
        self, holder: int, owner: int, availability, ts: float = 0.0
    ) -> StateRecord:
        """Put a state record for ``owner`` into ``holder``'s cache γ."""
        rec = StateRecord(owner, np.asarray(availability, float), ts)
        self.caches[holder].put(rec)
        return rec

    def duty_of(self, point) -> int:
        """The duty node whose zone encloses ``point``."""
        return self.overlay.owner_of(np.asarray(point, float))
