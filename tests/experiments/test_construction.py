"""The construction contract: what a cell's set-up builds — zones,
neighbor sets, edge directions, pointer tables, LANs, bandwidths,
machines — is pinned, section by section, to digests recorded from the
commit before set-up was made linear (PR 14).  Any change that reorders
or adds a set-up RNG draw, or rewires an edge differently, moves a
digest.  The same cells built on the scalar
:class:`~tests.oracles.ReferenceCANOverlay`, swapped in where every CAN
protocol builds its overlay, must digest alike.  The cells and the
re-record command live in ``tests/experiments/construction.py``.
"""

import pytest

from repro.core import protocol as protocol_mod
from repro.experiments.runner import SOCSimulation
from tests.experiments.construction import (
    CHURNED_CELL,
    build_churned_cell,
    construction_cell,
    recorded_digests,
)
from tests.oracles import ReferenceCANOverlay, construction_digest

RECORDED = recorded_digests()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_500_node_cell_matches_recorded_digest(seed, monkeypatch):
    sim = SOCSimulation(construction_cell(500, seed))
    digest = construction_digest(sim)
    assert digest == RECORDED[f"n500-seed{seed}"]
    sim.protocol.overlay.check_invariants()  # buckets vs directions vs brute force
    monkeypatch.setattr(protocol_mod, "CANOverlay", ReferenceCANOverlay)
    reference = SOCSimulation(construction_cell(500, seed))
    assert construction_digest(reference) == digest


def test_churned_cell_matches_recorded_digest(monkeypatch):
    """60+ leave/join pairs through the running simulation: overlay
    takeovers, LAN slots freed and refilled, fresh machines, refreshed
    tables and every protocol-stream draw in between (the NINode pick
    included) must replay exactly."""
    sim = build_churned_cell()
    assert sim._next_node_id - sim.config.n_nodes >= 60
    digest = construction_digest(sim)
    assert digest == RECORDED[CHURNED_CELL]
    sim.protocol.overlay.check_invariants()
    monkeypatch.setattr(protocol_mod, "CANOverlay", ReferenceCANOverlay)
    assert construction_digest(build_churned_cell()) == digest
