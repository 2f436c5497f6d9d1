"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.can import routing
from repro.can.overlay import CANOverlay
from repro.sim.rng import RngRegistry


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def rng(rngs: RngRegistry) -> np.random.Generator:
    return rngs.stream("test")


def make_overlay(n: int, dims: int, seed: int = 0) -> CANOverlay:
    """A bootstrapped overlay with node ids 0..n-1."""
    overlay = CANOverlay(dims, np.random.default_rng(seed))
    overlay.bootstrap(range(n))
    return overlay


def assert_no_dead_storage(pool, overlay: CANOverlay) -> None:
    """A routing pool holds one block per member at most, and no id
    outside those blocks: every block is its own array, not a window
    onto storage that superseded blocks would go on occupying."""
    assert len(pool.index) <= len(overlay)
    assert set(pool.index) <= set(overlay.nodes)
    blocks = [entry[0] for entry in pool.index.values()]
    held = sum((ids if ids.base is None else ids.base).size for ids in blocks)
    assert held == sum(map(len, blocks))


@pytest.fixture
def routing_spy(monkeypatch):
    """``kernel``: hop-kernel calls so far; ``hops``: the nodes whose hop
    went through the pool's scalar ``hop`` (the single router's loop,
    every repair and the batched router's narrow front; its lockstep
    rounds do not)."""
    log = SimpleNamespace(kernel=0, hops=[])
    kernel, hop = routing._box_accs, routing._RouteBlockPool.hop

    def counted_kernel(lo, hi, p):
        log.kernel += 1
        return kernel(lo, hi, p)

    def logged_hop(pool, node_id, pcol):
        log.hops.append(node_id)
        return hop(pool, node_id, pcol)

    monkeypatch.setattr(routing, "_box_accs", counted_kernel)
    monkeypatch.setattr(routing._RouteBlockPool, "hop", logged_hop)
    return log


@pytest.fixture
def overlay_2d() -> CANOverlay:
    return make_overlay(32, 2, seed=7)


@pytest.fixture
def overlay_5d() -> CANOverlay:
    return make_overlay(64, 5, seed=7)
