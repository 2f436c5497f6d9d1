"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.can import routing
from repro.can.overlay import CANOverlay
from repro.sim import rng as rng_mod
from repro.sim.rng import RngRegistry
from repro.sim.rows import RowTable


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def rng(rngs: RngRegistry) -> np.random.Generator:
    return rngs.stream("test")


def seeds_and_floors(seeds) -> list:
    """``(seed, floor)`` cases for a lockstep suite: every seed at the
    stock compaction floor (``None``, under the plain seed id), then at a
    floor of 2, where a :class:`~repro.sim.rows.RowTable` store compacts
    on nearly every removal."""
    seeds = list(seeds)
    return [pytest.param(seed, None, id=str(seed)) for seed in seeds] + [
        pytest.param(seed, 2, id=f"{seed}-floor2") for seed in seeds
    ]


def set_compact_floor(monkeypatch, floor) -> None:
    """Lower every row table's compaction floor to ``floor`` for one test
    (``None`` keeps the stock floor)."""
    if floor is not None:
        monkeypatch.setattr(RowTable, "COMPACT_FLOOR", floor)


def make_overlay(n: int, dims: int, seed: int = 0) -> CANOverlay:
    """A bootstrapped overlay with node ids 0..n-1."""
    overlay = CANOverlay(dims, np.random.default_rng(seed))
    overlay.bootstrap(range(n))
    return overlay


def live_events(sim) -> int:
    """The simulator heap's live entries: every posted entry
    ``(time, seq, fn, args)``, and every cancellable one ``(time, seq,
    event, None)`` whose event is not cancelled."""
    return sum(1 for _, _, fn, args in sim._heap if args is not None or not fn.cancelled)


def zone_center(zone) -> np.ndarray:
    return (zone.lo + zone.hi) / 2.0


def is_negative_direction_of(b, a) -> bool:
    """§III-A: zone ``b`` is a negative-direction node of zone ``a`` iff on
    every dimension b's range overlaps a's or lies entirely below it —
    the scalar definition the vectorized overlay is checked against."""
    return bool((b.lo < a.hi).all())


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


#: The drawing methods of ``numpy.random.Generator`` a cell could call.
_DRAW_METHODS = (
    "integers", "random", "uniform", "exponential", "choice", "permutation",
    "shuffle", "normal", "standard_normal", "standard_exponential", "pareto",
    "zipf", "poisson", "binomial", "beta", "gamma",
)


class _CountingGenerator(np.random.Generator):
    """A generator that counts calls of its drawing methods."""

    calls = 0


def _counted(name):
    def method(self, *args, **kwargs):
        self.calls += 1
        return getattr(np.random.Generator, name)(self, *args, **kwargs)

    return method


for _name in _DRAW_METHODS:
    setattr(_CountingGenerator, _name, _counted(_name))


def count_generator_calls(monkeypatch) -> None:
    """Every :class:`~repro.sim.rng.RngRegistry` stream made from here on
    counts the calls of its drawing methods in ``.calls``; scalar index
    and distinct draws go through those numpy methods, one call each,
    instead of straight to the bit generator."""

    def stream(self, name):
        gen = self._streams.get(name)
        if gen is None:
            seed = rng_mod.derive_seed(self.master_seed, name)
            gen = self._streams[name] = _CountingGenerator(np.random.PCG64(seed))
        return gen

    monkeypatch.setattr(RngRegistry, "stream", stream)
    monkeypatch.setattr(rng_mod, "_LEMIRE_MATCHES", False)
    monkeypatch.setattr(rng_mod, "_FLOYD_MATCHES", False)
