"""Unit tests for the Poisson workload generator and the skewed
(Zipf-popularity, heavy-tailed-width) demand samplers behind the
hot-range scenario (docs/caching.md)."""

import numpy as np
import pytest

from repro.cloud.tasks import TaskFactory, demand_bounds
from repro.cloud.workload import (
    BoundedParetoSampler,
    PoissonWorkload,
    SkewedTaskFactory,
    ZipfRankSampler,
)
from repro.sim.engine import Simulator


def make_workload(mean=100.0, seed=0):
    factory = TaskFactory(0.5, np.random.default_rng(seed))
    return PoissonWorkload(factory, np.random.default_rng(seed + 1), mean)


def test_arrival_count_matches_rate():
    sim = Simulator()
    wl = make_workload(mean=100.0)
    tasks = []
    for node in range(20):
        wl.start_node(node, sim, tasks.append, lambda n: True)
    sim.run(until=10_000.0)
    # 20 nodes × 10000/100 = 2000 expected arrivals; allow 4 sigma.
    assert abs(len(tasks) - 2000) < 4 * np.sqrt(2000)
    assert wl.generated == len(tasks)


def test_tasks_carry_origin_and_submit_time():
    sim = Simulator()
    wl = make_workload(mean=50.0)
    tasks = []
    wl.start_node(7, sim, tasks.append, lambda n: True)
    sim.run(until=1000.0)
    assert tasks
    for t in tasks:
        assert t.origin == 7
        assert 0 < t.submit_time <= 1000.0
    assert [t.submit_time for t in tasks] == sorted(t.submit_time for t in tasks)


def test_quantized_arrival_never_rounds_below_its_draw():
    """``ceil(x / q) * q`` names 0.9 for ``x = 0.9000000000000001`` at
    ``q = 0.1``; the arrival must still fire at or after ``x``."""
    sim = Simulator()
    wl = make_workload(mean=1e6)
    tasks = []
    wl._post(7, 0.9000000000000001, sim, tasks.append, lambda n: True, 0.1)
    sim.run(until=2.0)
    assert [t.submit_time for t in tasks] == [1.0]


def test_arrivals_stop_when_node_dies():
    sim = Simulator()
    wl = make_workload(mean=10.0)
    alive = {"up": True}
    tasks = []
    wl.start_node(0, sim, tasks.append, lambda n: alive["up"])
    sim.schedule(500.0, lambda: alive.__setitem__("up", False))
    sim.run(until=5000.0)
    assert tasks
    assert all(t.submit_time <= 500.0 for t in tasks)


def test_arrival_chains_are_heap_entries_sharing_one_callback():
    """Each node's arrival chain is one heap entry whose callback is the
    workload's shared fire method; the node id and the caller's
    callables ride in its args, before and after a re-arm."""
    sim = Simulator()
    wl = make_workload(mean=10.0)
    tasks = []
    always = lambda n: True  # noqa: E731
    for node in range(5):
        wl.start_node(node, sim, tasks.append, always)
    for _ in range(2):
        entries = [(fn, args) for _, _, fn, args in sim._heap]
        assert all(fn is wl._fire for fn, _ in entries)
        assert sorted(args[0] for _, args in entries) == list(range(5))
        assert all(args[2] == tasks.append and args[3] is always for _, args in entries)
        sim.run(until=sim.now + 50.0)
    assert tasks


def test_independent_nodes_have_different_arrivals():
    sim = Simulator()
    wl = make_workload(mean=100.0)
    times = {0: [], 1: []}
    wl.start_node(0, sim, lambda t: times[0].append(t.submit_time), lambda n: True)
    wl.start_node(1, sim, lambda t: times[1].append(t.submit_time), lambda n: True)
    sim.run(until=2000.0)
    assert times[0] != times[1]


# ----------------------------------------------------------------------
# Zipf / bounded-Pareto samplers
# ----------------------------------------------------------------------
def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfRankSampler(-0.1, 10)
    with pytest.raises(ValueError):
        ZipfRankSampler(1.0, 0)


def test_zipf_skews_toward_low_ranks():
    sampler = ZipfRankSampler(1.0, 64)
    rng = np.random.default_rng(0)
    draws = np.array([sampler.draw(rng) for _ in range(5000)])
    assert draws.min() >= 0 and draws.max() <= 63
    counts = np.bincount(draws, minlength=64)
    # Zipf s=1 over 64 ranks: rank 0 carries ~21% of the mass, the top
    # quarter ~70%.
    assert counts[0] > counts[16] > counts[-1]
    assert counts[:16].sum() > 0.6 * len(draws)


def test_zipf_s_zero_is_uniform():
    sampler = ZipfRankSampler(0.0, 8)
    rng = np.random.default_rng(1)
    draws = np.array([sampler.draw(rng) for _ in range(8000)])
    counts = np.bincount(draws, minlength=8)
    assert counts.min() > 800  # each rank ~1000 ± noise


def test_bounded_pareto_validation():
    with pytest.raises(ValueError):
        BoundedParetoSampler(0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        BoundedParetoSampler(1.5, 0.5, 0.1)


def test_bounded_pareto_range_and_tail():
    sampler = BoundedParetoSampler(1.5, 0.02, 0.5)
    rng = np.random.default_rng(2)
    draws = np.array([sampler.draw(rng) for _ in range(5000)])
    assert draws.min() >= 0.02 and draws.max() <= 0.5
    # Heavy-tailed: the median hugs the floor, yet the tail reaches deep.
    assert np.median(draws) < 0.05
    assert draws.max() > 0.3


def test_samplers_consume_one_uniform_per_draw():
    # The RNG-stream-stability contract: a draw advances the stream by
    # exactly one uniform, so sampler internals can change freely without
    # moving any downstream draw.
    r1 = np.random.default_rng(3)
    r2 = np.random.default_rng(3)
    ZipfRankSampler(1.0, 16).draw(r1)
    BoundedParetoSampler(1.5, 0.02, 0.5).draw(r1)
    r2.uniform()
    r2.uniform()
    assert r1.uniform() == r2.uniform()


# ----------------------------------------------------------------------
# SkewedTaskFactory
# ----------------------------------------------------------------------
def test_skewed_demands_stay_in_table_ii_box():
    factory = SkewedTaskFactory(0.5, np.random.default_rng(4))
    lo, hi = demand_bounds(0.5)
    for _ in range(200):
        demand = factory.sample_demand().values
        assert np.all(demand >= lo - 1e-12) and np.all(demand <= hi + 1e-12)


def test_skewed_demands_cluster_on_hot_prototypes():
    factory = SkewedTaskFactory(
        0.5, np.random.default_rng(5), zipf_s=1.2, hot_ranges=8
    )
    lo, hi = demand_bounds(0.5)
    extent = hi - lo
    demands = np.array([factory.sample_demand().values for _ in range(400)])
    # Most draws sit within half the box extent of their nearest
    # prototype — the workload is clustered, not uniform.
    dist = np.abs(demands[:, None, :] - factory._prototypes[None, :, :]) / extent
    nearest = dist.max(axis=2).min(axis=1)
    assert np.median(nearest) < 0.25


def test_skewed_factory_rng_stream_is_stable():
    # Same seed ⇒ same demand stream, and exactly three generator calls
    # per draw: a manual replay of the documented draw sequence matches.
    factory = SkewedTaskFactory(
        0.5, np.random.default_rng(6), zipf_s=1.0, hot_ranges=16
    )
    rng = np.random.default_rng(6)
    TaskFactory(0.5, rng)  # superclass init consumes nothing
    lo, hi = demand_bounds(0.5)
    prototypes = rng.uniform(lo, hi, size=(16, lo.shape[0]))
    assert np.array_equal(prototypes, factory._prototypes)
    rank_sampler = ZipfRankSampler(1.0, 16)
    width_sampler = BoundedParetoSampler(1.5, 0.02, 0.5)
    for _ in range(50):
        demand = factory.sample_demand().values
        rank = rank_sampler.draw(rng)
        width = width_sampler.draw(rng)
        jitter = rng.uniform(-0.5, 0.5, size=lo.shape[0])
        expected = np.clip(prototypes[rank] + jitter * width * (hi - lo), lo, hi)
        assert np.array_equal(demand, expected)


def test_skewed_factory_nominal_times_inherited():
    factory = SkewedTaskFactory(
        0.5, np.random.default_rng(7), mean_nominal_time=3000.0
    )
    task = factory.create(origin=3, submit_time=12.0)
    assert task.origin == 3
    assert task.nominal_time > 0
    assert task.demand.values.shape == demand_bounds(0.5)[0].shape
