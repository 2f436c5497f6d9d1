"""Unit tests for Table-I machine sampling."""

import numpy as np

from repro.cloud import machine as pools
from repro.cloud.machine import CMAX, CMAX_VECTOR, machine_of, sample_machines
from repro.cloud.resources import RESOURCE_DIMS
from repro.cloud.tasks import demand_bounds


def sample_machine(rng, net_bandwidth_mbps):
    """One host's configuration: a batch of one, turned back into a
    :class:`~repro.cloud.machine.MachineConfig`."""
    picks, capacities = sample_machines(rng, [net_bandwidth_mbps])
    machine = machine_of(picks[0], net_bandwidth_mbps)
    assert capacities[0].tolist() == machine.capacity.values.tolist()
    return machine


def test_cmax_matches_table_one_maxima():
    # (cpu, io, net, disk, mem)
    assert CMAX_VECTOR.values.tolist() == [25.6, 80.0, 10.0, 240.0, 4096.0]
    assert np.array_equal(CMAX, CMAX_VECTOR.values)


def test_demand_upper_bounds_equal_cmax():
    # Table II's demand ranges top out exactly at Table I's capacities.
    assert np.allclose(demand_bounds(1.0)[1], CMAX)


def test_sampled_machines_within_table_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = sample_machine(rng, net_bandwidth_mbps=7.5)
        assert m.processors in (1, 2, 4, 8)
        assert m.rate_per_processor in (1.0, 2.0, 2.4, 3.2)
        assert m.io_speed in (20.0, 40.0, 60.0, 80.0)
        assert m.memory_size in (512.0, 1024.0, 2048.0, 4096.0)
        assert m.disk_size in (20.0, 60.0, 120.0, 240.0)
        cap = m.capacity
        assert np.all(cap.values <= CMAX + 1e-12)
        assert np.all(cap.values > 0)


def test_capacity_vector_layout():
    rng = np.random.default_rng(1)
    m = sample_machine(rng, net_bandwidth_mbps=6.0)
    cap = m.capacity.values
    assert cap[RESOURCE_DIMS.index("cpu")] == m.processors * m.rate_per_processor
    assert cap[RESOURCE_DIMS.index("net")] == 6.0


def test_all_configurations_reachable():
    rng = np.random.default_rng(2)
    procs = {sample_machine(rng, 5.0).processors for _ in range(500)}
    assert procs == {1, 2, 4, 8}


def test_sample_machine_draws_what_choice_drew():
    """Field by field, the integer-indexed draw equals the seed's
    ``rng.choice(pool)`` on the same stream."""
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    for _ in range(300):
        got = sample_machine(a, net_bandwidth_mbps=6.0)
        want = (
            int(b.choice(pools._PROCESSORS)), float(b.choice(pools._RATES)),
            float(b.choice(pools._IO_SPEEDS)), 6.0,
            float(b.choice(pools._DISK_SIZES)), float(b.choice(pools._MEM_SIZES)),
        )
        assert tuple(getattr(got, f) for f in got.__slots__) == want
        assert type(got.processors) is int
    assert a.bit_generator.state == b.bit_generator.state


def test_sampled_picks_are_the_scalar_draws_for_one_host_and_a_batch():
    """The Table-I pools have four entries, so :func:`sample_machines`
    draws all ``5 * n`` pool indexes in one fetch.  Picks and the
    generator afterwards equal one ``integers(4)`` call per field, for a
    churn newcomer (one host) and a whole batch, from an odd buffered
    half-word start."""
    assert {len(pool) for pool in pools._POOLS} == {4}
    for hosts in (1, 500):
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        a.integers(7), b.integers(7)  # (an odd 32-bit draw buffers a half)
        picks, _ = sample_machines(a, [6.0] * hosts)
        want = [int(b.integers(4)) for _ in range(5 * hosts)]
        assert picks.reshape(-1).tolist() == want
        assert a.bit_generator.state == b.bit_generator.state
