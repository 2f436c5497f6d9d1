"""Unit tests for Table-I machine sampling."""

import numpy as np

from repro.cloud import machine as pools
from repro.cloud.machine import CMAX, CMAX_VECTOR, sample_machine
from repro.cloud.resources import RESOURCE_DIMS
from repro.cloud.tasks import demand_fits_cmax


def test_cmax_matches_table_one_maxima():
    assert CMAX_VECTOR.as_dict() == {
        "cpu": 25.6,
        "io": 80.0,
        "net": 10.0,
        "disk": 240.0,
        "mem": 4096.0,
    }


def test_demand_upper_bounds_equal_cmax():
    # Table II's demand ranges top out exactly at Table I's capacities.
    assert demand_fits_cmax()


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
    cap = m.capacity
    assert cap["cpu"] == m.processors * m.rate_per_processor
    assert cap["net"] == 6.0
    assert list(cap.as_dict()) == list(RESOURCE_DIMS)


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
