"""Unit and property tests for the Table-II task model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.machine import CMAX
from repro.cloud.resources import ResourceVector
from repro.cloud.tasks import DEMAND_RANGES, Task, TaskFactory, demand_bounds
from repro.metrics.fairness import EfficiencyAccumulator


def make_factory(lam=0.5, seed=0):
    return TaskFactory(lam, np.random.default_rng(seed))


def test_demand_ratio_validation():
    with pytest.raises(ValueError):
        TaskFactory(0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        TaskFactory(1.5, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0))
def test_demands_within_table_two_ranges(lam):
    fac = TaskFactory(lam, np.random.default_rng(1))
    for _ in range(20):
        d = fac.sample_demand().values
        for k, (lo, hi) in enumerate(DEMAND_RANGES.values()):  # canonical order
            assert lo * lam - 1e-9 <= d[k] <= hi * lam + 1e-9


def test_demand_never_exceeds_scaled_cmax():
    fac = make_factory(lam=0.25)
    for _ in range(100):
        assert np.all(fac.sample_demand().values <= 0.25 * CMAX + 1e-9)


def test_nominal_time_mean_is_3000s():
    fac = make_factory(lam=1.0, seed=3)
    times = [fac.sample_nominal_time() for _ in range(4000)]
    assert abs(np.mean(times) - 3000.0) < 100.0
    assert min(times) >= 0.2 * 3000.0
    assert max(times) <= 1.8 * 3000.0


def test_task_ids_increment():
    fac = make_factory()
    t1 = fac.create(0, 0.0)
    t2 = fac.create(1, 5.0)
    assert (t1.task_id, t2.task_id) == (0, 1)
    assert t2.origin == 1 and t2.submit_time == 5.0


def test_work_vector_is_demand_times_nominal():
    fac = make_factory()
    t = fac.create(0, 0.0)
    expected = t.demand.values[:3] * t.nominal_time
    assert np.allclose(t.work, expected)
    assert np.allclose(t.remaining_work, expected)


def test_expected_time_at_mean_capacity():
    t = Task(
        task_id=0,
        origin=0,
        demand=ResourceVector([2.0, 10.0, 1.0, 10.0, 100.0]),
        nominal_time=1000.0,
        submit_time=0.0,
    )
    mean_rates = np.array([4.0, 40.0, 4.0])  # mean capacity, work dims
    # work = (2000, 10000, 1000); rates (4, 40, 4) → times (500, 250, 250):
    # finishing in exactly the expected 500 s is efficiency 1
    acc = EfficiencyAccumulator(mean_rates)
    assert acc.observe(t.work, 0.0, 500.0) == pytest.approx(1.0)


def test_efficiency_requires_finished_task():
    """Efficiency is observed at completion, from the submit→finish span:
    a zero span counts as fully efficient, not as a division error, and
    the mean-capacity rates it divides by must be positive."""
    t = make_factory().create(0, 0.0)
    acc = EfficiencyAccumulator([4.0, 40.0, 4.0])
    assert acc.observe(t.work, 10.0, 10.0) == 1.0
    with pytest.raises(ValueError):
        EfficiencyAccumulator([4.0, 0.0, 4.0])


def test_efficiency_is_expected_over_actual():
    t = Task(
        task_id=0,
        origin=0,
        demand=ResourceVector([2.0, 10.0, 1.0, 10.0, 100.0]),
        nominal_time=1000.0,
        submit_time=0.0,
    )
    acc = EfficiencyAccumulator([4.0, 40.0, 4.0])  # mean capacity, work dims
    assert acc.observe(t.work, 0.0, 1000.0) == pytest.approx(500.0 / 1000.0)
    assert acc.values().tolist() == [pytest.approx(0.5)]


def test_demand_upper_bound_helper():
    _, ub = demand_bounds(0.5)
    assert np.allclose(ub, 0.5 * CMAX)


@pytest.mark.parametrize("lam", [0.05, 0.25, 0.5, 1.0])
def test_demand_stream_matches_generator_uniform(lam):
    """``sample_demand`` is ``lo + span · random(5)``: the values and the
    stream position of ``rng.uniform(lo, hi)``, draw for draw, with the
    nominal-time draws of ``create`` interleaved as in a run."""
    factory = TaskFactory(lam, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    lo, hi = demand_bounds(lam)
    for _ in range(2000):
        task = factory.create(0, 0.0)
        assert np.array_equal(task.demand.values, rng.uniform(lo, hi))
        assert task.nominal_time == float(rng.uniform(600.0, 5400.0))
    assert factory._rng.bit_generator.state == rng.bit_generator.state


def test_resource_vector_copies_an_array_argument():
    source = np.array([1, 2, 3, 4, 5])
    vec = ResourceVector(source)
    source[0] = 99
    assert vec.values.dtype == np.float64
    assert vec.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert not vec.values.flags.writeable
    assert source.flags.writeable
