"""Unit tests for the proportional share model (Eq. 1) as the host engine
grants it, and for the VM maintenance overhead.

The anchor test reproduces the paper's worked example verbatim (§II): three
tasks expecting {2 GFlops, 100 M}, {3, 200}, {4, 300} on a node with
capacity {13.5 GFlops, 1200 M} receive {3, 200}, {4.5, 400}, {6, 600}.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.engine import HostEngine
from repro.cloud.psm import VMOverhead
from repro.cloud.resources import ResourceVector
from repro.cloud.tasks import N_WORK_DIMS, Task
from tests.oracles import effective_capacity

#: Zero overhead isolates Eq. 1 from the VM maintenance cost.
NO_OVERHEAD = VMOverhead(fractions=(0, 0, 0, 0, 0), flat=(0, 0, 0, 0, 0))


def _engine(capacity, expectations) -> HostEngine:
    """One host of ``capacity`` running one task per expectation vector."""
    engine = HostEngine(NO_OVERHEAD)
    engine.add_host(0, np.asarray(capacity, dtype=np.float64))
    for task_id, expectation in enumerate(expectations):
        task = Task(task_id, 0, ResourceVector(expectation), 100.0, 0.0)
        engine.place(0, task, 0.0)
    return engine


def allocate_shares(capacity, expectations) -> list[np.ndarray]:
    """Each task's share ``r_j = e_j / l · c`` on the three work
    dimensions (cpu, io, net), in placement order."""
    engine = _engine(capacity, expectations)
    rows = engine._host_tasks[0]
    return list(engine._t_exp[rows, :N_WORK_DIMS] * engine._share[0])


def _pad(cpu, io):
    """The paper's example is 2-D; embed it in the canonical 5-dim layout
    (cpu, io, net, disk, mem) with inert remaining dimensions."""
    return np.array([cpu, io, 1.0, 1.0, 1.0])


def test_paper_worked_example():
    capacity = _pad(13.5, 1200.0)
    tasks = [_pad(2.0, 100.0), _pad(3.0, 200.0), _pad(4.0, 300.0)]
    shares = allocate_shares(capacity, tasks)
    assert shares[0][0] == pytest.approx(3.0)
    assert shares[0][1] == pytest.approx(200.0)
    assert shares[1][0] == pytest.approx(4.5)
    assert shares[1][1] == pytest.approx(400.0)
    assert shares[2][0] == pytest.approx(6.0)
    assert shares[2][1] == pytest.approx(600.0)


def test_shares_sum_to_capacity_on_loaded_dims():
    capacity = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    tasks = [np.array([1.0, 2.0, 3.0, 4.0, 5.0]) * k for k in (1, 2, 3)]
    shares = allocate_shares(capacity, tasks)
    total = np.sum(shares, axis=0)
    assert np.allclose(total, capacity[:3])


def test_no_tasks_no_shares():
    assert allocate_shares(np.ones(5), []) == []


def test_zero_load_dimension_allocates_zero():
    capacity = np.ones(5) * 10
    tasks = [np.array([1.0, 0.0, 0.0, 0.0, 0.0])]
    shares = allocate_shares(capacity, tasks)
    assert shares[0][0] == pytest.approx(10.0)
    assert np.all(shares[0][1:] == 0.0)


def test_undersubscribed_tasks_get_at_least_expectation():
    capacity = np.ones(5) * 100
    tasks = [np.ones(5) * 10, np.ones(5) * 20]
    shares = allocate_shares(capacity, tasks)
    for share, task in zip(shares, tasks):
        assert np.all(share >= task[:3])


def test_oversubscribed_tasks_get_less_than_expectation():
    capacity = np.ones(5) * 10
    tasks = [np.ones(5) * 10, np.ones(5) * 20]
    shares = allocate_shares(capacity, tasks)
    for share, task in zip(shares, tasks):
        assert np.all(share < task[:3])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=5,
            max_size=5,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_share_conservation_property(task_vectors):
    capacity = np.ones(5) * 50.0
    tasks = [np.asarray(t) for t in task_vectors]
    shares = allocate_shares(capacity, tasks)
    assert np.allclose(np.sum(shares, axis=0), capacity[:3])
    # shares are proportional: r_j / e_j identical across tasks per dim
    ratios = np.stack([s / t[:3] for s, t in zip(shares, tasks)])
    assert np.allclose(ratios, ratios[0])


def test_aggregate_load_sums_expectations():
    """``l = Σ e(t_ij)``, the minimal aggregated load vector of §II."""
    tasks = [np.ones(5), np.ones(5) * 2]
    # availability a = c - l with zero VM overhead
    assert np.allclose(_engine(np.ones(5) * 10, tasks).availability(0), np.ones(5) * 7)
    assert np.allclose(_engine(np.ones(5) * 10, []).availability(0), np.ones(5) * 10)


# ----------------------------------------------------------------------
# VM maintenance overhead (§IV-A: 5% cpu, 10% io, 5% net, 5 MB memory)
# ----------------------------------------------------------------------
def test_effective_capacity_paper_overheads():
    capacity = np.array([10.0, 100.0, 10.0, 240.0, 1000.0])
    eff = effective_capacity(capacity, n_vms=2)
    assert eff[0] == pytest.approx(10.0 * 0.90)  # 2 × 5% cpu
    assert eff[1] == pytest.approx(100.0 * 0.80)  # 2 × 10% io
    assert eff[2] == pytest.approx(10.0 * 0.90)  # 2 × 5% net
    assert eff[3] == pytest.approx(240.0)  # disk free
    assert eff[4] == pytest.approx(1000.0 - 10.0)  # 2 × 5 MB


def test_effective_capacity_zero_vms_is_identity():
    capacity = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(effective_capacity(capacity, 0), capacity)


def test_effective_capacity_clamps_at_zero():
    capacity = np.array([10.0, 10.0, 10.0, 10.0, 10.0])
    eff = effective_capacity(capacity, n_vms=50)
    assert np.all(eff >= 0.0)
    assert eff[0] == 0.0  # 50 VMs × 5% >= 100%


def test_custom_overhead():
    overhead = VMOverhead(fractions=(0.5, 0, 0, 0, 0), flat=(0, 0, 0, 0, 0))
    capacity = np.ones(5) * 8
    eff = effective_capacity(capacity, 1, overhead)
    assert eff[0] == pytest.approx(4.0)
    assert np.allclose(eff[1:], 8.0)


def test_effective_capacity_batch_matches_scalar_rows():
    """The batch form is row-for-row the scalar function, bit-for-bit."""
    from repro.cloud.psm import effective_capacity_batch

    rng = np.random.default_rng(9)
    caps = rng.uniform(1.0, 100.0, size=(50, 5))
    n_vms = rng.integers(0, 30, size=50)
    batch = effective_capacity_batch(caps, n_vms)
    for row in range(50):
        expected = effective_capacity(caps[row], int(n_vms[row]))
        assert np.array_equal(batch[row], expected)


def test_effective_capacity_batch_custom_overhead():
    from repro.cloud.psm import effective_capacity_batch

    overhead = VMOverhead(fractions=(0.5, 0, 0, 0, 0), flat=(0, 0, 0, 0, 0))
    caps = np.ones((3, 5)) * 8
    batch = effective_capacity_batch(caps, np.array([1, 2, 0]), overhead)
    assert batch[0][0] == pytest.approx(4.0)
    assert batch[1][0] == pytest.approx(0.0)
    assert np.allclose(batch[2], 8.0)
