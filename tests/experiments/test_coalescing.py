"""End-to-end identity tests for event coalescing.

The contract (docs/coalescing.md): with quantized phases
(``phase_buckets >= 1``) cohort timers are a pure event-batching
transform of one grid chain per member
(``repro.testing.ReferenceCohortScheduler``), and the delivery calendar
at quantum 0 of one heap event per message
(``repro.testing.ReferenceDeliveryCalendar``) — every metric and every
series sample is *exactly* equal, at paper scale and under churn.
Batched arrivals make the same promise against one-by-one submission.
These tests pin the promise; the throughput win is asserted separately in
``benchmarks/test_bench_coalescing.py``.
"""

from dataclasses import replace

from repro.core.protocol import DiscoveryProtocol, PIDCANParams, PIDCANProtocol
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import hotrange_configs, mega2_configs, mega_configs
from repro.testing import (
    assert_delivery_modes_equivalent,
    assert_results_identical,
    assert_tick_modes_equivalent,
)


def _quantized(**overrides) -> ExperimentConfig:
    params = {
        "protocol": "hid-can",
        "demand_ratio": 0.5,
        "pidcan": PIDCANParams(phase_buckets=16),
        **overrides,
    }
    return ExperimentConfig(**params)


def test_cohort_ticking_identical_at_paper_scale():
    """The acceptance cell: a paper-population (2000 node) HID-CAN run
    under cohort coalescing is metric- and series-identical to the
    per-node tick path."""
    per_node, _ = assert_tick_modes_equivalent(
        _quantized(n_nodes=2000, duration=1200.0, sample_period=400.0, seed=11)
    )
    assert per_node.generated > 0
    assert per_node.finished > 0


def test_cohort_ticking_identical_on_small_cell():
    per_node, cohort = assert_tick_modes_equivalent(
        _quantized(n_nodes=120, duration=4000.0, sample_period=1000.0, seed=3)
    )
    assert per_node.generated > 0


def test_cohort_ticking_identical_under_churn():
    """Join/leave churn exercises the straggler rule: nodes arming
    mid-round must interleave identically in both tick modes."""
    per_node, _ = assert_tick_modes_equivalent(
        _quantized(
            n_nodes=100,
            duration=4000.0,
            sample_period=1000.0,
            seed=7,
            churn_degree=0.25,
            churn_lifetime=1500.0,
        )
    )
    assert per_node.generated > 0


def test_cohort_ticking_identical_for_state_baseline():
    """CANStateBaseline protocols share the cohort plumbing (sid-can
    consumes the same PIDCANParams tick knobs)."""
    per_node, _ = assert_tick_modes_equivalent(
        _quantized(
            protocol="sid-can", n_nodes=80, duration=4000.0,
            sample_period=1000.0, seed=5,
        )
    )
    assert per_node.generated > 0


def _run(config: ExperimentConfig):
    return SOCSimulation(config).run()


def test_arrival_coalescing_is_identical(monkeypatch):
    """Handing each quantized instant's arrivals to PID-CAN's natively
    batched ``submit_bulk`` changes nothing observable against the
    one-by-one ``DiscoveryProtocol.submit_bulk`` fan-out."""
    base = _quantized(n_nodes=80, duration=4000.0, sample_period=1000.0,
                      seed=9, arrival_quantum=5.0)
    batched = _run(base)
    monkeypatch.setattr(
        PIDCANProtocol, "submit_bulk", DiscoveryProtocol.submit_bulk
    )
    sequential = _run(base)
    assert batched.generated > 0
    assert_results_identical(sequential, batched)


def test_memory_budget_sweep_is_identical():
    """Footprint trims are semantics-preserving: compacting and shrinking
    the host engine's arrays every 500 s changes no metric."""
    base = _quantized(n_nodes=80, duration=4000.0, sample_period=1000.0, seed=13)
    plain = _run(base)
    soc = SOCSimulation(base)
    released = []

    def trim():
        released.append(soc.engine.trim())

    soc.sim.periodic(500.0, trim)
    trimmed = soc.run()
    assert len(released) >= 7 and released[0] > 0
    assert_results_identical(plain, trimmed)


def test_mega_runs_are_deterministic():
    """Two same-seed mega cells (all coalescing levers on) are
    bit-identical."""
    grid = mega_configs(scale="tiny", seed=5, n_nodes=300, duration=900.0)
    config = grid["hid-can"]
    assert_results_identical(_run(config), _run(config))


def test_delivery_coalescing_is_identical():
    """Batching same-instant message deliveries into one flush event
    (quantum 0) changes nothing observable."""
    per_message, _ = assert_delivery_modes_equivalent(
        _quantized(n_nodes=80, duration=4000.0, sample_period=1000.0, seed=9)
    )
    assert per_message.generated > 0


def test_delivery_coalescing_identical_under_churn():
    """Dead-target drops and failsafe-resolved chains must coalesce the
    same way they schedule per-message."""
    per_message, _ = assert_delivery_modes_equivalent(
        _quantized(
            n_nodes=100, duration=4000.0, sample_period=1000.0, seed=7,
            churn_degree=0.25, churn_lifetime=1500.0,
        )
    )
    assert per_message.generated > 0


def test_delivery_coalescing_identical_at_paper_scale():
    """The acceptance cell: a paper-population (2000 node) HID-CAN run
    with delivery coalescing on is metric- and series-identical to the
    per-message reference path."""
    per_message, _ = assert_delivery_modes_equivalent(
        _quantized(n_nodes=2000, duration=1200.0, sample_period=400.0, seed=11)
    )
    assert per_message.generated > 0
    assert per_message.finished > 0


def test_mega2_runs_are_deterministic():
    """Two same-seed mega2 cells (every mega lever on) are
    bit-identical."""
    grid = mega2_configs(scale="tiny", seed=5, n_nodes=300, duration=900.0)
    config = grid["hid-can"]
    assert config.pidcan.phase_buckets >= 1 and config.delivery_quantum > 0
    assert_results_identical(_run(config), _run(config))


def test_stacked_levers_are_deterministic_and_conserve():
    """Every lever at once — cohort ticking, 0.1 s delivery quantum,
    quantized (batched) arrivals, lru path cache + replication, 25 %
    churn: two runs agree exactly and the run's books balance."""
    config = replace(
        hotrange_configs("tiny", seed=4, n_nodes=150, duration=3000.0)["lru+repl"],
        pidcan=PIDCANParams(phase_buckets=16),
        delivery_quantum=0.1,
        arrival_quantum=1.0,
        churn_degree=0.25,
        churn_lifetime=1500.0,
        sample_period=1000.0,
    )
    first, second = SOCSimulation(config), SOCSimulation(config)
    a, b = first.run(), second.run()
    assert_results_identical(a, b)
    assert a.generated > 0 and a.cache_hits > 0 and a.replications > 0
    assert len(first.hosts) > 150  # churn replaced nodes
    assert a.traffic_total == sum(a.traffic_by_kind.values())
    in_flight = first.protocol.lifecycle.active_queries()
    assert a.generated == a.query_latency.queries + in_flight
