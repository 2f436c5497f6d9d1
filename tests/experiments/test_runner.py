"""Integration tests: full SOC simulations at micro scale.

These exercise the complete task lifecycle — query, best-fit selection,
placement, PSM execution, completion — for every protocol, plus churn,
admission policies and determinism.
"""

import gc

import numpy as np
import pytest

from repro.cloud.resources import dominates
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation

MICRO = dict(n_nodes=40, duration=4000.0, demand_ratio=0.4, seed=11)


def run(**overrides):
    cfg = ExperimentConfig(**{**MICRO, **overrides})
    return SOCSimulation(cfg).run()


@pytest.mark.parametrize(
    "protocol",
    ["hid-can", "sid-can", "hid-can+sos", "sid-can+vd", "newscast",
     "khdn-can", "randomwalk-can", "mercury", "inscan-rq"],
)
def test_every_protocol_completes_a_run(protocol):
    res = run(protocol=protocol)
    assert res.generated > 0
    assert res.finished + res.failed <= res.generated
    assert 0.0 <= res.t_ratio <= 1.0
    assert 0.0 <= res.f_ratio <= 1.0
    assert res.traffic_total > 0
    assert res.per_node_msg_cost > 0


def test_pid_can_places_and_finishes_tasks():
    res = run(protocol="hid-can")
    assert res.placed > 0
    assert res.finished > 0
    assert res.efficiencies  # finished tasks produced efficiency samples
    assert all(e > 0 for e in res.efficiencies)


def test_determinism_same_seed_same_result():
    a = run(protocol="hid-can")
    b = run(protocol="hid-can")
    assert a.generated == b.generated
    assert a.finished == b.finished
    assert a.failed == b.failed
    assert a.traffic_total == b.traffic_total
    assert a.series["t_ratio"].values == b.series["t_ratio"].values


def test_different_seeds_differ():
    a = run(protocol="hid-can", seed=1)
    b = run(protocol="hid-can", seed=2)
    assert (
        a.traffic_total != b.traffic_total or a.finished != b.finished
    )


def test_series_sampled_on_period():
    res = run(protocol="hid-can", sample_period=1000.0)
    assert res.series["t_ratio"].times == [1000.0, 2000.0, 3000.0, 4000.0]
    assert len(res.series["f_ratio"]) == 4
    assert len(res.series["fairness"]) == 4


def test_t_plus_f_ratio_bounded():
    res = run(protocol="hid-can")
    for t, f in zip(res.series["t_ratio"].values, res.series["f_ratio"].values):
        assert t + f <= 1.0 + 1e-9


def test_strict_admission_never_oversubscribes():
    placements = []

    class Checked(SOCSimulation):
        def _admit(self, task, target):
            placements.append(
                dominates(self.engine.availability(target), task.expectation)
            )
            super()._admit(task, target)

    cfg = ExperimentConfig(**{**MICRO, "admission": "strict"})
    Checked(cfg).run()
    assert placements, "no tasks placed"
    assert all(placements)


def test_lenient_admission_allows_contention():
    # With admission="none" and a high demand ratio, some placements land
    # on nodes that no longer dominate the demand — the §I contention mode.
    violations = []

    class Checked(SOCSimulation):
        def _admit(self, task, target):
            violations.append(
                not dominates(self.engine.availability(target), task.expectation)
            )
            super()._admit(task, target)

    cfg = ExperimentConfig(
        n_nodes=30, duration=6000.0, demand_ratio=0.8, seed=5,
        admission="none", protocol="hid-can",
    )
    Checked(cfg).run()
    assert any(violations)


def test_local_first_executes_locally_when_possible():
    res_local = run(protocol="hid-can", local_first=True)
    res_remote = run(protocol="hid-can", local_first=False)
    # local-first short-circuits queries, so query traffic shrinks
    local_q = res_local.traffic_by_kind.get("duty-query", 0)
    remote_q = res_remote.traffic_by_kind.get("duty-query", 0)
    assert local_q < remote_q


def test_churn_keeps_population_and_repairs_overlay():
    cfg = ExperimentConfig(
        **{**MICRO, "churn_degree": 0.4, "protocol": "hid-can"}
    )
    sim = SOCSimulation(cfg)
    res = sim.run()
    assert len(sim._alive) == cfg.n_nodes  # departures matched by joins
    sim.protocol.overlay.check_invariants()
    assert res.generated > 0
    assert res.peak_population >= cfg.n_nodes


def test_churn_kills_tasks_ablation():
    cfg = ExperimentConfig(
        **{**MICRO, "churn_degree": 0.5, "churn_kills_tasks": True}
    )
    res = SOCSimulation(cfg).run()
    assert res.evicted > 0


def test_gossip_cmax_mode_runs():
    res = run(protocol="hid-can", cmax_mode="gossip")
    assert res.traffic_by_kind.get("aggregation", 0) > 0
    assert res.generated > 0


def test_summary_shape():
    res = run(protocol="hid-can")
    summary = res.summary()
    assert set(summary) >= {
        "t_ratio", "f_ratio", "fairness", "per_node_msg_cost", "query_timeouts"
    }


@pytest.mark.parametrize("protocol", ["randomwalk-can", "khdn-can", "mercury"])
def test_baselines_survive_churn_with_timeout_accounting(protocol):
    """The ROADMAP hang repro at runner level: the once-timeout-less
    baselines must finish a churn run, with every timed-out query counted
    once (the failed/finished invariant stays intact)."""
    res = run(protocol=protocol, churn_degree=0.75)
    assert res.generated > 0
    assert res.finished + res.failed <= res.generated
    assert res.query_timeouts >= 0
    # expired queries can't outnumber the queries submitted
    assert res.query_timeouts <= res.generated


def test_failsafe_prevents_task_leaks():
    """Every generated query resolves exactly once or is still in flight,
    under heavy churn, for every protocol: the lifecycle's timeout is the
    one failsafe, and it leaks nothing (the conservation ``bench/cell.py``
    gates on)."""
    from repro.experiments.scenarios import CHURN_SWEEP_PROTOCOLS

    timeouts = 0
    for protocol in CHURN_SWEEP_PROTOCOLS + ("hid-can+sos", "sid-can+vd"):
        sim = SOCSimulation(ExperimentConfig(
            n_nodes=120, duration=3000.0, demand_ratio=0.5, seed=11,
            protocol=protocol, churn_degree=0.75,
        ))
        result = sim.run()
        in_flight = sim.protocol.lifecycle.active_queries()
        assert result.generated > 0
        assert result.generated == result.query_latency.queries + in_flight, protocol
        timeouts += result.query_timeouts
    assert timeouts > 0  # churn did swallow chains; the timeout resolved them


def test_protocol_without_a_lifecycle_is_refused(monkeypatch):
    from repro.core.protocol import PIDCANProtocol

    original = PIDCANProtocol.__init__

    def forgetful(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.lifecycle = None

    monkeypatch.setattr(PIDCANProtocol, "__init__", forgetful)
    with pytest.raises(TypeError, match="QueryLifecycle"):
        SOCSimulation(ExperimentConfig(**MICRO))


# ----------------------------------------------------------------------
# host-engine equivalence at scenario level
# ----------------------------------------------------------------------
def _cross_check(cfg):
    """Run one config on both execution substrates; they must be
    indistinguishable (identical completion ordering makes every metric
    identical, so compare the full metric surface)."""
    from repro.testing import ReferenceHostEngine

    vec = SOCSimulation(cfg).run()
    ref = SOCSimulation(cfg, engine=ReferenceHostEngine()).run()
    assert vec.summary() == pytest.approx(ref.summary(), abs=1e-9, nan_ok=True)
    assert vec.generated == ref.generated
    assert vec.placed == ref.placed
    assert vec.evicted == ref.evicted
    assert vec.traffic_by_kind == ref.traffic_by_kind
    assert vec.balance == ref.balance
    for key in vec.series:
        assert vec.series[key].times == ref.series[key].times
        assert vec.series[key].values == pytest.approx(
            ref.series[key].values, abs=1e-9, nan_ok=True
        )
    assert vec.efficiencies == pytest.approx(ref.efficiencies, abs=1e-9)
    return vec


def test_engine_matches_reference_on_tiny_scenario_cell():
    """Tier-1 cross-check: a real fig4a cell at `tiny` scale runs bit-for-
    bit identically on HostEngine and the scalar reference substrate."""
    from repro.experiments.scenarios import scenario_configs

    cfg = scenario_configs("fig4a", scale="tiny", seed=7)["sid-can"]
    res = _cross_check(cfg)
    assert res.generated > 0 and res.placed > 0


def test_engine_matches_reference_under_churn_eviction():
    """The eviction/recovery path (bulk evict_all + checkpoint restarts)
    must also be substrate-independent."""
    cfg = ExperimentConfig(
        **{**MICRO, "churn_degree": 0.5, "churn_kills_tasks": True,
           "checkpoint_enabled": True, "checkpoint_period": 500.0}
    )
    res = _cross_check(cfg)
    assert res.evicted > 0


# ----------------------------------------------------------------------
# CAN-overlay equivalence at scenario level
# ----------------------------------------------------------------------
def _cross_check_overlay(cfg):
    """Run one config on the vectorized and the scalar CAN substrates;
    identical routing paths make every downstream event (and so every
    metric) identical."""
    from repro.testing import ReferenceCANOverlay

    vec = SOCSimulation(cfg).run()
    ref = SOCSimulation(cfg, overlay_cls=ReferenceCANOverlay).run()
    assert vec.summary() == pytest.approx(ref.summary(), abs=1e-9, nan_ok=True)
    assert vec.generated == ref.generated
    assert vec.placed == ref.placed
    assert vec.traffic_by_kind == ref.traffic_by_kind
    for key in vec.series:
        assert vec.series[key].times == ref.series[key].times
        assert vec.series[key].values == pytest.approx(
            ref.series[key].values, abs=1e-9, nan_ok=True
        )
    return vec


@pytest.mark.parametrize("protocol", ["hid-can", "inscan-rq"])
def test_overlay_matches_reference_on_micro_run(protocol):
    """Tier-1 cross-check of the vectorized overlay: a micro run is
    bit-for-bit identical on the vectorized overlay and the verbatim
    scalar reference overlay, for both the PID-CAN query chain and a
    routing-heavy flooding baseline."""
    cfg = ExperimentConfig(**{**MICRO, "protocol": protocol})
    res = _cross_check_overlay(cfg)
    assert res.generated > 0


def test_overlay_matches_reference_under_churn():
    """Join/leave repair (takeover, rebinds, direction caches) must keep
    the substrates aligned while routes and tables refresh mid-churn."""
    cfg = ExperimentConfig(
        **{**MICRO, "protocol": "sid-can", "churn_degree": 0.5}
    )
    _cross_check_overlay(cfg)


# ----------------------------------------------------------------------
# the collector sits construction out
# ----------------------------------------------------------------------
@pytest.fixture
def gc_passes():
    """Generations of the collector passes that start while the fixture
    is live; the collector's enabled state is restored afterwards."""
    passes: list[int] = []

    def on_pass(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(on_pass)
    try:
        yield passes
    finally:
        gc.callbacks.remove(on_pass)
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_construction_pauses_the_collector_and_restores_it(gc_passes, enabled):
    (gc.enable if enabled else gc.disable)()
    # 400 nodes allocate far past the young-generation threshold.
    SOCSimulation(ExperimentConfig(**{**MICRO, "n_nodes": 400}))
    assert gc.isenabled() is enabled
    # No automatic pass while building, one explicit one to close.
    assert gc_passes == [1]


def test_collector_state_is_restored_when_construction_raises(
    gc_passes, monkeypatch
):
    from repro.core.protocol import PIDCANProtocol

    original = PIDCANProtocol.__init__

    def forgetful(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.lifecycle = None

    monkeypatch.setattr(PIDCANProtocol, "__init__", forgetful)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(TypeError, match="QueryLifecycle"):
            SOCSimulation(ExperimentConfig(**MICRO))
        assert gc.isenabled() is enabled
    assert gc_passes == []
