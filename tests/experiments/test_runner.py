"""Integration tests: full SOC simulations at micro scale.

These exercise the complete task lifecycle — query, best-fit selection,
placement, PSM execution, completion — for every protocol, plus churn,
admission policies and determinism.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.cloud.resources import dominates
from repro.core import protocol as protocol_mod
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from tests.conftest import count_generator_calls
from tests.experiments.run_cells import pair_run
from tests.oracles import ReferenceCANOverlay, assert_oracle_equivalent

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
    assert len(res.series["f_ratio"].times) == 4
    assert len(res.series["fairness"].times) == 4


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
    from repro.experiments.store import result_to_dict

    res = run(protocol="hid-can")
    summary = result_to_dict(res)["metrics"]
    assert set(summary) >= {
        "t_ratio", "f_ratio", "fairness", "per_node_msg_cost", "query_timeouts"
    }
    assert summary["t_ratio"] == res.t_ratio


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
    """Run one config on both execution substrates, the scalar one
    swapped in for the runner's ``HostEngine``; they must be
    indistinguishable (identical completion ordering makes every metric
    identical, so compare the full metric surface).  Sampled utilization
    may differ in the last bit: the oracle sums it host by host, the
    engine takes one mean."""
    from repro.experiments import runner
    from repro.experiments.store import result_to_dict
    from tests.oracles import ReferenceHostEngine

    vec = SOCSimulation(cfg).run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "HostEngine", ReferenceHostEngine)
        ref = SOCSimulation(cfg).run()
    assert result_to_dict(vec)["metrics"] == pytest.approx(
        result_to_dict(ref)["metrics"], abs=1e-9, nan_ok=True
    )
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
    """Tier-1 cross-check: a real fig4a cell at `tiny` scale runs
    identically on HostEngine and the scalar reference substrate."""
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
# CAN-overlay equivalence at scenario level: the scalar overlay is
# swapped in where every CAN protocol builds one; identical routing
# paths make every downstream event (and so every metric) identical.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["hid-can", "inscan-rq"])
def test_overlay_matches_reference_on_micro_run(protocol):
    """Tier-1 cross-check of the vectorized overlay: a micro run is
    bit-for-bit identical on the vectorized overlay and the verbatim
    scalar reference overlay, for both the PID-CAN query chain and a
    routing-heavy flooding baseline."""
    cfg = ExperimentConfig(**{**MICRO, "protocol": protocol})
    _, res = assert_oracle_equivalent(
        cfg, protocol_mod, "CANOverlay", ReferenceCANOverlay
    )
    assert res.generated > 0


def test_overlay_matches_reference_under_churn():
    """Join/leave repair (takeover, rebinds, direction caches) must keep
    the substrates aligned while routes and tables refresh mid-churn (one
    stock run against the row recorded once it matched the reference)."""
    assert pair_run("overlay-churn").generated > 0


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


# ----------------------------------------------------------------------
# what a built cell leaves for the collector to walk
# ----------------------------------------------------------------------
#: Collector-tracked objects a freshly built cell may hold per node.
#: Every collector pass walks all of them; per-node closures,
#: ``partial``s around the timers and arrival chains, and dict-of-lists
#: pointer tables once put 34-66 here (``docs/architecture.md``, "Cell
#: construction"); a neighbor set beside each node's edge map, 22.3; a
#: tree leaf and branch object per node and a host record holding a
#: machine record, 21.3; a list of cohort timers per node, 10.7 on the
#: cohort cell.  Tree rows and machine rows put these cells at
#: 7.3-16.3.
TRACKED_PER_NODE_BUDGET = 16.5

#: Bytes a freshly built cell may hold per node, as ``tracemalloc``
#: counts them.  Flat pointer tables and face buckets, row tables born
#: without arrays and no cohort membership lists put the cells at
#: 1 407-3 788; a tuple per chain and per face, 3-7 zero-length arrays
#: per cache and a timer list per cohort node, 1 746-5 662; tree and
#: host records as objects, 4 243-5 957; a neighbor set beside the edge
#: map and a numpy array beside each zone tuple, 5 436-7 149.
ALLOCATED_PER_NODE_BUDGET = 3_850


def _budget_cells() -> dict[str, ExperimentConfig]:
    from repro.experiments.scenarios import (
        CHURN_SWEEP_PROTOCOLS, hotrange_configs, mega_configs,
    )

    size = {"n_nodes": 400, "duration": 1000.0, "seed": 1}
    cells = {
        protocol: ExperimentConfig(protocol=protocol, demand_ratio=0.5, **size)
        for protocol in CHURN_SWEEP_PROTOCOLS
    }
    cells["hid-can-batched"] = mega_configs("small", **size)["hid-can"]
    cells["hotrange-lru+repl"] = hotrange_configs("small", **size)["lru+repl"]
    return cells


@pytest.mark.parametrize("cell", list(_budget_cells()))
def test_built_cell_stays_within_the_tracked_object_budget(cell):
    config = _budget_cells()[cell]
    # A small twin first, so one-off imports and module caches are not
    # charged to the cell.
    SOCSimulation(replace(config, n_nodes=20))
    gc.collect()
    before = len(gc.get_objects())
    sim = SOCSimulation(config)
    gc.collect()
    per_node = (len(gc.get_objects()) - before) / config.n_nodes
    assert per_node <= TRACKED_PER_NODE_BUDGET, f"{per_node:.1f} tracked objects per node"


@pytest.mark.parametrize("cell", list(_budget_cells()))
def test_built_cell_stays_within_the_allocation_budget(cell):
    config = _budget_cells()[cell]
    SOCSimulation(replace(config, n_nodes=20))  # imports and caches, as above
    gc.collect()
    tracemalloc.start()
    try:
        sim = SOCSimulation(config)
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_node = allocated / config.n_nodes
    assert per_node <= ALLOCATED_PER_NODE_BUDGET, f"{per_node:.0f} B allocated per node"


# ----------------------------------------------------------------------
# generator calls a built cell makes
# ----------------------------------------------------------------------
#: Generator calls constructing a 400-node budget cell may make.  Each
#: set-up phase consumes each of its streams with one call, and a bulk
#: index-draw scope with one call per chunk of words and one to re-draw
#: them; a draw per node per phase made 3 620-5 289 here
#: (``docs/architecture.md``, "Cell construction").
CONSTRUCTION_CALL_BUDGET = 32

@pytest.mark.parametrize(
    "cell", [name for name in _budget_cells() if name != "newscast"]
)
def test_built_cell_makes_few_generator_calls(cell, monkeypatch):
    """Newscast is left out: its view and phase draws interleave on one
    stream, so both stay per node."""
    count_generator_calls(monkeypatch)
    config = _budget_cells()[cell]
    sim = SOCSimulation(config)
    calls = sum(gen.calls for gen in sim.rngs._streams.values())
    assert 0 < calls <= CONSTRUCTION_CALL_BUDGET, f"{calls} generator calls"
