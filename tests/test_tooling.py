"""Style-drift gate: run ``ruff check`` when the linter is available.

The project pins its lint policy in ``pyproject.toml`` (``[tool.ruff]``).
Containers that ship without ruff skip this test instead of failing —
the configuration still travels with the repo so any environment that
has the linter (CI, dev machines) catches drift immediately.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import assert_no_dead_storage

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ruff_command() -> list[str] | None:
    if shutil.which("ruff"):
        return ["ruff"]
    try:
        import ruff  # noqa: F401
    except ImportError:
        return None
    return [sys.executable, "-m", "ruff"]


def test_ruff_check_clean():
    command = _ruff_command()
    if command is None:
        pytest.skip("ruff is not installed in this environment")
    proc = subprocess.run(
        [*command, "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"ruff found style drift:\n{proc.stdout}{proc.stderr}"


def test_ruff_config_present():
    """The lint policy must stay in the repo even where ruff isn't."""
    config = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.ruff]" in config


def test_host_engine_equivalence_smoke():
    """Fast-gate smoke of the execution substrate: one short randomized
    schedule through both the vectorized HostEngine and the scalar
    reference must stay indistinguishable (the heavy property suite lives
    in tests/cloud/test_engine_equivalence.py; this runs in well under a
    second so it belongs in the pre-commit gate)."""
    from repro.testing import assert_engines_equivalent

    stats = assert_engines_equivalent(seed=1, n_hosts=8, steps=120)
    assert stats["placed"] > 0 and stats["completed"] > 0


def test_overlay_equivalence_smoke():
    """Fast-gate smoke of the overlay substrate: one short randomized
    join/leave/route/diffuse schedule through both the vectorized
    overlay and the verbatim scalar reference must stay
    indistinguishable — identical adjacency, routing paths (hop for hop)
    and diffusion recipients (the heavy suites live in
    tests/can/test_overlay_equivalence.py and test_overlay_stateful.py)."""
    from repro.testing import assert_overlays_equivalent

    stats = assert_overlays_equivalent(seed=1, n=20, dims=3, steps=21)
    assert stats["routes"] > 0 and stats["diffusions"] > 0


def test_cohort_equivalence_smoke():
    """Fast-gate smoke of cohort event coalescing: a small HID-CAN cell
    under cohort ticking must stay metric- and series-identical to the
    per-member reference scheduler (the full cells — paper scale, churn,
    baselines — live in tests/experiments/test_coalescing.py)."""
    from repro.core.protocol import PIDCANParams
    from repro.experiments.config import ExperimentConfig
    from repro.testing import assert_tick_modes_equivalent

    per_node, _ = assert_tick_modes_equivalent(
        ExperimentConfig(
            protocol="hid-can",
            demand_ratio=0.5,
            n_nodes=48,
            duration=3000.0,
            sample_period=1000.0,
            seed=2,
            pidcan=PIDCANParams(phase_buckets=16),
        )
    )
    assert per_node.generated > 0


def test_delivery_coalescing_equivalence_smoke():
    """Fast-gate smoke of delivery-event coalescing: a small HID-CAN cell
    through the delivery calendar must stay metric- and series-identical
    to the per-message reference calendar (the full cells — paper scale,
    churn — live in tests/experiments/test_coalescing.py)."""
    from repro.core.protocol import PIDCANParams
    from repro.experiments.config import ExperimentConfig
    from repro.testing import assert_delivery_modes_equivalent

    per_message, _ = assert_delivery_modes_equivalent(
        ExperimentConfig(
            protocol="hid-can",
            demand_ratio=0.5,
            n_nodes=48,
            duration=3000.0,
            sample_period=1000.0,
            seed=2,
            pidcan=PIDCANParams(phase_buckets=16),
        )
    )
    assert per_message.generated > 0


def test_mega_scenario_smoke():
    """The mega tier runs end-to-end at toy size with every coalescing
    lever on (cohort ticking, arrival quantum, delivery quantum, memory
    budget)."""
    from repro.experiments.scenarios import run_scenario

    results = run_scenario("mega", scale="tiny", seed=1,
                           n_nodes=64, duration=600.0)
    result = results["hid-can"]
    assert result.config.pidcan.phase_buckets >= 1
    assert result.config.arrival_quantum > 0
    assert result.config.delivery_quantum > 0
    assert result.generated > 0


def test_mega2_scenario_smoke():
    """The mega2 tier (every mega lever, three times the population)
    runs end-to-end at toy size."""
    from repro.experiments.scenarios import run_scenario

    results = run_scenario("mega2", scale="tiny", seed=1,
                           n_nodes=96, duration=600.0)
    result = results["hid-can"]
    assert result.config.pidcan.phase_buckets >= 1
    assert result.config.delivery_quantum > 0
    assert result.generated > 0


def test_cache_off_equivalence_smoke():
    """Fast-gate smoke of the hot-range cache's opt-in contract: with
    ``cache_policy=None`` a small Zipf-skewed cell is bit-identical
    whether the PIList is the RangeCache TTL policy or the verbatim seed
    scalar, and no cache counter moves (the paper-scale and churn cells
    live in tests/experiments/test_hotrange.py)."""
    from repro.experiments.config import ExperimentConfig
    from repro.testing import assert_cache_off_equivalent

    stock, _ = assert_cache_off_equivalent(
        ExperimentConfig(
            protocol="hid-can",
            demand_ratio=0.5,
            n_nodes=48,
            duration=3000.0,
            sample_period=1000.0,
            seed=2,
            zipf_s=1.0,
        )
    )
    assert stock.generated > 0
    assert stock.cache_lookups == 0


def test_construction_digest_smoke():
    """Fast-gate pin of cell construction: a 300-node HID-CAN cell must
    build the zones, adjacency, edge directions, pointer tables, LANs and
    machines recorded in tests/experiments/construction_digests.json, so
    an edit that reorders one set-up RNG draw fails here in a second
    (the 500-node, churned and reference-overlay cells live in
    tests/experiments/test_construction.py)."""
    from repro.experiments.runner import SOCSimulation
    from repro.testing import construction_digest
    from tests.experiments.construction import construction_cell, recorded_digests

    digest = construction_digest(SOCSimulation(construction_cell(300, 1)))
    assert digest == recorded_digests()["n300-seed1"]


def test_committed_campaign_artifact_matches_its_spec():
    """Cell ids are content hashes of the full config, so any config
    schema change orphans a committed campaign: ``campaign status`` sees
    nothing done and ``campaign run`` leaves the old files behind.  Every
    committed cell must be one the spec computes today — regenerate
    ``artifacts/BENCH_campaign_tiny`` when this fails."""
    from repro.experiments.campaign import campaign_status

    directory = REPO_ROOT / "artifacts" / "BENCH_campaign_tiny"
    status = campaign_status(directory)
    expected = {cell.filename for cell in status.spec.cells()}
    committed = {path.name for path in (directory / "cells").glob("*.json")}
    assert committed - expected == set(), "stale cells; regenerate the artifact"
    assert status.complete, "cells missing; regenerate the artifact"


def test_run_digest_smoke():
    """Fast-gate pin of a whole run: 300 nodes, 1000 simulated seconds
    of HID-CAN under 50 % churn must produce the task counts, per-kind
    traffic, timeouts, event units and latency report recorded in
    tests/experiments/run_digests.json before the route memo and the
    tuple heap entries landed — so a host-only change that moves the
    model fails here in a second (the other protocols, the batched path
    and the cached cell live in tests/experiments/test_run_digests.py)."""
    from tests.experiments.run_cells import digest_of, recorded_digests, run_cells

    digest = digest_of(run_cells(1)["hid-can-churn50"])
    assert digest == recorded_digests()["hid-can-churn50-seed1"]


def _count_routing(monkeypatch) -> dict[str, int]:
    """Wrap the two routers ``repro.can.inscan`` calls: the returned dict
    tallies the routes asked for, how many of them repeat their start's
    previous point, and the hops of the paths returned."""
    from repro.can import inscan, routing

    tally = {"routes": 0, "repeats": 0, "hops": 0}
    last_point: dict[int, tuple] = {}
    greedy_path, greedy_paths = routing.greedy_path, routing.greedy_paths

    def count_route(start, point) -> None:
        point = tuple(map(float, point))
        tally["routes"] += 1
        tally["repeats"] += last_point.get(start) == point
        last_point[start] = point

    def counted_path(overlay, start, point, **kwargs):
        count_route(start, point)
        path = greedy_path(overlay, start, point, **kwargs)
        tally["hops"] += len(path) - 1
        return path

    def counted_paths(overlay, starts, points, **kwargs):
        for start, point in zip(starts, points):
            count_route(int(start), point)
        paths = greedy_paths(overlay, starts, points, **kwargs)
        tally["hops"] += sum(len(path) - 1 for path in paths if path is not None)
        return paths

    monkeypatch.setattr(inscan, "greedy_path", counted_path)
    monkeypatch.setattr(inscan, "greedy_paths", counted_paths)
    return tally


def test_route_memo_smoke(monkeypatch):
    """The last-route memo must be live in a real cell, and must survive
    the pointer-table refreshes that land on recorded routes.  Over six
    state cycles of a static 300-node HID-CAN run idle nodes re-report
    the same point, while the staggered hourly refresh rebuilds the block
    of every other node: replaying hop by hop serves 97 % of the routes
    that repeat their start's previous point (seeds 1-4), dropping a
    route for one rebuilt block serves 70 %.  Every route that reached
    the pool is tallied exactly once, as a hit or as a miss.  A refactor
    that bypasses the memo, or brings all-or-nothing back, fails here,
    not in a benchmark."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    tally = _count_routing(monkeypatch)
    cycle = ExperimentConfig().pidcan.state_period
    sim = SOCSimulation(ExperimentConfig(
        n_nodes=300, duration=6 * cycle, seed=1, protocol="hid-can", demand_ratio=0.5,
    ))
    sim.run()
    (pool,) = sim.protocol.overlay._route_pools.values()
    assert pool.tables is sim.protocol.tables
    assert pool.route_hits + pool.route_misses == tally["routes"] > 6 * 300
    assert tally["repeats"] > 1000
    assert pool.route_hits >= 0.85 * tally["repeats"]
    assert 0 < pool.route_repairs <= pool.route_hits
    assert len(pool.routes) <= len(sim.protocol.overlay)


def test_narrow_front_smoke(routing_spy):
    """The width rule of ``greedy_paths`` must hold in both directions:
    a batch of at most ``_NARROW_FRONT`` routes pays one start-distance
    pass and then one ``pool.hop`` per greedy hop — no lockstep round,
    which costs ~45 numpy calls whatever it carries — while a wide batch
    makes most of its hops in rounds.  A refactor that sends the arrival
    bursts of ``mega_coalesced`` (three queries on average) through
    rounds again, or state rounds through the scalar hop, fails here,
    not in a benchmark."""
    import numpy as np

    from repro.can import routing
    from repro.can.inscan import build_index_table, inscan_paths
    from tests.conftest import make_overlay

    spy = routing_spy
    overlay = make_overlay(300, 5, seed=1)
    rng = np.random.default_rng(2)
    tables = {n: build_index_table(overlay, n, rng) for n in range(300)}
    pool = routing._pool_for(overlay, tables)
    for width in (1, routing._NARROW_FRONT, 4 * routing._NARROW_FRONT):
        starts = rng.choice(300, size=width, replace=False).tolist()
        pool.routes.clear()
        spy.kernel, spy.hops[:] = 0, []
        inscan_paths(overlay, tables, starts, rng.random((width, 5)))
        greedy_hops = sum(pool.routes[s][2] - 1 for s in starts)
        assert greedy_hops > width
        if width <= routing._NARROW_FRONT:
            assert (spy.kernel, len(spy.hops)) == (1 + greedy_hops, greedy_hops)
        else:
            assert len(spy.hops) < greedy_hops / 2
            assert spy.kernel - 1 - len(spy.hops) < greedy_hops / 2  # rounds


def test_route_pool_survives_churn_smoke(monkeypatch):
    """Candidate blocks must outlive joins and leaves that do not touch
    their node: a 300-node HID-CAN cell under 50 % churn builds a block
    for fewer than half of its routed hops (a third, measured; two
    thirds when every overlay epoch empties the pool).  A refactor that
    brings the epoch reset back fails here, not only in the bench — and
    the surviving pool must pass the overlay's own audit at the end."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    tally = _count_routing(monkeypatch)
    sim = SOCSimulation(ExperimentConfig(
        n_nodes=300, duration=1000.0, seed=1, protocol="hid-can",
        demand_ratio=0.5, churn_degree=0.5,
    ))
    sim.run()
    overlay = sim.protocol.overlay
    (pool,) = overlay._route_pools.values()
    assert pool.tables is sim.protocol.tables
    assert tally["hops"] > 2000 and 0 < pool.fills < tally["hops"] / 2
    # One block per member however many were rebuilt, none a departed node's.
    assert pool.fills > len(pool.index)
    assert_no_dead_storage(pool, overlay)
    overlay.check_invariants()


def test_oracle_budget_and_allocator_gate():
    """ROADMAP item 5: ``repro/testing.py`` is capped at its line count,
    so a PR that leaves the path it replaced behind as an oracle has to
    retire another.  And the routing pool stays an index of arrays — the
    fields of the offset-recycling arena it used to be may not return."""
    from repro.can.routing import _RouteBlockPool

    lines = len((REPO_ROOT / "src/repro/testing.py").read_text().splitlines())
    assert lines <= 1458, "a new oracle displaces an old one"
    assert not {"ids", "n", "waste", "generation"} & set(_RouteBlockPool.__slots__)
    assert len(_RouteBlockPool.__slots__) == 9
