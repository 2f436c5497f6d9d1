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


def test_zone_store_equivalence_smoke():
    """Fast-gate smoke of the overlay substrate: one short randomized
    join/leave/route/diffuse schedule through both the vectorized
    ZoneStore-backed overlay and the verbatim scalar reference must stay
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
    """The mega2 tier (compact dtypes on top of every mega lever) runs
    end-to-end at toy size."""
    from repro.experiments.scenarios import run_scenario

    results = run_scenario("mega2", scale="tiny", seed=1,
                           n_nodes=96, duration=600.0)
    result = results["hid-can"]
    assert result.config.compact_dtypes
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
