"""Tests for scenario builders and reporting."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import (
    render_scenario,
    scalability_table,
    series_table,
    summary_table,
)
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import (
    BURST_PROTOCOLS,
    CHURN_DEGREES,
    FIG4_PROTOCOLS,
    FIG567_PROTOCOLS,
    SCENARIOS,
    run_protocol,
    run_scenario,
    scalability_populations,
)


def test_scenario_registry_covers_every_figure_and_table():
    assert set(SCENARIOS) == {
        "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "churn", "burst",
        "table3", "mega", "mega2", "hotrange",
    }


def test_protocol_lists_match_paper():
    assert set(FIG4_PROTOCOLS) == {"newscast", "sid-can", "khdn-can"}
    assert set(FIG567_PROTOCOLS) == {
        "sid-can", "hid-can", "sid-can+sos", "hid-can+sos", "sid-can+vd",
        "newscast",
    }
    assert CHURN_DEGREES == (0.0, 0.25, 0.50, 0.75, 0.95)


def test_scalability_populations_scale_with_preset():
    pops = scalability_populations("paper")
    assert pops == [2000, 4000, 6000, 8000, 10000, 12000]
    assert len(scalability_populations("tiny")) == 6


def test_run_protocol_returns_result():
    res = run_protocol("hid-can", scale="tiny", demand_ratio=0.5, seed=1,
                       n_nodes=40, duration=3000.0)
    assert res.generated > 0


def test_mega_configs_enable_every_coalescing_lever():
    from repro.experiments.scenarios import MEGA_POPULATIONS, mega_configs

    cfg = mega_configs(scale="tiny", seed=7)["hid-can"]
    assert cfg.n_nodes == MEGA_POPULATIONS["tiny"]
    assert cfg.protocol == "hid-can"
    assert cfg.pidcan.phase_buckets == 16
    assert cfg.arrival_quantum == 1.0
    shrunk = mega_configs(scale="tiny", seed=7, n_nodes=64, duration=600.0)
    assert shrunk["hid-can"].n_nodes == 64
    assert shrunk["hid-can"].duration == 600.0
    assert cfg.delivery_quantum == 0.1
    with pytest.raises(ValueError, match="unknown scale"):
        mega_configs(scale="huge")


def test_mega2_configs_are_mega_over_larger_populations():
    from repro.experiments.scenarios import (
        MEGA2_POPULATIONS, mega2_configs, mega_configs,
    )

    cfg = mega2_configs(scale="tiny", seed=7)["hid-can"]
    assert cfg.n_nodes == MEGA2_POPULATIONS["tiny"]
    assert cfg == mega_configs(
        scale="tiny", seed=7, n_nodes=MEGA2_POPULATIONS["tiny"]
    )["hid-can"]
    shrunk = mega2_configs(scale="tiny", seed=7, n_nodes=96, duration=600.0)
    assert shrunk["hid-can"].n_nodes == 96
    with pytest.raises(ValueError, match="unknown scale"):
        mega2_configs(scale="huge")


def test_run_scenario_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("fig99")


def test_burst_scenario_multiplies_arrivals():
    """The burst curves generate ~burst_factor times more tasks than the
    same protocol at the Table II arrival rate."""
    from repro.experiments.scenarios import burst_configs

    assert set(BURST_PROTOCOLS) == {"hid-can", "sid-can", "khdn-can", "newscast"}
    baseline = run_protocol(
        "hid-can", demand_ratio=0.5, seed=3, n_nodes=30, duration=3000.0
    )
    burst_run = run_protocol(
        "hid-can", demand_ratio=0.5, seed=3, n_nodes=30, duration=3000.0,
        burst_factor=6.0,
    )
    assert burst_run.generated > 3 * baseline.generated
    grid = burst_configs("tiny", burst_factor=6.0)
    assert {cfg.burst_factor for cfg in grid.values()} == {6.0}


def test_churn_grid_covers_full_protocol_axis():
    """The churn scenario sweeps (protocol × dynamic degree) across every
    protocol family — including the once-timeout-less baselines."""
    from repro.core.protocol import PROTOCOL_NAMES
    from repro.experiments.scenarios import (
        CHURN_SWEEP_DEGREES,
        CHURN_SWEEP_PROTOCOLS,
        churn_configs,
    )

    assert set(CHURN_SWEEP_PROTOCOLS) <= set(PROTOCOL_NAMES)
    for must_have in ("randomwalk-can", "khdn-can", "mercury", "inscan-rq"):
        assert must_have in CHURN_SWEEP_PROTOCOLS
    grid = churn_configs("tiny")
    assert len(grid) == len(CHURN_SWEEP_PROTOCOLS) * len(CHURN_SWEEP_DEGREES)
    assert {cfg.protocol for cfg in grid.values()} == set(CHURN_SWEEP_PROTOCOLS)
    assert {cfg.churn_degree for cfg in grid.values()} == set(CHURN_SWEEP_DEGREES)
    with pytest.raises(ValueError, match="churn_degree"):
        churn_configs("tiny", churn_degree=0.5)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def micro_results():
    out = {}
    for label, protocol in [("hid-can", "hid-can"), ("newscast", "newscast")]:
        cfg = ExperimentConfig(
            n_nodes=30, duration=3000.0, demand_ratio=0.4, seed=2,
            protocol=protocol, sample_period=1000.0,
        )
        out[label] = SOCSimulation(cfg).run()
    return out


def test_series_table_renders_all_labels(micro_results):
    text = series_table(micro_results, "t_ratio", title="throughput")
    assert "throughput" in text
    assert "hid-can" in text and "newscast" in text
    assert text.count("\n") >= 4  # header + rule + 3 samples


def test_summary_table_renders(micro_results):
    text = summary_table(micro_results, title="summary")
    assert "T-Ratio" in text and "msg/node" in text
    assert "hid-can" in text


def test_scalability_table_layout(micro_results):
    renamed = {"100": micro_results["hid-can"], "200": micro_results["newscast"]}
    text = scalability_table(renamed)
    assert "throughput ratio" in text
    assert "msg delivery cost" in text
    assert "100" in text and "200" in text


def test_render_scenario_fig_and_table(micro_results):
    fig = render_scenario("fig5", micro_results)
    assert "failed task ratio" in fig and "end-of-run summary" in fig
    fig4 = render_scenario("fig4a", micro_results)
    assert "throughput" in fig4
    table = render_scenario("table3", micro_results)
    assert "fairness index" in table


def test_series_table_empty():
    assert "no results" in series_table({}, "t_ratio")
