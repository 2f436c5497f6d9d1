"""Tests for the command-line interface."""

import pytest

from repro.experiments import cli


def test_parser_accepts_known_scenarios():
    parser = cli.build_parser()
    args = parser.parse_args(["fig5", "--scale", "tiny", "--seed", "7"])
    assert args.scenario == "fig5"
    assert args.scale == "tiny"
    assert args.seed == 7


def test_parser_rejects_unknown_scenario():
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_parser_rejects_unknown_scale():
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig5", "--scale", "galactic"])


def test_parser_accepts_burst_scenario_and_factor():
    parser = cli.build_parser()
    args = parser.parse_args(["burst", "--scale", "tiny", "--burst-factor", "4"])
    assert args.scenario == "burst"
    assert args.burst_factor == 4.0


def test_burst_factor_rejected_for_other_scenarios(capsys):
    rc = cli.main(["fig5", "--burst-factor", "4"])
    assert rc == 2
    assert "burst" in capsys.readouterr().err


def test_main_forwards_burst_factor(monkeypatch, capsys):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    seen = {}

    def stub_run_scenario(name, scale, seed, **kwargs):
        seen.update(name=name, **kwargs)
        cfg = ExperimentConfig(
            n_nodes=25, duration=2000.0, demand_ratio=0.4, seed=seed,
            sample_period=1000.0,
        )
        return {"hid-can": SOCSimulation(cfg).run()}

    monkeypatch.setattr("repro.experiments.cli.run_scenario", stub_run_scenario)
    rc = cli.main(["burst", "--scale", "tiny", "--burst-factor", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert seen == {"name": "burst", "burst_factor": 3.0}
    assert "query delay" in captured.out  # burst renders the latency table


def test_main_renders_scenario(monkeypatch, capsys):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    def stub_scenario(scale="small", seed=42):
        cfg = ExperimentConfig(
            n_nodes=25, duration=2000.0, demand_ratio=0.4, seed=seed,
            sample_period=1000.0,
        )
        return {"hid-can": SOCSimulation(cfg).run()}

    monkeypatch.setattr(
        "repro.experiments.cli.run_scenario",
        lambda name, scale, seed: stub_scenario(scale=scale, seed=seed),
    )
    rc = cli.main(["fig5", "--scale", "tiny", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "throughput ratio" in captured.out
    assert "wall clock" in captured.out


# ----------------------------------------------------------------------
# campaign subcommand
# ----------------------------------------------------------------------
def test_parse_cli_dispatches_both_families():
    args = cli.parse_cli(["fig5", "--scale", "tiny"])
    assert args.scenario == "fig5"
    args = cli.parse_cli(
        ["campaign", "run", "--scenarios", "fig4a", "--seeds", "1", "2"]
    )
    assert args.command == "run"
    assert args.scenarios == ["fig4a"]
    assert args.seeds == [1, 2]


def test_campaign_parser_rejects_bad_input():
    with pytest.raises(SystemExit):
        cli.parse_cli(["campaign"])  # subcommand required
    with pytest.raises(SystemExit):
        cli.parse_cli(["campaign", "run", "--scenarios", "fig99"])
    with pytest.raises(SystemExit):
        cli.parse_cli(["campaign", "report"])  # --dir required


def test_parse_overrides():
    assert cli._parse_overrides(["n_nodes=60", "duration=3600", "protocol=hid-can"]) \
        == {"n_nodes": 60, "duration": 3600, "protocol": "hid-can"}
    with pytest.raises(ValueError):
        cli._parse_overrides(["n_nodes"])


def test_campaign_run_status_report_end_to_end(tmp_path, capsys):
    directory = str(tmp_path / "camp")
    run_args = [
        "campaign", "run", "--scenarios", "fig4a", "--scales", "tiny",
        "--seeds", "1", "--protocols", "newscast", "sid-can",
        "--override", "n_nodes=25", "duration=2500", "sample_period=1000",
        "--dir", directory, "--workers", "2",
    ]
    assert cli.main(run_args) == 0
    out = capsys.readouterr().out
    assert "2 cell(s) run" in out

    # a second identical invocation re-runs zero cells
    assert cli.main(run_args) == 0
    assert "0 cell(s) run, 2 skipped" in capsys.readouterr().out

    assert cli.main(["campaign", "status", "--dir", directory]) == 0
    assert "2/2 complete" in capsys.readouterr().out

    assert cli.main(["campaign", "report", "--dir", directory, "--chart"]) == 0
    out = capsys.readouterr().out
    assert "fig4a @ tiny" in out and "±" in out and "newscast" in out


def test_campaign_run_rejects_bad_spec(tmp_path, capsys):
    rc = cli.main([
        "campaign", "run", "--scenarios", "fig4a",
        "--override", "nonsense_field=1", "--dir", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "invalid campaign spec" in capsys.readouterr().err
    # bad override *values* are caught at spec time too, not mid-campaign
    rc = cli.main([
        "campaign", "run", "--scenarios", "fig4a",
        "--override", "n_nodes=1", "--dir", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "invalid campaign spec" in capsys.readouterr().err


def test_campaign_report_missing_dir(tmp_path, capsys):
    rc = cli.main(["campaign", "report", "--dir", str(tmp_path / "nothing")])
    assert rc == 2
    assert "cells" in capsys.readouterr().err
