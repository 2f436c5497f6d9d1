"""Tests for parallel campaign grids: spec round-trip, cell identity,
process-pool execution, skip/resume semantics and document aggregation."""

import json

import pytest

from repro.experiments.campaign import (
    SPEC_FILENAME,
    CampaignSpec,
    campaign_status,
    campaign_summary,
    load_campaign_cells,
    run_campaign,
)
from repro.experiments.config import config_from_dict, config_to_dict
from repro.experiments.scenarios import FIG4_PROTOCOLS
from repro.experiments.store import SCHEMA_VERSION, load_cell_doc, save_cell_doc

#: Shrinks every cell far below the named scales so the grid runs in
#: seconds while still exercising the full simulation stack.
FAST = {"n_nodes": 25, "duration": 2500.0, "sample_period": 1000.0}


def small_spec(**kw) -> CampaignSpec:
    doc = dict(
        name="testcamp",
        scenarios=["fig4a"],
        scales=["tiny"],
        seeds=[1, 2],
        overrides=dict(FAST),
    )
    doc.update(kw)
    return CampaignSpec.from_dict(doc)


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------
def test_spec_dict_roundtrip():
    spec = small_spec(protocols=["newscast", "sid-can"])
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    # and through actual JSON text
    assert CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown scenarios"):
        small_spec(scenarios=["fig99"])
    with pytest.raises(ValueError, match="unknown scales"):
        small_spec(scales=["galactic"])
    with pytest.raises(ValueError, match="non-empty"):
        small_spec(seeds=[])
    with pytest.raises(ValueError, match="unknown campaign spec fields"):
        CampaignSpec.from_dict({"scenarioz": ["fig5"]})
    # A repeated value expanded to duplicate cells, each run once per copy.
    for axis, values, repeated in [
        ("scenarios", ["fig5", "fig5"], "fig5"), ("scales", ["tiny", "tiny"], "tiny"),
        ("seeds", [1, 2, 1], "1"), ("protocols", ["sid-can", "newscast", "sid-can"], "sid-can"),
    ]:
        with pytest.raises(ValueError, match=f"repeated {axis}.*{repeated}"):
            small_spec(**{axis: values})


def test_spec_from_json(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert CampaignSpec.from_json(path) == spec


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
def test_cells_cover_the_grid():
    spec = small_spec(seeds=[1, 2, 3])
    cells = spec.cells()
    assert len(cells) == len(FIG4_PROTOCOLS) * 3  # protocols × seeds
    assert {c.seed for c in cells} == {1, 2, 3}
    assert {c.label for c in cells} == set(FIG4_PROTOCOLS)
    # overrides reached every config
    assert all(c.config.n_nodes == 25 for c in cells)
    assert all(c.config.seed == c.seed for c in cells)


def test_protocol_filter():
    cells = small_spec(protocols=["newscast"]).cells()
    assert {c.config.protocol for c in cells} == {"newscast"}
    assert len(cells) == 2  # one per seed


def test_cell_ids_stable_and_unique():
    a = small_spec().cells()
    b = small_spec().cells()
    ids = [c.cell_id for c in a]
    assert ids == [c.cell_id for c in b]  # content-hash, not object identity
    assert len(set(ids)) == len(ids)
    # different grid coordinates or config → different id
    changed = small_spec(overrides={**FAST, "n_nodes": 30}).cells()
    assert set(ids).isdisjoint(c.cell_id for c in changed)


# ----------------------------------------------------------------------
# execution + resume (one real campaign, shared by the tests below)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign")
    spec = small_spec()
    report = run_campaign(spec, directory, max_workers=2)
    return directory, spec, report


def test_run_writes_one_doc_per_cell(campaign_dir):
    directory, spec, report = campaign_dir
    cells = spec.cells()
    assert sorted(report.ran) == sorted(c.cell_id for c in cells)
    assert report.skipped == ()
    files = sorted((directory / "cells").glob("*.json"))
    assert len(files) == len(cells)
    assert (directory / SPEC_FILENAME).exists()


def test_run_used_multiple_workers(campaign_dir):
    _, _, report = campaign_dir
    assert len(report.worker_pids) >= 2  # observable parallelism


def test_cell_documents_are_complete(campaign_dir):
    directory, spec, _ = campaign_dir
    by_id = {c.cell_id: c for c in spec.cells()}
    for path in (directory / "cells").glob("*.json"):
        doc = load_cell_doc(path)
        cell = by_id[doc["cell"]["id"]]
        assert doc["cell"]["scenario"] == "fig4a"
        assert doc["cell"]["label"] == cell.label
        assert doc["cell"]["worker_pid"] > 0
        # the persisted config round-trips to the exact cell config
        assert config_from_dict(doc["run"]["config"]) == cell.config
        assert doc["run"]["metrics"]["generated"] > 0


def test_second_run_skips_every_completed_cell(campaign_dir):
    directory, spec, _ = campaign_dir
    again = run_campaign(spec, directory, max_workers=2)
    assert again.ran == ()
    assert sorted(again.skipped) == sorted(c.cell_id for c in spec.cells())
    assert again.worker_pids == ()


def test_resume_runs_only_missing_cells(campaign_dir):
    directory, spec, _ = campaign_dir
    victim = spec.cells()[0]
    (directory / "cells" / victim.filename).unlink()
    resumed = run_campaign(spec, directory, max_workers=1)
    assert resumed.ran == (victim.cell_id,)
    assert len(resumed.skipped) == len(spec.cells()) - 1
    assert (directory / "cells" / victim.filename).exists()


def test_corrupt_cell_is_rerun(campaign_dir):
    directory, spec, _ = campaign_dir
    victim = spec.cells()[1]
    (directory / "cells" / victim.filename).write_text("{ truncated")
    resumed = run_campaign(spec, directory, max_workers=1)
    assert resumed.ran == (victim.cell_id,)
    load_cell_doc(directory / "cells" / victim.filename)  # valid again


def test_growing_the_grid_runs_only_new_seeds(campaign_dir):
    directory, spec, _ = campaign_dir
    grown = small_spec(seeds=[1, 2, 3])
    report = run_campaign(grown, directory, max_workers=2)
    assert len(report.ran) == len(FIG4_PROTOCOLS)  # the seed-3 cells only
    assert all(c.seed == 3 for c in grown.cells() if c.cell_id in report.ran)


def test_status_reflects_disk(campaign_dir):
    directory, spec, _ = campaign_dir
    status = campaign_status(directory)  # spec loaded from campaign.json
    assert status.spec.name == spec.name
    assert status.complete or not status.missing


def test_prepopulated_cell_is_skipped_and_aggregated(tmp_path):
    spec = small_spec(seeds=[5, 6])
    cells = spec.cells()
    planted = cells[0]
    cells_dir = tmp_path / "cells"
    cells_dir.mkdir()
    fake_metrics = {
        "t_ratio": 0.777, "f_ratio": 0.1, "fairness": 0.9,
        "per_node_msg_cost": 3.0, "generated": 10, "finished": 7, "failed": 1,
    }
    save_cell_doc(
        cells_dir / planted.filename,
        planted.meta(),
        {"schema": SCHEMA_VERSION, "metrics": fake_metrics, "series": {}},
    )
    report = run_campaign(spec, tmp_path, max_workers=2)
    assert planted.cell_id not in report.ran
    assert planted.cell_id in report.skipped
    summary = campaign_summary(load_campaign_cells(tmp_path))
    stats = summary[("fig4a", "tiny")][planted.label]["t_ratio"]
    assert 0.777 in stats.values
    assert len(stats.values) == 2  # the planted seed plus the simulated one


# ----------------------------------------------------------------------
# aggregation (persisted documents only)
# ----------------------------------------------------------------------
def test_summary_needs_no_simulation(campaign_dir, monkeypatch):
    directory, _, _ = campaign_dir
    # report/summary must work from the documents alone
    monkeypatch.setattr(
        "repro.experiments.campaign.run_config",
        lambda *_: (_ for _ in ()).throw(AssertionError("re-simulated!")),
    )
    summary = campaign_summary(load_campaign_cells(directory))
    stats_by_label = summary[("fig4a", "tiny")]
    assert set(stats_by_label) == set(FIG4_PROTOCOLS)
    for stats in stats_by_label.values():
        ts = stats["t_ratio"]
        assert len(ts.values) == 3  # seeds 1, 2 and the grown seed 3
        lo, hi = ts.ci95()
        assert lo <= ts.mean <= hi


def test_summary_renders(campaign_dir):
    from repro.experiments.reporting import render_campaign

    directory, _, _ = campaign_dir
    text = render_campaign(campaign_summary(load_campaign_cells(directory)))
    assert "fig4a @ tiny" in text
    assert "±" in text
    assert "newscast" in text


def test_load_campaign_cells_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_campaign_cells(tmp_path / "nope")
    with pytest.raises(FileNotFoundError):
        campaign_status(tmp_path)


# ----------------------------------------------------------------------
# override semantics
# ----------------------------------------------------------------------
def test_overrides_may_change_the_scenario_regime():
    # demand-ratio ablation of a protocol grid: override wins
    cells = small_spec(overrides={**FAST, "demand_ratio": 0.33}).cells()
    assert all(c.config.demand_ratio == 0.33 for c in cells)


def test_override_of_a_swept_field_is_rejected_not_ignored():
    with pytest.raises(ValueError, match="fig8 sweeps churn_degree"):
        CampaignSpec(
            scenarios=["fig8"], scales=["tiny"], seeds=[1],
            overrides={**FAST, "churn_degree": 0.1},
        )


def test_n_nodes_override_rebases_the_table3_sweep():
    spec = CampaignSpec(
        scenarios=["table3"], scales=["tiny"], seeds=[1],
        overrides={"n_nodes": 10, "duration": 2000.0},
    )
    populations = sorted(c.config.n_nodes for c in spec.cells())
    assert populations == [10, 20, 30, 40, 50, 60]  # 1x..6x of the override


def test_grid_reserved_overrides_rejected():
    with pytest.raises(ValueError, match="'seeds' spec field"):
        small_spec(overrides={**FAST, "seed": 3})
    with pytest.raises(ValueError, match="'protocols' spec field"):
        small_spec(overrides={**FAST, "protocol": "hid-can"})


def test_bad_override_values_fail_at_spec_construction():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        small_spec(overrides={**FAST, "n_nodes": 1})
    with pytest.raises(ValueError, match="churn_lifetime"):
        small_spec(overrides={**FAST, "churn_lifetime": 0})
    # A zero state period hung the worker; a NaN quantum ran silently.
    with pytest.raises(ValueError, match="state_period"):
        small_spec(overrides={**FAST, "pidcan": {"state_period": 0.0}})
    with pytest.raises(ValueError, match="delivery_quantum"):
        small_spec(overrides={**FAST, "delivery_quantum": float("nan")})
    # A negative latency failed deep in the run, an infinite bandwidth
    # bound in set-up, and a zero LAN size ran one LAN per node.
    for field, value in [("wan_latency_s", -0.2), ("wan_bw_mbps_hi", float("inf")),
                         ("lan_size", 0)]:
        with pytest.raises(ValueError, match=field):
            small_spec(overrides={**FAST, "network": {field: value}})
    # ``--override duration=NaN`` parses (``json.loads`` takes NaN) and
    # used to hang the worker that ran the cell.
    from repro.experiments.cli import _resolve_spec, build_campaign_parser

    args = build_campaign_parser().parse_args([
        "run", "--scenarios", "fig4a", "--scales", "tiny", "--seeds", "1",
        "--override", "duration=NaN",
    ])
    with pytest.raises(ValueError, match="duration"):
        _resolve_spec(args)


def test_nested_override_merges_into_the_cells_own_params():
    """``--override 'pidcan={"delta": 1}'`` changes δ and keeps the rest of
    the scenario's params: mega's cell still ticks in cohorts, and the
    cell runs in this process as it does in a worker."""
    from dataclasses import replace

    from repro.core.protocol import PIDCANParams
    from repro.experiments.cli import _resolve_spec, build_campaign_parser
    from repro.experiments.runner import SOCSimulation

    args = build_campaign_parser().parse_args([
        "run", "--scenarios", "mega", "--scales", "tiny", "--seeds", "1",
        "--override", 'pidcan={"delta": 1}', 'network={"lan_size": 10}',
        "n_nodes=40", "duration=600",
    ])
    (cell,) = _resolve_spec(args).cells()
    assert cell.config.pidcan == replace(PIDCANParams(phase_buckets=16), delta=1)
    assert cell.config.network.lan_size == 10
    assert config_from_dict(config_to_dict(cell.config)) == cell.config
    assert SOCSimulation(cell.config).run().generated > 0


def test_unknown_nested_override_fails_at_spec_construction():
    with pytest.raises(ValueError, match="pidcan"):
        small_spec(overrides={**FAST, "pidcan": {"deltaa": 1}})
    with pytest.raises(ValueError, match="network"):
        small_spec(overrides={**FAST, "network": 3})


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------
def _run_cell_explode_newscast(config_doc):
    """Worker stand-in: fails one curve, runs the rest for real."""
    if config_doc["protocol"] == "newscast":
        raise RuntimeError("injected failure")
    import os

    from repro.experiments.config import config_from_dict
    from repro.experiments.runner import run_config
    from repro.experiments.store import result_to_dict

    return result_to_dict(run_config(config_from_dict(config_doc))), os.getpid()


def test_failed_cell_does_not_discard_completed_cells(tmp_path, monkeypatch):
    import repro.experiments.campaign as campaign_mod

    monkeypatch.setattr(campaign_mod, "_run_cell", _run_cell_explode_newscast)
    spec = small_spec(seeds=[11])
    report = run_campaign(spec, tmp_path, max_workers=2)
    assert len(report.failed) == 1
    failed_id, error = report.failed[0]
    assert "injected failure" in error
    assert len(report.ran) == len(FIG4_PROTOCOLS) - 1  # others persisted
    assert len(list((tmp_path / "cells").glob("*.json"))) == len(report.ran)
    # resume (with the failure gone) retries exactly the failed cell
    monkeypatch.undo()
    resumed = run_campaign(spec, tmp_path, max_workers=1)
    assert resumed.ran == (failed_id,)
    assert resumed.failed == ()


# ----------------------------------------------------------------------
# stale-cell exclusion
# ----------------------------------------------------------------------
def test_spec_filter_excludes_stale_cells(tmp_path):
    spec_a = small_spec(seeds=[1], protocols=["newscast"])
    spec_b = small_spec(
        seeds=[1], protocols=["newscast"], overrides={**FAST, "n_nodes": 30}
    )
    run_campaign(spec_a, tmp_path, max_workers=1)
    run_campaign(spec_b, tmp_path, max_workers=1)
    assert len(load_campaign_cells(tmp_path)) == 2  # both generations on disk
    filtered = load_campaign_cells(tmp_path, spec_b)
    assert len(filtered) == 1
    assert filtered[0]["run"]["config"]["n_nodes"] == 30
