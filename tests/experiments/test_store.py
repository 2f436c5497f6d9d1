"""Tests for experiment result persistence."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.experiments.store import result_to_dict


@pytest.fixture(scope="module")
def result():
    cfg = ExperimentConfig(
        n_nodes=30, duration=2500.0, demand_ratio=0.4, seed=6,
        sample_period=1000.0,
    )
    return SOCSimulation(cfg).run()


def test_result_to_dict_shape(result):
    doc = result_to_dict(result)
    assert doc["metrics"]["generated"] == result.generated
    assert doc["config"]["n_nodes"] == 30
    assert "t_ratio" in doc["series"]
    assert len(doc["series"]["t_ratio"]["times"]) == 2
    assert doc["balance"]["placements"] == result.balance.placements
    # timeout-failure accounting reaches the persisted document, and every
    # metric the campaign report aggregates is stored under the same name
    assert doc["metrics"]["query_timeouts"] == result.query_timeouts
    from repro.experiments.multiseed import SUMMARY_METRICS

    assert set(SUMMARY_METRICS) <= set(doc["metrics"])


def _same_doc(a, b) -> bool:
    """Document equality with NaN equal to NaN (cache-off ratios are NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_roundtrip(tmp_path, result):
    """A whole run document survives the disk, NaN metrics included."""
    from repro.experiments.store import load_cell_doc, save_cell_doc

    run = result_to_dict(result)
    assert run["metrics"]["cache_hit_ratio"] != run["metrics"]["cache_hit_ratio"]  # NaN
    doc = load_cell_doc(save_cell_doc(tmp_path / "cell.json", {"id": "x"}, run))
    assert _same_doc(doc["run"], run)


def test_schema_version_checked(tmp_path, result):
    """A campaign holding a cell of another layout refuses to load it
    rather than aggregating it."""
    from repro.experiments.campaign import load_campaign_cells
    from repro.experiments.store import save_cell_doc

    cells = tmp_path / "cells"
    cells.mkdir()
    save_cell_doc(cells / "a.json", {"id": "a"}, result_to_dict(result))
    assert len(load_campaign_cells(tmp_path)) == 1
    (cells / "b.json").write_text(json.dumps({"schema": 0, "cell": {}, "run": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_campaign_cells(tmp_path)


def test_diff_identical_is_empty(result):
    """Diffing two versions' cells (docs/experiments.md) relies on a config
    storing the same metrics every time it runs."""
    again = SOCSimulation(result.config).run()
    for section in ("metrics", "balance", "query_latency", "traffic_by_kind", "series"):
        assert _same_doc(result_to_dict(again)[section], result_to_dict(result)[section])


def test_diff_detects_metric_change(result):
    """A changed config is a different cell: another file name and other
    stored metrics."""
    from dataclasses import replace

    from repro.experiments.campaign import CampaignCell

    changed = SOCSimulation(replace(result.config, seed=7)).run()
    cell = CampaignCell("fig5", "tiny", 6, "hid-can", result.config)
    assert CampaignCell("fig5", "tiny", 6, "hid-can", changed.config).filename != cell.filename
    assert CampaignCell("fig5", "tiny", 6, "hid-can", result.config).filename == cell.filename
    assert result_to_dict(changed)["metrics"] != result_to_dict(result)["metrics"]


def test_diff_detects_missing_labels():
    """A curve present in one version's grid only is a cell file present in
    one cells directory only; the shared curves keep their file names."""
    from repro.experiments.campaign import CampaignSpec

    def files(protocols):
        spec = CampaignSpec(scenarios=["fig5"], scales=["tiny"], seeds=[1],
                            protocols=protocols, overrides={"n_nodes": 25})
        return {cell.filename for cell in spec.cells()}

    before, after = files(["hid-can"]), files(["hid-can", "newscast"])
    assert before < after
    assert [name for name in after - before if "newscast" in name] == sorted(after - before)


def test_result_doc_config_roundtrips_to_identical_config(result):
    from repro.experiments.config import config_from_dict

    doc = result_to_dict(result)
    assert config_from_dict(doc["config"]) == result.config


def test_cell_doc_roundtrip(tmp_path, result):
    from repro.experiments.store import load_cell_doc, save_cell_doc

    cell = {"id": "abc123", "scenario": "fig5", "scale": "tiny", "seed": 6,
            "label": "hid-can", "worker_pid": 4242}
    path = save_cell_doc(tmp_path / "cell.json", cell, result_to_dict(result))
    doc = load_cell_doc(path)
    assert doc["cell"] == cell
    assert doc["run"]["metrics"]["generated"] == result.generated
    # atomic write leaves no temp file behind
    assert list(tmp_path.iterdir()) == [path]


def test_cell_doc_schema_and_shape_checked(tmp_path):
    from repro.experiments.store import SCHEMA_VERSION, load_cell_doc

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99, "cell": {}, "run": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_cell_doc(bad)
    bad.write_text(json.dumps({"schema": SCHEMA_VERSION, "cell": {}}))
    with pytest.raises(ValueError, match="malformed"):
        load_cell_doc(bad)
