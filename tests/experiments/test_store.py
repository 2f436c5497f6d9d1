"""Tests for experiment result persistence."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.experiments.store import (
    diff_results,
    load_results,
    result_to_dict,
    save_results,
)


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

    assert set(SUMMARY_METRICS) <= set(doc["metrics"]) & set(result.summary())


def test_roundtrip(tmp_path, result):
    path = save_results({"hid-can": result}, tmp_path / "runs.json")
    loaded = load_results(path)
    assert set(loaded) == {"hid-can"}
    assert loaded["hid-can"]["metrics"]["finished"] == result.finished
    # the document is plain JSON
    json.loads(path.read_text())


def test_schema_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "runs": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_results(path)


def test_diff_identical_is_empty(tmp_path, result):
    path = save_results({"a": result}, tmp_path / "runs.json")
    runs = load_results(path)
    assert diff_results(runs, runs) == []


def test_diff_detects_metric_change(tmp_path, result):
    path = save_results({"a": result}, tmp_path / "runs.json")
    old = load_results(path)
    new = json.loads(json.dumps(old))
    new["a"]["metrics"]["t_ratio"] += 0.1
    lines = diff_results(old, new)
    assert any("a.t_ratio" in line for line in lines)
    # within tolerance → silent
    assert diff_results(old, new, tolerance=0.2) == []


def test_diff_detects_missing_labels(tmp_path, result):
    path = save_results({"a": result}, tmp_path / "runs.json")
    runs = load_results(path)
    lines = diff_results(runs, {})
    assert lines == ["a: only in old"]
    lines = diff_results({}, runs)
    assert lines == ["a: only in new"]


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
