"""Tests for experiment configuration, presets and JSON round-trip."""

import dataclasses
import json

import pytest

from repro.core.protocol import PIDCANParams
from repro.experiments.config import (
    SCALES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    env_scale,
)
from repro.sim.network import NetworkParams


def test_scale_presets():
    paper = ExperimentConfig.at_scale("paper")
    assert (paper.n_nodes, paper.duration) == (2000, 86400.0)
    tiny = ExperimentConfig.at_scale("tiny")
    assert tiny.n_nodes < paper.n_nodes
    assert set(SCALES) == {"paper", "small", "tiny"}


def test_at_scale_applies_overrides():
    cfg = ExperimentConfig.at_scale("tiny", protocol="newscast", demand_ratio=0.25)
    assert cfg.protocol == "newscast"
    assert cfg.demand_ratio == 0.25


def test_unknown_scale_rejected():
    with pytest.raises(ValueError, match="unknown scale"):
        ExperimentConfig.at_scale("huge")


def test_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_nodes=1)
    with pytest.raises(ValueError):
        ExperimentConfig(admission="maybe")
    with pytest.raises(ValueError):
        ExperimentConfig(cmax_mode="oracle")
    with pytest.raises(ValueError):
        ExperimentConfig(churn_degree=1.0)


def test_with_protocol_merges_kwargs():
    cfg = ExperimentConfig().with_protocol("khdn-can", k_hops=3)
    assert cfg.protocol == "khdn-can"
    assert cfg.protocol_kwargs == {"k_hops": 3}


def test_describe_mentions_key_facts():
    cfg = ExperimentConfig.at_scale("tiny", demand_ratio=0.5, churn_degree=0.25)
    text = cfg.describe()
    assert "0.5" in text and "churn" in text


def test_env_scale(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert env_scale("tiny") == "tiny"
    monkeypatch.setenv("REPRO_SCALE", "paper")
    assert env_scale() == "paper"
    monkeypatch.setenv("REPRO_SCALE", "galactic")
    with pytest.raises(ValueError):
        env_scale()


def test_burst_factor_scales_effective_interarrival():
    cfg = ExperimentConfig(mean_interarrival=3000.0, burst_factor=8.0)
    assert cfg.effective_interarrival == pytest.approx(375.0)
    assert ExperimentConfig().effective_interarrival == pytest.approx(3000.0)
    assert "burst=8x" in cfg.describe()
    assert "burst" not in ExperimentConfig().describe()


def test_burst_factor_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(burst_factor=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(mean_interarrival=0.0)


# ----------------------------------------------------------------------
# JSON round-trip (campaign persistence relies on this being exact)
# ----------------------------------------------------------------------
def test_config_roundtrip_default():
    cfg = ExperimentConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_roundtrip_nontrivial():
    cfg = ExperimentConfig.at_scale(
        "tiny",
        protocol="khdn-can",
        demand_ratio=0.25,
        seed=9,
        burst_factor=4.0,
        churn_degree=0.5,
        admission="strict",
        local_first=True,
        protocol_kwargs={"k_hops": 3},
        pidcan=dataclasses.replace(PIDCANParams(), sos=True, delta=5),
        network=dataclasses.replace(NetworkParams(), lan_size=10),
    )
    rebuilt = config_from_dict(config_to_dict(cfg))
    assert rebuilt == cfg
    assert rebuilt.pidcan.sos is True
    assert rebuilt.network.lan_size == 10
    assert rebuilt.protocol_kwargs == {"k_hops": 3}


def test_config_roundtrip_survives_disk_json(tmp_path):
    cfg = ExperimentConfig.at_scale("tiny", protocol="newscast", seed=3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert config_from_dict(json.loads(path.read_text())) == cfg


def test_config_from_dict_rejects_unknown_fields():
    doc = config_to_dict(ExperimentConfig())
    doc["warp_speed"] = 11
    with pytest.raises(ValueError, match="unknown config fields"):
        config_from_dict(doc)


def test_config_from_dict_reads_documents_from_before_the_paths_collapsed():
    """Stored documents that still carry the retired lever flags load:
    the flags selected between result-identical paths, so dropping them
    keeps the cell's meaning."""
    cfg = ExperimentConfig(
        arrival_quantum=1.0, delivery_quantum=0.1,
        pidcan=PIDCANParams(phase_buckets=16),
    )
    doc = config_to_dict(cfg)
    doc.update(coalesce_arrivals=True, coalesce_deliveries=True)
    doc["pidcan"]["tick_mode"] = "cohort"
    assert config_from_dict(doc) == cfg

    # Per-message scheduling never applied the quantum it was stored with.
    doc["coalesce_deliveries"] = False
    assert config_from_dict(doc) == dataclasses.replace(cfg, delivery_quantum=0.0)

    doc["pidcan"]["tick_style"] = "cohort"
    with pytest.raises(TypeError, match="tick_style"):
        config_from_dict(doc)
