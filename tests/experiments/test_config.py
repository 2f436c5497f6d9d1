"""Tests for experiment configuration, presets and JSON round-trip."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.protocol import PIDCANParams
from repro.experiments.config import (
    SCALES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
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
    # A NaN horizon hung the run, a negative one returned no samples, and
    # a zero or negative period failed only once a worker built the cell.
    nan = float("nan")
    for field, value in [
        ("duration", nan), ("duration", float("inf")), ("duration", -5.0),
        ("sample_period", 0.0), ("churn_lifetime", 0.0),
        ("mean_nominal_time", -1.0), ("checkpoint_period", 0.0),
        # NaN passed ``x <= 0``-style checks, and a NaN delivery quantum
        # ran silently.
        ("mean_interarrival", nan), ("burst_factor", nan),
        ("arrival_quantum", nan), ("delivery_quantum", nan),
        ("cache_ttl", nan), ("replication_window", nan), ("zipf_s", nan),
    ]:
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})
    # A negative or NaN latency, or a negative bandwidth, failed deep in
    # the run ("cannot schedule at ... < now"); an infinite bandwidth
    # bound overflowed numpy in set-up; a zero LAN size gave every node
    # its own LAN.
    for field, value in [
        ("lan_latency_s", -0.001), ("wan_latency_s", nan),
        ("wan_latency_s", float("inf")), ("lan_bw_mbps_lo", -1.0),
        ("lan_bw_mbps_lo", 0.0), ("wan_bw_mbps_lo", nan),
        ("lan_bw_mbps_hi", 4.0), ("wan_bw_mbps_hi", float("inf")),
        ("wan_bw_mbps_hi", nan), ("lan_size", 0),
    ]:
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(network=NetworkParams(**{field: value}))


@pytest.mark.parametrize("field", [
    "state_ttl", "state_period", "diffusion_period", "pilist_ttl",
    "table_refresh_period", "query_timeout",
])
@pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
def test_pidcan_periods_and_ttls_must_be_finite_and_positive(field, value):
    """A zero state period hung the run, a NaN TTL never expired a
    record, a negative diffusion period failed deep in set-up."""
    with pytest.raises(ValueError, match=field):
        PIDCANParams(**{field: value})


@pytest.mark.parametrize("field", ["L", "delta", "jump_list_size", "pilist_max"])
def test_pidcan_counts_must_be_at_least_one(field):
    with pytest.raises(ValueError, match=field):
        PIDCANParams(**{field: 0})
    PIDCANParams(**{field: 1})


def test_with_protocol_merges_kwargs():
    """``protocol_kwargs`` reach the protocol the run builds."""
    from repro.experiments.runner import SOCSimulation

    cfg = ExperimentConfig(n_nodes=16, duration=600.0, protocol="khdn-can",
                           protocol_kwargs={"k_hops": 3})
    assert SOCSimulation(cfg).protocol.k_hops == 3
    assert config_from_dict(config_to_dict(cfg)).protocol_kwargs == {"k_hops": 3}


def test_env_scale(monkeypatch):
    """The one ``REPRO_SCALE`` reader, the benchmarks' ``scale`` fixture."""
    from benchmarks.conftest import read_scale

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert read_scale("tiny") == "tiny"
    monkeypatch.setenv("REPRO_SCALE", "paper")
    assert read_scale() == "paper"
    monkeypatch.setenv("REPRO_SCALE", "galactic")
    with pytest.raises(ValueError):
        read_scale()


def test_params_fields_must_be_their_dataclasses():
    with pytest.raises(TypeError, match="PIDCANParams"):
        ExperimentConfig(pidcan={"delta": 1})
    with pytest.raises(TypeError, match="NetworkParams"):
        ExperimentConfig(network={"lan_size": 10})


def test_describe_mentions_key_facts():
    cfg = ExperimentConfig.at_scale("tiny", demand_ratio=0.5, churn_degree=0.25)
    text = cfg.describe()
    assert "0.5" in text and "churn" in text


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


# ----------------------------------------------------------------------
# the config surface: one home per knob, and it cannot regrow unnoticed
# ----------------------------------------------------------------------
def test_no_knob_is_declared_twice():
    names = [
        f.name
        for cls in (ExperimentConfig, PIDCANParams, NetworkParams)
        for f in dataclasses.fields(cls)
    ]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []


def test_field_counts_only_grow_by_editing_this_test():
    assert len(dataclasses.fields(ExperimentConfig)) <= 32
    assert len(dataclasses.fields(PIDCANParams)) <= 17


#: ``run.config`` of the committed cell
#: ``mega-tiny-seed1-hid-can-3abd3e47301e.json`` as of commit bf13c2e, the
#: last one before the measured-away knobs were retired.
PARENT_CELL_CONFIG = json.loads(
    '{"admission": "none", "arrival_quantum": 1.0, "burst_factor": 1.0, '
    '"cache_policy": null, "cache_replication": false, "cache_size": 128, '
    '"cache_ttl": 1200.0, "checkpoint_enabled": false, "checkpoint_period": '
    '600.0, "churn_degree": 0.0, "churn_kills_tasks": false, "churn_lifetime": '
    '3000.0, "cmax_mode": "exact", "compact_dtypes": false, "delivery_quantum": '
    '0.1, "demand_ratio": 0.5, "duration": 1200.0, "hot_ranges": 64, '
    '"local_first": false, "mean_interarrival": 3000.0, "mean_nominal_time": '
    '3000.0, "memory_budget_mb": 768.0, "memory_sweep_period": 300.0, '
    '"n_nodes": 4000, "network": {"lan_bw_mbps_hi": 10.0, "lan_bw_mbps_lo": '
    '5.0, "lan_latency_s": 0.005, "lan_size": 20, "wan_bw_mbps_hi": 2.0, '
    '"wan_bw_mbps_lo": 0.2, "wan_latency_s": 0.2}, "pidcan": {"L": 2, '
    '"cache_policy": null, "cache_replication": false, "cache_size": 128, '
    '"cache_ttl": 1200.0, "check_duty_cache": true, "compact_dtypes": false, '
    '"delta": 3, "diffusion_method": "hid", "diffusion_period": 400.0, '
    '"jump_list_size": 5, "phase_buckets": 16, "pilist_max": 64, "pilist_ttl": '
    '1200.0, "query_timeout": 60.0, "replication_threshold": 8, '
    '"replication_window": 400.0, "resource_dims": 5, "sos": false, "sos_bias": '
    '1.0, "state_period": 400.0, "state_ttl": 600.0, "table_refresh_period": '
    '3600.0, "vd": false}, "placement_retries": 2, "protocol": "hid-can", '
    '"protocol_kwargs": {}, "query_failsafe_timeout": 180.0, '
    '"range_width_alpha": 1.5, "replication_threshold": 8, '
    '"replication_window": 400.0, "sample_period": 300.0, "seed": 1, '
    '"selection_policy": "best-fit", "trace_tasks": false, "zipf_s": 0.0}'
)


def test_config_from_dict_reads_a_cell_from_before_the_knobs_were_retired():
    cells = Path(__file__).parents[2] / "artifacts" / "BENCH_campaign_tiny" / "cells"
    (regenerated,) = cells.glob("mega-tiny-seed1-hid-can-*.json")
    today = json.loads(regenerated.read_text())["run"]["config"]
    assert config_to_dict(config_from_dict(PARENT_CELL_CONFIG)) == today
    # The memory sweep changed no result at any setting: always droppable.
    swept = dict(PARENT_CELL_CONFIG, memory_budget_mb=0.001, memory_sweep_period=1.0)
    assert config_to_dict(config_from_dict(swept)) == today


@pytest.mark.parametrize(
    "section, field, value",
    [
        (None, "compact_dtypes", True),
        (None, "query_failsafe_timeout", 30),
        ("pidcan", "cache_policy", "lru"),
    ],
)
def test_config_from_dict_refuses_a_retired_knob_it_cannot_honour(
    section, field, value
):
    doc = json.loads(json.dumps(PARENT_CELL_CONFIG))
    (doc[section] if section else doc)[field] = value
    with pytest.raises(ValueError, match=field):
        config_from_dict(doc)
