"""The paper-claims table judged on the committed tiny campaign (every
figure and table scenario × seeds 1-3).  Only the tripwire simulates: a
model change must regenerate the artifact (``artifacts/README.md``)
rather than leave the gate judging stale numbers."""

import json
from pathlib import Path

import pytest

from repro.experiments.campaign import CampaignSpec, load_campaign_cells
from repro.experiments.claims import CLAIMS, Claim, evaluate_claims, render_claims
from repro.experiments.config import config_from_dict
from repro.experiments.runner import run_config
from repro.experiments.store import result_to_dict

TINY = Path(__file__).parents[2] / "artifacts" / "BENCH_campaign_tiny"


@pytest.fixture(scope="module")
def docs():
    return load_campaign_cells(TINY, CampaignSpec.from_json(TINY / "campaign.json"))


def test_every_tiny_claim_passes_on_the_committed_cells(docs):
    verdicts = {v.claim.id: v for v in evaluate_claims(docs) if v.scale == "tiny"}
    assert set(verdicts) == {c.id for c in CLAIMS if "tiny" in c.scales}
    assert [id for id, v in verdicts.items() if v.status != "pass"] == []


def test_committed_cells_are_todays_model(docs):
    (doc,) = [d for d in docs if d["cell"]["scenario"] == "fig7" and d["cell"]["seed"] == 1
              and d["cell"]["label"] == "hid-can"]
    fresh = result_to_dict(run_config(config_from_dict(doc["run"]["config"])))
    for section in ("metrics", "traffic_by_kind", "series", "balance", "query_latency"):
        assert json.dumps(fresh[section], sort_keys=True) == json.dumps(
            doc["run"][section], sort_keys=True
        ), f"{section} moved: regenerate artifacts/BENCH_campaign_tiny"


def test_predicate_kinds_verdicts_and_seed_agreement():
    docs = [
        {"cell": {"scenario": "s", "scale": "tiny", "seed": seed, "label": label},
         "run": {"metrics": {"x": x}}}
        for label, seed, x in (("a", 1, 1.0), ("a", 2, 3.0), ("b", 1, 2.0), ("b", 2, 2.5))
    ]
    rows = (
        Claim("s-pair", "-", "x", "<", ("a", "b")),
        Claim("s-shifted", "-", "x", ">", ("a", "b"), k=0.5, c=0.5),
        Claim("s-constant", "-", "x", ">", ("a",), c=1.5),
        Claim("s-every", "-", "x", ">", c=2.1),
        Claim("s-spread", "-", "x", "spread", c=0.5),
        Claim("s-missing", "-", "x", "<", ("a", "zz")),
        Claim("s-elsewhere", "-", "x", ">", ("a",), scales=("paper",)),
        Claim("t-uncovered", "-", "x", ">", ("a",)),
    )
    verdicts = evaluate_claims(docs, rows)
    assert {v.claim.id: v.status for v in verdicts} == {
        "s-pair": "pass", "s-shifted": "pass", "s-constant": "pass", "s-every": "deviation",
        "s-spread": "pass", "s-missing": "not covered", "s-elsewhere": "not covered",
    }
    assert {
        v.claim.id: (v.value, v.bound, round(v.confidence * v.pairs), v.pairs)
        for v in verdicts if v.pairs
    } == {
        "s-pair": (2.0, 2.25, 2, 4),
        "s-shifted": (2.0, 1.625, 2, 4),
        "s-constant": (2.0, 1.5, 1, 2),
        "s-every": (2.0, 2.1, 1, 2),  # curve a, the lower mean, decides
        "s-spread": (0.25, 0.5, 0, 2),  # the seeds' own spreads are 1.0 and 0.5
    }
    assert "4 pass, 1 deviation, 2 not covered" in render_claims(verdicts)
    for op, curves in (("==", ("a", "b")), ("spread", ("a",))):
        with pytest.raises(ValueError):
            Claim("s-bad", "-", "x", op, curves)
