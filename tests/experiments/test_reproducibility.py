"""Cross-seed reproducibility of the paper's headline orderings.

They read the committed tiny campaign's ``fig7`` cells (λ=0.25, seeds
1-3; ``test_claims.py`` keeps those cells honest) and require the
orderings to hold in most seed pairings — guarding against the
reproduction resting on one lucky seed.
"""

from pathlib import Path

import pytest

from repro.experiments.campaign import CampaignSpec, campaign_summary, load_campaign_cells
from repro.experiments.claims import evaluate_claims
from repro.experiments.multiseed import ordering_confidence

TINY = Path(__file__).parents[2] / "artifacts" / "BENCH_campaign_tiny"


@pytest.fixture(scope="module")
def fig7_docs():
    docs = load_campaign_cells(TINY, CampaignSpec.from_json(TINY / "campaign.json"))
    return [d for d in docs if d["cell"]["scenario"] == "fig7"]


@pytest.fixture(scope="module")
def fig7(fig7_docs):
    return campaign_summary(fig7_docs, ("f_ratio", "t_ratio"))[("fig7", "tiny")]


def claim_status(docs, claim_id):
    (verdict,) = [v for v in evaluate_claims(docs) if v.claim.id == claim_id]
    return verdict.status


def test_hid_beats_newscast_on_failures_across_seeds(fig7_docs, fig7):
    """Fig. 7(b)'s order-of-magnitude failed-task gap must hold in (almost)
    every seed pairing, not on average only."""
    hid, newscast = fig7["hid-can"]["f_ratio"], fig7["newscast"]["f_ratio"]
    assert len(hid.values) == len(newscast.values) == 3
    assert ordering_confidence(hid, newscast, "less") >= 0.85
    # and the magnitude is large, not marginal: mean HID < mean Newscast / 2
    assert claim_status(fig7_docs, "fig7-hid-f-below-half-newscast") == "pass"


def test_newscast_throughput_competitive_at_light_demands(fig7_docs):
    """Fig. 7(a): Newscast's raw T-Ratio is at least comparable at λ=0.25
    (mean Newscast > 0.8 · mean HID)."""
    assert claim_status(fig7_docs, "fig7-newscast-t-competitive") == "pass"


def test_seed_variance_is_moderate(fig7):
    """The simulation is stable: seed-to-seed F-Ratio varies within a
    small absolute band at this scale."""
    stats = fig7["hid-can"]["f_ratio"]
    assert len(stats.values) == 3
    assert stats.std < 0.1
    lo, hi = stats.ci95()
    assert hi - lo < 0.25
