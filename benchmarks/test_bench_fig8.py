"""Figure 8 — HID-CAN under node churn (λ=0.5).

Paper reading: up to a 50% dynamic degree (half the population replaced
per mean task lifetime) throughput and failure ratios are "not remarkably
influenced"; visible degradation appears only at extreme churn.  Judged as
the ``fig8-*`` claims on the committed tiny cells.
"""

from benchmarks.conftest import assert_claims_pass


def test_fig8_churn_tolerance(tiny_claims):
    assert_claims_pass(tiny_claims("fig8"))
