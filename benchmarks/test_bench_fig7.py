"""Figure 7 — six protocols at demand ratio λ=0.25.

The paper's sharpest contrast: HID-CAN suffers only 2 failed tasks out of
14362 in the day, versus 1793 for Newscast — an order of magnitude in
F-Ratio — while Newscast posts the best raw throughput ratio (~0.74) with
HID close behind.  Judged as the ``fig7-*`` claims on the committed tiny
cells.
"""

from benchmarks.conftest import assert_claims_pass


def test_fig7_lambda_025(tiny_claims):
    assert_claims_pass(tiny_claims("fig7"))
