"""Figure 5 — six protocols at demand ratio λ=1.

Paper reading: SID/HID-CAN (and their SoS versions) prominently outperform
Newscast on throughput; Newscast is worst because locating the *scarce*
qualified resources dominates, which pure random partial views cannot do.
Judged as the ``fig5-*`` claims on the committed tiny cells.
"""

from benchmarks.conftest import assert_claims_pass


def test_fig5_lambda_1(tiny_claims):
    assert_claims_pass(tiny_claims("fig5"))
