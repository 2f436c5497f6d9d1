"""Figure 6 — six protocols at demand ratio λ=0.5.

The intermediate regime: all metrics improve over λ=1 (easier matching),
with the PID-CAN variants keeping a clear failed-task-ratio advantage.
Judged as the ``fig6-*`` claims on the committed tiny cells.
"""

from benchmarks.conftest import assert_claims_pass


def test_fig6_lambda_05(tiny_claims):
    assert_claims_pass(tiny_claims("fig6"))
