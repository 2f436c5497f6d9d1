"""Table III — system scalability of HID-CAN (λ=0.5).

The paper sweeps 2000→12000 nodes over one day and reports four metrics:
throughput ratio, failed task ratio, fairness index and per-node message
delivery cost.  The claims: the first three "do not notably change with the
increasing system scale", while message cost "increases very slowly,
probably under logarithmic speed".  Judged as the ``table3-*`` claims on
the committed tiny cells.
"""

from benchmarks.conftest import assert_claims_pass


def test_table3_scalability(tiny_claims):
    assert_claims_pass(tiny_claims("table3"))
