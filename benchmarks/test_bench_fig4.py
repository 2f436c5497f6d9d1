"""Figure 4 — contrary results under different query ranges.

(a) demand ratio 0.84: the diffusion protocols beat Newscast's random
    partial views (wide demands need *directed* search for the scarce
    qualified nodes);
(b) demand ratio 0.25: the crossover — Newscast's uniform randomness
    disperses light demands better than SID-CAN, whose queries pile onto
    the few duty nodes of the small corner region.

Judged as the ``fig4a-*`` and ``fig4b-*`` claims on the committed tiny cells.
"""

from benchmarks.conftest import assert_claims_pass


def test_fig4a_wide_demands(tiny_claims):
    assert_claims_pass(tiny_claims("fig4a"))


def test_fig4b_narrow_demands_crossover(tiny_claims):
    assert_claims_pass(tiny_claims("fig4b"))
