"""The run contract: what a finished 300-node cell produced — task
counts, per-kind traffic, timeouts, event units, the query-latency
report, cache counters — equals the digest recorded from the commit
before the last-route memo and the tuple heap entries landed.  Those
are host-only changes; a digest that moves means one of them changed a
route, a tie-break or an RNG draw.  The cells and the re-record command
live in ``tests/experiments/run_cells.py``; the recorded oracle-pair
rows are checked by the tests of those pairs.
"""

import pytest

from tests.experiments.run_cells import (
    PAIR_CELLS, PAIR_PREFIX, all_cells, all_rows, digest_of, recorded_digests,
)

RECORDED = recorded_digests()
CELLS = all_cells()


def test_every_recorded_cell_is_still_defined():
    assert sorted(RECORDED) == sorted(CELLS)
    pairs = set(all_rows()) - set(RECORDED)
    assert pairs == {PAIR_PREFIX + name for name in PAIR_CELLS}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_run_matches_recorded_digest(cell):
    assert digest_of(CELLS[cell]) == RECORDED[cell]
