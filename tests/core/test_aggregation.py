"""Tests for gossip aggregation (reference [23])."""

import numpy as np
import pytest

from repro.core.aggregation import gossip_aggregate


def make_values(n=50, dims=3, seed=0):
    rng = np.random.default_rng(seed)
    return {i: rng.uniform(1, 100, dims) for i in range(n)}


def max_relative_error(result, truth) -> float:
    """The worst node's estimate error relative to ``truth``."""
    return max(
        float(np.max(np.abs(est - truth) / np.maximum(truth, 1e-12)))
        for est in result.estimates.values()
    )


def test_max_converges_exactly():
    values = make_values()
    truth = np.max(np.stack(list(values.values())), axis=0)
    result = gossip_aggregate(values, np.random.default_rng(1))
    assert max_relative_error(result, truth) == 0.0
    assert np.allclose(result.consensus(), truth)


def test_message_count_scales_with_rounds():
    values = make_values(n=20)
    r1 = gossip_aggregate(values, np.random.default_rng(4), rounds=1)
    r5 = gossip_aggregate(values, np.random.default_rng(4), rounds=5)
    assert r5.messages > r1.messages
    assert r1.messages <= 2 * 20  # ≤ 2 per node per round


def test_single_node_is_its_own_consensus():
    values = {7: np.array([3.0, 4.0])}
    result = gossip_aggregate(values, np.random.default_rng(5))
    assert np.allclose(result.consensus(), [3.0, 4.0])


def test_validation():
    with pytest.raises(ValueError):
        gossip_aggregate({}, np.random.default_rng(0))
