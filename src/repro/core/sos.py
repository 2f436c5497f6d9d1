"""Slack-on-Submission (SoS), Formula (3) of the paper.

When a query is triggered, the original expectation vector ``e(t)`` is
immediately skewed to a random ``e'(t)`` with ``e ⪯ e' ⪯ cmax``.  The query
first runs with ``e'``; landing at a random duty node positive of ``e``
disperses analogous queries that would otherwise contend for the same
records.  If the slacked query returns nothing, the search is re-conducted
with the original ``e`` — which is why the paper reports SoS costs "twice
resource query overhead".
"""

from __future__ import annotations

import numpy as np

__all__ = ["slack_expectation"]


def slack_expectation(
    expectation: np.ndarray,
    cmax: np.ndarray,
    rng: np.random.Generator,
    bias: float = 1.0,
) -> np.ndarray:
    """A random vector in the box ``[e, cmax]`` (componentwise).

    ``bias`` > 1 skews draws toward the original expectation (u^bias for
    u ~ U(0,1)); the paper's formulation is the uniform case ``bias=1``.
    """
    if bias <= 0:
        raise ValueError("bias must be positive")
    e = np.asarray(expectation, dtype=np.float64)
    top = np.asarray(cmax, dtype=np.float64)
    if bool(np.any(e > top + 1e-9)):
        raise ValueError("expectation exceeds cmax; nothing to slack into")
    u = rng.uniform(0.0, 1.0, size=e.shape) ** bias
    return e + u * np.maximum(top - e, 0.0)
