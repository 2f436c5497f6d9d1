"""Shared harness for core-protocol tests, and the closed-form analysis of
Theorem 1 the diffusion tests check the paper's arithmetic with.

The harness lives in :mod:`repro.testing` (it is public API — the
examples and downstream users drive the protocol machinery with it);
tests keep the short ``Harness`` alias."""

from repro.testing import ProtocolSandbox as Harness

__all__ = ["Harness", "binary_hop_decomposition", "line_diffusion_rounds"]


def binary_hop_decomposition(distance: int) -> list[int]:
    """Decompose a hop distance into powers of two (Theorem 1's proof
    device): the relay chain covers distance λ in h = popcount(λ) hops,
    with h ≤ ⌊log2 λ⌋ + 1.

    >>> binary_hop_decomposition(13)
    [8, 4, 1]
    """
    return [1 << k for k in range(distance.bit_length() - 1, -1, -1) if distance >> k & 1]


def line_diffusion_rounds(r: int) -> list[int]:
    """Relay rounds at which each node of a line of ``r`` nodes receives the
    topmost node's index when every node links 2^k backwards (Fig. 2):
    node ``i`` (0-based from the top) is reached after ``popcount(i)``
    relay hops."""
    return [int(i).bit_count() for i in range(r)]
