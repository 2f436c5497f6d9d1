"""Old-vs-new microbenchmark of the duty-node cache dominance scan.

Compares the vectorized structure-of-arrays ``StateCache.qualified`` (one
``(matrix >= demand).all(axis=1)`` mask) against the seed's scalar
dict-of-records loop (kept verbatim as
:class:`tests.oracles.ReferenceStateCache`) at N ∈ {10², 10³, 10⁴} cached
records, in the scarce-resource regime the paper motivates (§III-A: "in
the situation with scarce available resources") where a query must scan
the entire cache.

``test_vectorized_speedup_at_10k`` pins the acceptance criterion: ≥ 5×
over the scalar path at 10⁴ records (measured headroom is well above).
"""

import time

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from benchmarks.conftest import calibrated, numpy_calls
from repro.core.state import StateCache, StateRecord
from tests.oracles import ReferenceStateCache

DIMS = 5
#: Scarce regime: per-dimension qualify probability 0.1 → full-cache scans.
SCARCE_DEMAND = np.full(DIMS, 0.9)
#: Abundant regime: ~7.8% qualify, the scalar loop exits early at δ=3.
ABUNDANT_DEMAND = np.full(DIMS, 0.4)


def fill(cache, n: int):
    rng = np.random.default_rng(6)
    for owner in range(n):
        cache.put(StateRecord(owner, rng.uniform(0, 1, DIMS), 0.0))
    return cache


@pytest.mark.benchmark(group="state-cache-scarce")
@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_vectorized_qualified_scarce(benchmark, n):
    cache = fill(StateCache(ttl=1e9), n)
    benchmark(cache.qualified, SCARCE_DEMAND, 1.0, 3)


@pytest.mark.benchmark(group="state-cache-scarce")
@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_reference_qualified_scarce(benchmark, n):
    cache = fill(ReferenceStateCache(ttl=1e9), n)
    benchmark(cache.qualified, SCARCE_DEMAND, 1.0, 3)


@pytest.mark.benchmark(group="state-cache-abundant")
@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_vectorized_qualified_abundant(benchmark, n):
    cache = fill(StateCache(ttl=1e9), n)
    benchmark(cache.qualified, ABUNDANT_DEMAND, 1.0, 3)


@pytest.mark.benchmark(group="state-cache-abundant")
@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_reference_qualified_abundant(benchmark, n):
    cache = fill(ReferenceStateCache(ttl=1e9), n)
    benchmark(cache.qualified, ABUNDANT_DEMAND, 1.0, 3)


def _owners(records) -> list[int]:
    return [r.owner for r in records]


def _best_of(fn, repeats=5, inner=20) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def test_vectorized_speedup_at_10k():
    """Acceptance criterion: ≥ 5× over the seed scalar loop at 10⁴ records
    (typical measured speedup is > 50×, so 5× is a conservative floor).
    Beside the timed bound, the work: a vectorized scan makes the same
    few numpy calls at 10³ and 10⁴ records (5, measured), the scalar loop
    a fixed number per record (2, measured)."""
    n = 10_000
    calls = {}
    for size in (n // 10, n):
        vec = fill(StateCache(ttl=1e9), size)
        ref = fill(ReferenceStateCache(ttl=1e9), size)
        assert _owners(vec.qualified(SCARCE_DEMAND, 1.0, 3)) == _owners(
            ref.qualified(SCARCE_DEMAND, 1.0, 3)
        )
        calls[size] = tuple(
            numpy_calls(lambda c=cache: c.qualified(SCARCE_DEMAND, 1.0, 3))[1]
            for cache in (vec, ref)
        )
    (vec_small, ref_small), (vec_large, ref_large) = calls[n // 10], calls[n]
    assert vec_small == vec_large <= 8, f"numpy calls per scan {calls}"
    assert ref_large == 10 * ref_small >= n, f"numpy calls per scan {calls}"
    (t_vec, t_ref), note = calibrated(lambda: (
        _best_of(lambda: vec.qualified(SCARCE_DEMAND, 1.0, 3)),
        _best_of(lambda: ref.qualified(SCARCE_DEMAND, 1.0, 3), inner=3),
    ))
    speedup = t_ref / t_vec
    assert speedup >= 5.0, (
        f"only {speedup:.1f}x over the scalar reference ({note}; numpy calls "
        f"per scan, vectorized / scalar, at 10^3 and 10^4 records: {calls})"
    )


def test_smoke_equivalence_tiny():
    """Tier-1 smoke: the two paths agree record-for-record at small N in
    both regimes (runs in milliseconds; the heavy property suite lives in
    tests/core/test_state_equivalence.py)."""
    for n in (4, 32, 128):
        vec = fill(StateCache(ttl=1e9), n)
        ref = fill(ReferenceStateCache(ttl=1e9), n)
        for demand in (SCARCE_DEMAND, ABUNDANT_DEMAND):
            for limit in (None, 3):
                assert _owners(vec.qualified(demand, 1.0, limit)) == _owners(
                    ref.qualified(demand, 1.0, limit)
                )
