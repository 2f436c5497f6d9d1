"""Shared benchmark utilities.

Every bench honours the ``REPRO_SCALE`` environment variable
(``tiny`` default — the whole suite in minutes; ``small`` for a
closer-to-paper regime; ``paper`` for the full §IV-A configuration).

The SOC benches run each scenario once (``benchmark.pedantic`` with a
single round — a simulated day is the unit of work) and attach the
paper-facing metrics as ``extra_info`` so the benchmark JSON doubles as
the reproduction record.
"""

from __future__ import annotations

import os
import time

import pytest

DEFAULT_SCALE = "tiny"


@pytest.fixture(scope="session")
def scale() -> str:
    from repro.experiments.config import SCALES

    value = os.environ.get("REPRO_SCALE", DEFAULT_SCALE)
    if value not in SCALES:
        raise ValueError(f"REPRO_SCALE={value!r}; expected one of {sorted(SCALES)}")
    return value


def attach_results(benchmark, results) -> None:
    """Record each curve's end-of-run metrics in the benchmark report."""
    for label, res in results.items():
        benchmark.extra_info[label] = {
            "t_ratio": round(res.t_ratio, 4),
            "f_ratio": round(res.f_ratio, 4),
            "fairness": round(res.fairness, 4) if res.fairness == res.fairness else None,
            "msg_per_node": round(res.per_node_msg_cost, 1),
            "generated": res.generated,
        }


def run_once(benchmark, fn, *args, **kwargs):
    """One-round pedantic run (a simulated day is one unit of work)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def cpu_timed(fn):
    """``(fn(), CPU seconds it took)`` — ``time.process_time``, so a busy
    neighbour on a shared sandbox does not count against the bench."""
    t0 = time.process_time()
    result = fn()
    return result, time.process_time() - t0
