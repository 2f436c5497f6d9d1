"""Shared benchmark utilities.

Every bench honours the ``REPRO_SCALE`` environment variable
(``tiny`` default — the whole suite in minutes; ``small`` for a
closer-to-paper regime; ``paper`` for the full §IV-A configuration).
A bench that runs a whole simulated cell does so once
(``benchmark.pedantic`` with a single round).  The figure and table
benches simulate nothing: they judge their scenario's paper claims
(``repro.experiments.claims``, ``docs/fidelity.md``) on the committed
tiny campaign, seeds 1-3.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

DEFAULT_SCALE = "tiny"
TINY_CAMPAIGN = Path(__file__).parents[1] / "artifacts" / "BENCH_campaign_tiny"


def read_scale(default: str = DEFAULT_SCALE) -> str:
    """The scale preset ``REPRO_SCALE`` names (``default`` when unset)."""
    from repro.experiments.config import SCALES

    value = os.environ.get("REPRO_SCALE", default)
    if value not in SCALES:
        raise ValueError(f"REPRO_SCALE={value!r}; expected one of {sorted(SCALES)}")
    return value


@pytest.fixture(scope="session")
def scale() -> str:
    return read_scale()


@pytest.fixture(scope="session")
def tiny_claims():
    """``scenario -> its verdicts at tiny`` over the committed tiny campaign."""
    from repro.experiments.campaign import CampaignSpec, load_campaign_cells
    from repro.experiments.claims import evaluate_claims

    spec = CampaignSpec.from_json(TINY_CAMPAIGN / "campaign.json")
    docs = load_campaign_cells(TINY_CAMPAIGN, spec)
    verdicts = [v for v in evaluate_claims(docs) if v.scale == "tiny"]

    def judge(scenario: str):
        judged = [v for v in verdicts if v.claim.scenario == scenario]
        assert judged, f"no {scenario} claim judged at tiny"
        return judged

    return judge


def assert_claims_pass(verdicts) -> None:
    """Print the claims section, then fail on any row that does not pass."""
    from repro.experiments.claims import render_claims

    print()
    print(render_claims(verdicts))
    assert [v.claim.id for v in verdicts if v.status != "pass"] == []


def run_once(benchmark, fn, *args, **kwargs):
    """One-round pedantic run (a simulated day is one unit of work)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def cpu_timed(fn):
    """``(fn(), CPU seconds it took)`` — ``time.process_time``, so a busy
    neighbour on a shared sandbox does not count against the bench."""
    t0 = time.process_time()
    result = fn()
    return result, time.process_time() - t0


def calibrated(fn):
    """``(fn(), note)``: ``note`` gives the CPU time of the fixed
    calibration kernel of ``bench/calibrate.py`` run just before and just
    after ``fn``, against its reference time — so the failure message of
    a timed gate tells a loaded machine from a regression."""
    from bench.calibrate import CALIB_REF_S, Calibrator

    kernel = Calibrator()
    before = kernel.run()
    result = fn()
    after = kernel.run()
    return result, (
        f"calibration kernel {before * 1e3:.0f} / {after * 1e3:.0f} ms before / "
        f"after the timed region, {CALIB_REF_S * 1e3:.0f} ms on a quiet machine"
    )


def numpy_calls(fn):
    """``(fn(), n)``: ``n`` counts the calls ``fn`` makes into numpy from
    outside it — numpy's Python functions and the C functions and methods
    of numpy and its arrays (a profile hook sees those; operators and
    ufunc calls it does not).  A work count, exact on every machine."""
    import numpy as np

    root = os.path.dirname(np.__file__)
    count = 0

    def outside(frame) -> bool:
        return frame is None or not frame.f_code.co_filename.startswith(root)

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            count += not outside(frame) and outside(frame.f_back)
        elif event == "c_call" and outside(frame):
            owner = getattr(arg, "__self__", None)
            count += (str(getattr(arg, "__module__", None)).startswith("numpy")
                      or type(owner).__module__.startswith("numpy"))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, count
