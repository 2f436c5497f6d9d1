"""The cells whose *runs* are pinned by recorded digests.

Two kinds of row live in ``run_digests.json``:

- ``<cell>-seed<seed>`` rows (:func:`all_cells`, checked by
  ``test_run_digests.py`` and the 300-node smoke in the fast gate,
  ``tests/test_tooling.py``): 300 nodes x 1000 simulated seconds, seeds
  1-2, for all seven protocols, HID-CAN under 50 % churn, HID-CAN
  through the batched path (cohort ticks + arrival/delivery quanta) and
  the cached hot-range cell.  They were recorded from the commit before
  the last-route memo and the tuple heap entries (PR 15), so they state
  what "a host-only change leaves the model bit-identical" means (PR 17
  lowered ``events_processed`` of the two ``hid-can-batched`` cells by
  3, by hand: the retired memory sweep's no-op ticks at t = 300, 600,
  900).
- ``pair/<cell>`` rows (:data:`PAIR_CELLS`): the cells of the whole-run
  oracle pairs in ``test_coalescing.py``, ``test_hotrange.py`` and
  ``test_runner.py``.  Their tests run the stock cell once and compare
  it with the row (:func:`pair_run`); :func:`record` writes a row only
  after running the cell against each of its oracles and finding the
  two runs identical, so a row stands for the oracle run as well.

To re-record after an *intended* model change::

    PYTHONPATH=src python -c "from tests.experiments.run_cells import record; record()"
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.core import protocol as protocol_mod
from repro.core.protocol import PIDCANParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import (
    CHURN_SWEEP_PROTOCOLS, hotrange_configs, mega_configs,
)
from tests.oracles import (
    ReferenceCANOverlay,
    assert_cache_off_equivalent,
    assert_delivery_modes_equivalent,
    assert_oracle_equivalent,
    assert_tick_modes_equivalent,
    run_digest,
)

_DIGESTS = Path(__file__).with_name("run_digests.json")
SEEDS = (1, 2)
_SIZE = {"n_nodes": 300, "duration": 1000.0}
#: Key prefix of the oracle-pair rows; :func:`recorded_digests` leaves them out.
PAIR_PREFIX = "pair/"


def run_cells(seed: int) -> dict[str, ExperimentConfig]:
    """Cell name -> config, for one seed."""
    cells = {
        protocol: ExperimentConfig(
            seed=seed, protocol=protocol, demand_ratio=0.5, **_SIZE
        )
        for protocol in CHURN_SWEEP_PROTOCOLS
    }
    cells["hid-can-churn50"] = ExperimentConfig(
        seed=seed, protocol="hid-can", demand_ratio=0.5, churn_degree=0.5, **_SIZE
    )
    cells["hid-can-batched"] = mega_configs("small", seed=seed, **_SIZE)["hid-can"]
    cells["hotrange-lru+repl"] = hotrange_configs("small", seed=seed, **_SIZE)["lru+repl"]
    return cells


def all_cells() -> dict[str, ExperimentConfig]:
    """Recorded key (``<cell>-seed<seed>``) -> config, every seed."""
    return {
        f"{name}-seed{seed}": config
        for seed in SEEDS for name, config in run_cells(seed).items()
    }


def _overlay_equivalent(config: ExperimentConfig):
    return assert_oracle_equivalent(
        config, protocol_mod, "CANOverlay", ReferenceCANOverlay
    )


def quantized(**overrides) -> ExperimentConfig:
    """HID-CAN at λ = 0.5 on cohort ticks (16 phase buckets)."""
    params = {
        "protocol": "hid-can",
        "demand_ratio": 0.5,
        "pidcan": PIDCANParams(phase_buckets=16),
        **overrides,
    }
    return ExperimentConfig(**params)


def _zipf(**overrides) -> ExperimentConfig:
    """HID-CAN at λ = 0.5 under Zipf s = 1 demand, path cache off."""
    return ExperimentConfig(protocol="hid-can", demand_ratio=0.5, zipf_s=1.0, **overrides)


_PAPER = {"n_nodes": 2000, "duration": 1200.0, "sample_period": 400.0, "seed": 11}
_CHURN = {
    "n_nodes": 100, "duration": 4000.0, "sample_period": 1000.0, "seed": 7,
    "churn_degree": 0.25, "churn_lifetime": 1500.0,
}

#: Oracle-pair cell -> (config, the cross-checks its row stands for).
#: Every cross-check runs the config stock and against one oracle and
#: raises when the two runs differ.
PAIR_CELLS = {
    "quantized-paper": (
        quantized(**_PAPER),
        (assert_tick_modes_equivalent, assert_delivery_modes_equivalent),
    ),
    "quantized-small": (
        quantized(n_nodes=120, duration=4000.0, sample_period=1000.0, seed=3),
        (assert_tick_modes_equivalent,),
    ),
    "quantized-churn": (
        quantized(**_CHURN),
        (assert_tick_modes_equivalent, assert_delivery_modes_equivalent),
    ),
    "quantized-sid-can": (
        quantized(protocol="sid-can", n_nodes=80, duration=4000.0,
                  sample_period=1000.0, seed=5),
        (assert_tick_modes_equivalent,),
    ),
    "quantized-80": (
        quantized(n_nodes=80, duration=4000.0, sample_period=1000.0, seed=9),
        (assert_delivery_modes_equivalent,),
    ),
    "cache-off-paper": (_zipf(**_PAPER), (assert_cache_off_equivalent,)),
    "cache-off-churn": (_zipf(**_CHURN), (assert_cache_off_equivalent,)),
    "cache-off-skew": (
        _zipf(n_nodes=80, duration=3000.0, sample_period=1000.0, seed=3),
        (assert_cache_off_equivalent,),
    ),
    "overlay-churn": (
        ExperimentConfig(n_nodes=40, duration=4000.0, demand_ratio=0.4, seed=11,
                         protocol="sid-can", churn_degree=0.5),
        (_overlay_equivalent,),
    ),
}


def digest_of(config: ExperimentConfig) -> dict:
    sim = SOCSimulation(config)
    return run_digest(sim.run(), sim)


def all_rows() -> dict[str, dict]:
    """Every recorded row, pair rows included."""
    return json.loads(_DIGESTS.read_text())


def recorded_digests() -> dict[str, dict]:
    """The :func:`all_cells` rows."""
    return {
        key: row for key, row in all_rows().items()
        if not key.startswith(PAIR_PREFIX)
    }


@functools.cache
def pair_run(cell: str):
    """Run oracle-pair ``cell`` stock, once per session, and assert it
    matches its recorded row; return the result."""
    sim = SOCSimulation(PAIR_CELLS[cell][0])
    result = sim.run()
    assert run_digest(result, sim) == all_rows()[PAIR_PREFIX + cell]
    return result


def record() -> None:
    """Rewrite the recorded digests from the code as it stands.  Every
    oracle pair is cross-checked first; a pair whose runs differ raises
    before anything is written."""
    for config, cross_checks in PAIR_CELLS.values():
        for cross_check in cross_checks:
            cross_check(config)
    cells = {
        **all_cells(),
        **{PAIR_PREFIX + name: config for name, (config, _) in PAIR_CELLS.items()},
    }
    out = {key: digest_of(config) for key, config in cells.items()}
    _DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
