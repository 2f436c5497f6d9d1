"""The cells whose *runs* are pinned by recorded digests
(``test_run_digests.py``, and the 300-node smoke in the fast gate,
``tests/test_tooling.py``): 300 nodes x 1000 simulated seconds, seeds
1-2, for all seven protocols, HID-CAN under 50 % churn, HID-CAN through
the batched path (cohort ticks + arrival/delivery quanta) and the
cached hot-range cell.

The digests were recorded from the commit before the last-route memo
and the tuple heap entries (PR 15), so they state what "a host-only
change leaves the model bit-identical" means (PR 17 lowered
``events_processed`` of the two ``hid-can-batched`` cells by 3, by hand:
the retired memory sweep's no-op ticks at t = 300, 600, 900).  To
re-record after an *intended* model change::

    PYTHONPATH=src python -c "from tests.experiments.run_cells import record; record()"
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import (
    CHURN_SWEEP_PROTOCOLS, hotrange_configs, mega_configs,
)
from repro.testing import run_digest

_DIGESTS = Path(__file__).with_name("run_digests.json")
SEEDS = (1, 2)
_SIZE = {"n_nodes": 300, "duration": 1000.0}


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


def digest_of(config: ExperimentConfig) -> dict:
    sim = SOCSimulation(config)
    return run_digest(sim.run(), sim)


def recorded_digests() -> dict[str, dict]:
    return json.loads(_DIGESTS.read_text())


def record() -> None:
    """Rewrite the recorded digests from the code as it stands."""
    out = {key: digest_of(config) for key, config in all_cells().items()}
    _DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
