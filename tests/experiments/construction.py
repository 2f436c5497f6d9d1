"""The cells whose construction is pinned by recorded digests
(``test_construction.py``, and the 300-node check in the fast gate,
``tests/test_tooling.py``).

To re-record after an *intended* model change::

    PYTHONPATH=src python -c "from tests.experiments.construction import record; record()"
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from tests.oracles import construction_digest

_DIGESTS = Path(__file__).with_name("construction_digests.json")
#: Key of the digest taken after the churned run (67 leave/join pairs).
CHURNED_CELL = "n500-seed1-churned"


def construction_cell(n: int, seed: int, churn: float = 0.0) -> ExperimentConfig:
    return ExperimentConfig(
        n_nodes=n, duration=7200.0, seed=seed, protocol="hid-can",
        demand_ratio=0.5, churn_degree=churn,
    )


def build_churned_cell() -> SOCSimulation:
    """The 500-node cell after 800 simulated seconds at 50 % churn."""
    sim = SOCSimulation(construction_cell(500, 1, churn=0.5))
    sim.sim.run(until=800.0)
    return sim


def recorded_digests() -> dict[str, dict[str, str]]:
    return json.loads(_DIGESTS.read_text())


def record() -> None:
    """Rewrite the recorded digests from the code as it stands."""
    out = {
        f"n{n}-seed{seed}": construction_digest(
            SOCSimulation(construction_cell(n, seed))
        )
        for n in (300, 500) for seed in (1, 2, 3)
    }
    out[CHURNED_CELL] = construction_digest(build_churned_cell())
    _DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
