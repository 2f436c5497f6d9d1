"""PID-CAN — reproduction of *Probabilistic Best-fit Multi-dimensional Range
Query in Self-Organizing Cloud* (Di, Wang, Zhang, Cheng — ICPP 2011).

The package is organized as:

- :mod:`repro.sim` — discrete-event simulation kernel (Peersim substitute)
  plus task-lifecycle tracing.
- :mod:`repro.cloud` — Self-Organizing Cloud substrate: machines, tasks,
  proportional-share execution, checkpoint/restart fault tolerance.
- :mod:`repro.can` — CAN overlay substrate: zones, partition tree, routing,
  INSCAN index pointers.
- :mod:`repro.core` — the paper's contribution: proactive index diffusion
  (SID/HID), the three-phase randomized range query, SoS and VD variants.
- :mod:`repro.baselines` — Newscast gossip, KHDN-CAN, INSCAN-RQ flooding and
  random-walk comparators.
- :mod:`repro.metrics` — T-Ratio / F-Ratio, Jain fairness, traffic and
  placement-balance accounting.
- :mod:`repro.experiments` — configuration presets, the full SOC simulation
  runner, per-figure scenario builders, parallel resumable campaign grids,
  multi-seed statistics, JSON persistence, ASCII charts.
- :mod:`repro.testing` — ProtocolSandbox for driving the algorithms directly.

Start at ``README.md`` for the quickstart and ``docs/architecture.md`` for
the guided tour; ``python -m repro`` is the CLI.
"""

from repro.cloud.resources import ResourceVector, RESOURCE_DIMS
from repro.cloud.tasks import Task
from repro.core.protocol import PIDCANParams, make_protocol, PROTOCOL_NAMES
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation, SimulationResult
from repro.experiments.scenarios import run_protocol, run_scenario, SCENARIOS
from repro.testing import ProtocolSandbox

__version__ = "0.1.0"

__all__ = [
    "ResourceVector",
    "RESOURCE_DIMS",
    "Task",
    "PIDCANParams",
    "make_protocol",
    "PROTOCOL_NAMES",
    "ExperimentConfig",
    "SOCSimulation",
    "SimulationResult",
    "run_protocol",
    "run_scenario",
    "SCENARIOS",
    "CampaignSpec",
    "run_campaign",
    "ProtocolSandbox",
    "__version__",
]
