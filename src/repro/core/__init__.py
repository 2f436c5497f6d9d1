"""PID-CAN: the paper's contribution (§III).

- :mod:`repro.core.state` — duty-node state caches γ with TTL.
- :mod:`repro.core.pilist` — PIList (positive index list) of diffused indexes.
- :mod:`repro.core.diffusion` — Algorithms 1-2, SID and HID variants.
- :mod:`repro.core.query` — Algorithms 3-5 (duty-query / index-agent /
  index-jump) plus requester-side bookkeeping.
- :mod:`repro.core.sos` — Slack-on-Submission (Formula 3).
- :meth:`repro.core.protocol.PIDCANProtocol._virtual_coordinates` — the
  virtual-dimension (VD) variant.
- :mod:`repro.core.selection` — best-fit record selection (the paper title's
  "best-fit": among returned candidates pick the tightest qualifying one).
- :mod:`repro.core.protocol` — per-node protocol assembly and the factory
  for the six evaluated variants.
"""

from repro.core.context import ProtocolContext
from repro.core.state import StateRecord, StateCache
from repro.core.pilist import PIList
from repro.core.selection import select_record, SELECTION_POLICIES
from repro.core.sos import slack_expectation
from repro.core.diffusion import (
    diffusion_message_count,
    DiffusionEngine,
)
from repro.core.protocol import (
    DiscoveryProtocol,
    PIDCANProtocol,
    PIDCANParams,
    make_protocol,
)

__all__ = [
    "ProtocolContext",
    "StateRecord",
    "StateCache",
    "PIList",
    "select_record",
    "SELECTION_POLICIES",
    "slack_expectation",
    "diffusion_message_count",
    "DiffusionEngine",
    "DiscoveryProtocol",
    "PIDCANProtocol",
    "PIDCANParams",
    "make_protocol",
]
