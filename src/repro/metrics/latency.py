"""Query-delay accounting.

The paper's abstract claims PID-CAN keeps "low query delay and traffic
overhead"; traffic is covered by :mod:`repro.metrics.traffic`, this module
covers delay: the wall-clock (simulated) time from query submission to the
requester's final callback, plus the message count of the chain.

Delays combine routing (O(log2 n) hops over INSCAN) with the sequential
index-agent/index-jump phases, so the distribution — not just the mean —
matters: a long tail means some requesters wait on nearly-exhausted chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QueryLatency", "LatencyReport"]


@dataclass(frozen=True, slots=True)
class LatencyReport:
    """Distribution summary of per-query delays (seconds) and messages."""

    queries: int
    mean_s: float
    p50_s: float
    p95_s: float
    max_s: float
    mean_messages: float

    def as_dict(self) -> dict[str, float]:
        return {
            "queries": float(self.queries),
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "max_s": self.max_s,
            "mean_messages": self.mean_messages,
        }


class QueryLatency:
    """Accumulates (delay, messages) samples, one per resolved query."""

    def __init__(self) -> None:
        self._delays: list[float] = []
        self._messages: list[int] = []

    def observe(self, delay_s: float, messages: int) -> None:
        if delay_s < 0:
            raise ValueError(f"negative delay {delay_s}")
        self._delays.append(float(delay_s))
        self._messages.append(int(messages))

    def report(self) -> LatencyReport:
        if not self._delays:
            nan = float("nan")
            return LatencyReport(0, nan, nan, nan, nan, nan)
        delays = np.asarray(self._delays)
        return LatencyReport(
            queries=len(delays),
            mean_s=float(delays.mean()),
            p50_s=float(np.percentile(delays, 50)),
            p95_s=float(np.percentile(delays, 95)),
            max_s=float(delays.max()),
            mean_messages=float(np.mean(self._messages)),
        )
