"""Time-series recorder for simulation metrics."""

from __future__ import annotations

from typing import Iterable

__all__ = ["TimeSeries"]


class TimeSeries:
    """Append-only ``(time, value)`` series."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def append(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series must be appended in time order")
        self.times.append(time)
        self.values.append(value)

    def __iter__(self) -> Iterable[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def as_dict(self) -> dict[str, list[float]]:
        return {"times": list(self.times), "values": list(self.values)}
