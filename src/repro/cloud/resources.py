"""Multi-dimensional resource vector algebra.

The paper models every host capacity, task demand and availability as a
d-vector over the resource types of Table I/II.  The canonical order here is

    (cpu, io, net, disk, mem)

with the first three — the *work dimensions* — driving execution time
(§IV-A: "its execution time is only related to the first three resource
types").  Componentwise dominance ``a ⪰ b`` (Inequality 2) is the partial
order that defines range-query qualification.

Internally everything is float64 numpy; :class:`ResourceVector` is a thin
immutable wrapper for the public API, while hot paths (the PSM executor, the
query matchers) operate on the raw ``.values`` arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RESOURCE_DIMS",
    "WORK_DIMS",
    "N_DIMS",
    "ResourceVector",
    "dominates",
    "as_array",
]

#: Canonical resource dimension names, in storage order.
RESOURCE_DIMS: tuple[str, ...] = ("cpu", "io", "net", "disk", "mem")
#: The dimensions that carry task *work* and therefore execution time.
WORK_DIMS: tuple[str, ...] = ("cpu", "io", "net")
N_DIMS = len(RESOURCE_DIMS)

#: Tolerance for dominance comparisons; zone coordinates are dyadic exact
#: floats but availability vectors accumulate arithmetic error.
_EPS = 1e-9


def as_array(values: "ResourceVector | Sequence[float] | np.ndarray") -> np.ndarray:
    """Coerce to a float64 numpy array without copying when possible."""
    if isinstance(values, ResourceVector):
        return values.values
    return np.asarray(values, dtype=np.float64)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """``True`` iff ``a ⪰ b`` componentwise (within tolerance).

    This is the qualification test of Inequality (2): a host with
    availability ``a`` can accept a task demanding ``b``.
    """
    return bool(np.all(as_array(a) >= as_array(b) - _EPS))


class ResourceVector:
    """Immutable named resource vector.

    >>> c = ResourceVector.of(cpu=4, io=40, net=8, disk=120, mem=2048)
    >>> c["cpu"]
    4.0
    >>> (c - c.scaled(0.5)).values.tolist()
    [2.0, 20.0, 4.0, 60.0, 1024.0]
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(tuple(values), dtype=np.float64)
        if arr.shape != (N_DIMS,):
            raise ValueError(
                f"expected {N_DIMS} resource components, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        self._values = arr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, **kwargs: float) -> "ResourceVector":
        """Build from named components; all of RESOURCE_DIMS required."""
        missing = set(RESOURCE_DIMS) - set(kwargs)
        extra = set(kwargs) - set(RESOURCE_DIMS)
        if missing or extra:
            raise ValueError(f"missing={sorted(missing)} unknown={sorted(extra)}")
        return cls(kwargs[d] for d in RESOURCE_DIMS)

    @classmethod
    def zeros(cls) -> "ResourceVector":
        return cls(np.zeros(N_DIMS))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The underlying read-only float64 array (no copy)."""
        return self._values

    def __getitem__(self, dim: str | int) -> float:
        if isinstance(dim, str):
            dim = RESOURCE_DIMS.index(dim)
        return float(self._values[dim])

    def as_dict(self) -> dict[str, float]:
        return {d: float(v) for d, v in zip(RESOURCE_DIMS, self._values)}

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self._values + as_array(other))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self._values - as_array(other))

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(self._values * factor)

    def clipped(self, lo: float = 0.0) -> "ResourceVector":
        return ResourceVector(np.maximum(self._values, lo))

    def normalized(self, cmax: "ResourceVector | np.ndarray") -> np.ndarray:
        """Coordinates in ``[0, 1]^d`` relative to the system-wide maximum
        capacity vector — the CAN key space mapping of §III."""
        return np.clip(self._values / as_array(cmax), 0.0, 1.0)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def dominates(self, other: "ResourceVector | np.ndarray") -> bool:
        """Componentwise ``self ⪰ other`` (Inequality 2)."""
        return dominates(self._values, as_array(other))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}={v:g}" for d, v in self.as_dict().items())
        return f"ResourceVector({inner})"
