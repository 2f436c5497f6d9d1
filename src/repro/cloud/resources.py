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
    """Immutable resource vector in the canonical dimension order.

    >>> ResourceVector.of(cpu=4, io=40, net=8, disk=120, mem=2048).values.tolist()
    [4.0, 40.0, 8.0, 120.0, 2048.0]
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        if isinstance(values, np.ndarray):
            # (always a copy: freezing it below leaves the caller's array be)
            arr = values.astype(np.float64)
        else:
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

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The underlying read-only float64 array (no copy)."""
        return self._values
