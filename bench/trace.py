"""Span tracing of the simulator's layers, from outside the simulator.

The traced repeat of a workload wraps the public callables of every layer
(layer = module name) with shims that record one span per call — name,
start, end and the span that caused it — into in-memory arrays.  Nothing
under ``src/`` knows about it: class methods are swapped on their class,
module-level routing functions are swapped in their module *and* in every
``repro.*`` module that imported them by name (found by identity), and
:meth:`Tracer.uninstall` puts every original back.

A layer's **self time** is its spans' duration minus the part their child
spans cover, so a layer is never charged for another traced layer it
calls.  The root of the timed region is ``Simulator.run``: its self time
is event dispatch plus every callback body no shim covers (runner glue,
``PIDCANProtocol`` handlers, ``repro.metrics`` counters).
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

import numpy as np

__all__ = ["TARGETS", "REGION_LAYER", "Tracer", "Aggregate", "target_owner"]

#: Layer name of the spans the harness opens itself around each region.
REGION_LAYER = "bench"


# ----------------------------------------------------------------------
# count hooks: ``hook(counters, args, kwargs, result)`` runs inside the
# span, after the wrapped call returned.  Only counts that no public
# result field carries and that span counts cannot give are taken here.
# ----------------------------------------------------------------------
def _count_path(counters: dict, args: tuple, kwargs: dict, path: list) -> None:
    counters["can.routing.paths"] += 1
    counters["can.routing.hops"] += len(path) - 1


def _count_paths(counters: dict, args: tuple, kwargs: dict, paths: list) -> None:
    for path in paths:
        if path is not None:
            counters["can.routing.paths"] += 1
            counters["can.routing.hops"] += len(path) - 1


def _count_hop(counters: dict, args: tuple, kwargs: dict, delay: float) -> None:
    counters["sim.network.hops_priced"] += 1


def _count_batch_hops(counters: dict, args: tuple, kwargs: dict, delays: list) -> None:
    counters["sim.network.hops_priced"] += sum(len(p) - 1 for p in args[1])


def _count_qualified(counters: dict, args: tuple, kwargs: dict, records: list) -> None:
    counters["core.state.qualified"] += 1
    if records:
        counters["core.state.qualified_nonempty"] += 1


def _count_submit(counters: dict, args: tuple, kwargs: dict, qid: int) -> None:
    counters["core.query.submitted"] += 1


def _count_submit_batch(counters: dict, args: tuple, kwargs: dict, qids: list) -> None:
    counters["core.query.submitted"] += len(args[1])


def _count_send(counters: dict, args: tuple, kwargs: dict, _: None) -> None:
    counters["core.context.messages"] += 1


def _count_send_path(counters: dict, args: tuple, kwargs: dict, _: None) -> None:
    counters["core.context.messages"] += len(args[2]) - 1


def _count_send_paths(counters: dict, args: tuple, kwargs: dict, _: None) -> None:
    counters["core.context.messages"] += sum(len(p) - 1 for p in args[2])


#: ``(layer, "module:Class" or "module", attribute names, {attribute: hook})``.
#: Module-level functions are listed with their defining module.
TARGETS: tuple[tuple[str, str, tuple[str, ...], dict[str, Callable]], ...] = (
    ("sim.engine", "repro.sim.engine:Simulator", ("run",), {}),
    ("sim.delivery", "repro.sim.delivery:DeliveryCalendar",
     ("deliver", "deliver_at"), {}),
    ("sim.network", "repro.sim.network:NetworkModel",
     ("delay", "path_delay", "path_delays", "add_node", "remove_node"),
     {"delay": _count_hop, "path_delays": _count_batch_hops}),
    ("can.routing", "repro.can.routing", ("greedy_path", "greedy_paths"),
     {"greedy_path": _count_path, "greedy_paths": _count_paths}),
    ("can.routing", "repro.can.inscan", ("inscan_path", "inscan_paths"), {}),
    ("can.overlay", "repro.can.overlay:CANOverlay",
     ("bootstrap", "join", "leave"), {}),
    ("core.diffusion", "repro.core.diffusion:DiffusionEngine",
     ("diffuse", "diffuse_round", "replicate"), {}),
    ("core.state", "repro.core.state:StateCache",
     ("put", "merge", "qualified", "purge"), {"qualified": _count_qualified}),
    ("core.cache", "repro.core.cache:PathCacheIndex",
     ("lookup", "store", "invalidate"), {}),
    ("core.query", "repro.core.query:QueryEngine",
     ("submit", "submit_many", "submit_burst"),
     {"submit": _count_submit, "submit_many": _count_submit_batch,
      "submit_burst": _count_submit_batch}),
    ("core.lifecycle", "repro.core.lifecycle:QueryLifecycle",
     ("begin", "finalize", "expire"), {}),
    ("core.protocol", "repro.core.protocol:PIDCANProtocol",
     ("bootstrap", "on_join", "on_leave", "submit_query", "submit_bulk"), {}),
    ("core.context", "repro.core.context:ProtocolContext",
     ("send", "send_path", "send_path_batch", "deliver_after"),
     {"send": _count_send, "send_path": _count_send_path,
      "send_path_batch": _count_send_paths}),
    ("cloud.engine", "repro.cloud.engine:HostEngine",
     ("add_hosts", "place", "complete", "remove", "availability_matrix",
      "advance_all", "trim"), {}),
    ("cloud.workload", "repro.cloud.workload:PoissonWorkload",
     ("start_node",), {}),
    ("metrics.collector", "repro.metrics.collector:MetricsCollector",
     ("sample",), {}),
)


def target_owner(where: str) -> tuple[Any, str]:
    """``(owner, class name)`` of a :data:`TARGETS` entry: the class for
    ``"module:Class"``, the module itself (class name ``""``) otherwise."""
    module_name, _, class_name = where.partition(":")
    module = importlib.import_module(module_name)
    return (getattr(module, class_name) if class_name else module), class_name


COUNTER_NAMES = (
    "can.routing.paths", "can.routing.hops", "sim.network.hops_priced",
    "core.state.qualified", "core.state.qualified_nonempty",
    "core.query.submitted", "core.context.messages",
)


class Aggregate:
    """Per-name and per-layer totals of the spans inside one kind of
    region, in normalised seconds."""

    def __init__(self) -> None:
        #: span name -> [count, inclusive seconds, self seconds]
        self.by_name: dict[str, list[float]] = {}
        #: layer -> self seconds
        self.self_s: dict[str, float] = {}
        #: layer -> calls entering the layer from another layer
        self.calls: dict[str, int] = {}

    def count(self, name: str) -> int:
        return int(self.by_name.get(name, (0, 0.0, 0.0))[0])

    def inclusive(self, name: str) -> float:
        return float(self.by_name.get(name, (0, 0.0, 0.0))[1])


class Tracer:
    """Records spans of every callable in :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []       # span-name table: "layer:Owner.attr"
        self.layers: list[str] = []      # layer of each span name
        self.name_of: list[int] = []     # per span: index into ``names``
        self.parent: list[int] = []      # per span: causing span, -1 = none
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = [-1]
        #: (namespace, key, original) for every binding replaced.
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_id(self, layer: str, label: str) -> int:
        self.names.append(f"{layer}:{label}")
        self.layers.append(layer)
        return len(self.names) - 1

    def _shim(self, fn: Callable, name_id: int, hook: Optional[Callable]) -> Callable:
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            finally:
                end[span] = clock()
                stack.pop()

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        shim.__name__ = getattr(fn, "__name__", "shim")
        return shim

    @contextmanager
    def region(self, kind: str) -> Iterator[None]:
        """A root span the harness opens around one timed region
        (``"setup"`` or ``"run"``); spans outside any region are ignored
        by :meth:`aggregate`."""
        name = f"{REGION_LAYER}:{kind}"
        if name not in self.names:
            self._name_id(REGION_LAYER, kind)
        span = len(self.start)
        self.name_of.append(self.names.index(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[span] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for layer, where, attrs, hooks in TARGETS:
                owner, class_name = target_owner(where)
                for attr in attrs:
                    original = vars(owner)[attr]
                    label = f"{class_name}.{attr}" if class_name else attr
                    shim = self._shim(original, self._name_id(layer, label), hooks.get(attr))
                    if class_name:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, shim)
                    else:
                        self._rebind_everywhere(original, shim)
        except BaseException:
            # A target renamed under src/: take the shims already placed
            # back off, ``__exit__`` does not run for a failed ``__enter__``.
            self.uninstall()
            raise

    def _rebind_everywhere(self, original: Callable, shim: Callable) -> None:
        """Swap a module-level function in every ``repro`` module that
        holds it under any global name (``from ... import`` copies)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, original))
                    setattr(module, key, shim)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Per-span self time (own clock, seconds): duration minus the
        durations of its direct children."""
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - covered

    def regions(self) -> list[tuple[str, int]]:
        """``(kind, span index)`` of every region span, in order."""
        return [
            (self.names[self.name_of[i]].split(":", 1)[1], int(i))
            for i in np.flatnonzero(np.asarray(self.parent, dtype=np.int64) < 0)
            if self.layers[self.name_of[i]] == REGION_LAYER
        ]

    def aggregate(self, region_seconds: list[float]) -> dict[str, Aggregate]:
        """Totals per region kind.  ``region_seconds[i]`` is what the
        ``i``-th region cost in normalised seconds by the harness's own
        measurement; every span inside that region is scaled by
        ``region_seconds[i] / region span duration``, so the spans of a
        region sum to exactly the time the end-to-end metric reports."""
        regions = self.regions()
        if len(regions) != len(region_seconds):
            raise ValueError("one normalised duration per region is required")
        out: dict[str, Aggregate] = {}
        if not regions:
            return out
        n = len(self.start)
        start, end = np.asarray(self.start), np.asarray(self.end)
        duration = end - start
        self_time = self.self_times()
        name_of = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        layer_ids = {layer: i for i, layer in enumerate(dict.fromkeys(self.layers))}
        layer_of_name = np.asarray([layer_ids[layer] for layer in self.layers])
        layer_of = layer_of_name[name_of]
        # Spans are appended in start order, so a region owns the index
        # range up to the next root span.
        roots = np.flatnonzero(parent < 0)
        owner_root = roots[np.searchsorted(roots, np.arange(n), side="right") - 1]
        enters = np.ones(n, dtype=bool)
        has_parent = parent >= 0
        enters[has_parent] = layer_of[has_parent] != layer_of[parent[has_parent]]

        for (kind, root), seconds in zip(regions, region_seconds):
            agg = out.setdefault(kind, Aggregate())
            scale = seconds / duration[root] if duration[root] > 0 else 0.0
            members = np.flatnonzero(owner_root == root)
            ids = name_of[members]
            counts = np.bincount(ids, minlength=len(self.names))
            incl = np.bincount(ids, weights=duration[members], minlength=len(self.names))
            selfs = np.bincount(ids, weights=self_time[members], minlength=len(self.names))
            entered = np.bincount(
                layer_of[members][enters[members]], minlength=len(layer_ids)
            )
            for i, name in enumerate(self.names):
                if counts[i]:
                    row = agg.by_name.setdefault(name, [0, 0.0, 0.0])
                    row[0] += int(counts[i])
                    row[1] += float(incl[i]) * scale
                    row[2] += float(selfs[i]) * scale
                    layer = self.layers[i]
                    agg.self_s[layer] = agg.self_s.get(layer, 0.0) + float(selfs[i]) * scale
            for layer, i in layer_ids.items():
                if entered[i]:
                    agg.calls[layer] = agg.calls.get(layer, 0) + int(entered[i])
        return out

    def to_document(self) -> dict[str, Any]:
        """The raw spans, column by column (JSON-ready)."""
        return {
            "names": self.names,
            "name": self.name_of,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counters": self.counters,
        }
