"""Persistence for experiment results.

Serializes :class:`SimulationResult` to a stable JSON document (config,
end-of-run metrics, hourly series, traffic breakdown) so runs can be
archived and re-rendered without re-running the simulations — the
workflow behind ``docs/experiments.md``.  Campaign cells
(:mod:`repro.experiments.campaign`) persist one document per cell,
written atomically so a killed campaign never leaves a half-written cell
behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.config import config_to_dict
from repro.experiments.runner import SimulationResult

__all__ = [
    "result_to_dict",
    "save_cell_doc",
    "load_cell_doc",
]

#: Bump when the document layout changes.
SCHEMA_VERSION = 1


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """A JSON-ready document for one run."""
    return {
        "schema": SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "metrics": {
            "t_ratio": result.t_ratio,
            "f_ratio": result.f_ratio,
            "fairness": result.fairness,
            "per_node_msg_cost": result.per_node_msg_cost,
            "generated": result.generated,
            "finished": result.finished,
            "failed": result.failed,
            "placed": result.placed,
            "evicted": result.evicted,
            "recovered": result.recovered,
            "peak_population": result.peak_population,
            "query_timeouts": result.query_timeouts,
            "messages_per_query": result.messages_per_query,
            "cache_hit_ratio": result.cache_hit_ratio,
            "cache_regret": result.cache_regret,
            "cache_hits": result.cache_hits,
            "cache_lookups": result.cache_lookups,
            "replications": result.replications,
        },
        "balance": result.balance.as_dict(),
        "query_latency": result.query_latency.as_dict(),
        "traffic_by_kind": dict(result.traffic_by_kind),
        "series": {
            name: series.as_dict() for name, series in result.series.items()
        },
        "wall_clock_s": result.wall_clock_s,
    }


def save_cell_doc(
    path: str | Path, cell: Mapping[str, Any], run: Mapping[str, Any]
) -> Path:
    """Atomically write one campaign-cell document.

    ``cell`` is the grid coordinate (scenario/scale/seed/label/id, plus
    anything the campaign wants to record, e.g. the worker pid); ``run``
    is a :func:`result_to_dict` document.  Write-then-rename keeps resume
    safe: a cell file either exists complete or not at all.
    """
    path = Path(path)
    doc = {"schema": SCHEMA_VERSION, "cell": dict(cell), "run": dict(run)}
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True, allow_nan=True))
    os.replace(tmp, path)
    return path


def load_cell_doc(path: str | Path) -> dict[str, Any]:
    """Load one campaign-cell document (schema-checked, no rehydration)."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported cell schema {doc.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    if "cell" not in doc or "run" not in doc:
        raise ValueError(f"malformed cell document {path}")
    return doc
