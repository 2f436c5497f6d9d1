"""Parallel experiment campaigns over the scenario × scale × seed grid.

The paper's evaluation (§IV, Figs. 4-8, Table III) is a grid of runs; a
:class:`CampaignSpec` declares such a grid (which scenarios, at which
scales, across which seeds, optionally filtered to a protocol subset) and
:func:`run_campaign` executes it cell-by-cell on a
``ProcessPoolExecutor``.  One *cell* is one simulation run — a single
curve of a figure at a single seed — identified by a stable content hash
of its full configuration, so the unit of parallelism, persistence and
resume is the same thing.

Each finished cell is written immediately (atomically, via
:func:`repro.experiments.store.save_cell_doc`) as one JSON document under
``<campaign dir>/cells/``.  Re-running the same spec skips every cell
whose document already exists — a killed campaign continues where it left
off, and growing the seed list only runs the new seeds.
:func:`campaign_summary` aggregates the persisted documents (no
re-simulation) across seeds into per-curve mean ± 95% CI via
:class:`repro.experiments.multiseed.MetricStats`.

CLI: ``python -m repro campaign run|status|report`` (see
``docs/experiments.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.core.protocol import PIDCANParams
from repro.experiments.config import (
    SCALES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.multiseed import SUMMARY_METRICS, MetricStats, stats_from_metric_docs
from repro.experiments.runner import run_config
from repro.experiments.scenarios import SCENARIO_CONFIGS, scenario_configs
from repro.experiments.store import load_cell_doc, result_to_dict, save_cell_doc
from repro.sim.network import NetworkParams

__all__ = [
    "CampaignSpec",
    "CampaignCell",
    "CampaignReport",
    "CampaignStatus",
    "run_campaign",
    "campaign_status",
    "load_campaign_cells",
    "campaign_summary",
    "SPEC_FILENAME",
]

#: The spec written alongside the cells, so ``status`` can compare the
#: declared grid against what's on disk without re-passing the spec.
SPEC_FILENAME = "campaign.json"

#: Config fields that hold a params dataclass: a mapping override merges
#: into the cell's own instance instead of replacing it.
_NESTED = {"pidcan": PIDCANParams, "network": NetworkParams}


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower() or "cell"


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: a single simulation run with its coordinates."""

    scenario: str
    scale: str
    seed: int
    label: str  # the curve label within the scenario (protocol, churn %, n)
    config: ExperimentConfig

    @property
    def cell_id(self) -> str:
        """Stable content hash: same coordinates + config → same id across
        processes and sessions (this keys the on-disk document)."""
        payload = json.dumps(
            {
                "scenario": self.scenario,
                "scale": self.scale,
                "seed": self.seed,
                "label": self.label,
                "config": config_to_dict(self.config),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    @property
    def filename(self) -> str:
        return (
            f"{self.scenario}-{self.scale}-seed{self.seed}-"
            f"{_slug(self.label)}-{self.cell_id}.json"
        )

    def meta(self) -> dict[str, Any]:
        """The ``cell`` section of the stored document."""
        return {
            "id": self.cell_id,
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "label": self.label,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative scenario × scale × seed grid.

    ``protocols`` optionally restricts every scenario to the curves whose
    config uses one of the named protocols (churn/scalability sweeps of a
    single protocol are unaffected unless that protocol is excluded).
    ``overrides`` are extra :class:`ExperimentConfig` fields applied to
    every cell — e.g. ``{"n_nodes": 60, "duration": 3600}`` to shrink a
    smoke campaign below the named scales.  A mapping under ``pidcan`` or
    ``network`` is merged into each cell's own params, so
    ``{"pidcan": {"delta": 1}}`` keeps what the scenario set there (mega's
    cohort ticks) and changes δ alone.
    """

    name: str = "campaign"
    scenarios: tuple[str, ...] = ("fig5",)
    scales: tuple[str, ...] = ("small",)
    seeds: tuple[int, ...] = (42,)
    protocols: Optional[tuple[str, ...]] = None
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists; normalize before validating.
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "scales", tuple(self.scales))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.protocols is not None:
            object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "overrides", dict(self.overrides))
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.scenarios or not self.scales or not self.seeds:
            raise ValueError("scenarios, scales and seeds must be non-empty")
        for axis in ("scenarios", "scales", "seeds", "protocols"):
            values = getattr(self, axis) or ()
            repeated = sorted({v for v in values if values.count(v) > 1}, key=str)
            if repeated:
                raise ValueError(f"repeated {axis} {repeated}: each grid value once")
        unknown = set(self.scenarios) - set(SCENARIO_CONFIGS)
        if unknown:
            raise ValueError(
                f"unknown scenarios {sorted(unknown)}; "
                f"expected among {sorted(SCENARIO_CONFIGS)}"
            )
        unknown = set(self.scales) - set(SCALES)
        if unknown:
            raise ValueError(
                f"unknown scales {sorted(unknown)}; expected among {sorted(SCALES)}"
            )
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(self.overrides) - fields
        if unknown:
            raise ValueError(f"unknown override fields: {sorted(unknown)}")
        for name, params_cls in _NESTED.items():
            value = self.overrides.get(name)
            if isinstance(value, Mapping):
                unknown = set(value) - {f.name for f in dataclasses.fields(params_cls)}
                if unknown:
                    raise ValueError(f"unknown override fields: {name}.{sorted(unknown)}")
            elif value is not None and not isinstance(value, params_cls):
                raise ValueError(
                    f"override {name!r} must be a mapping of {params_cls.__name__} fields"
                )
        reserved = {"seed": "seeds", "protocol": "protocols"}
        for key, grid_field in reserved.items():
            if key in self.overrides:
                raise ValueError(
                    f"override {key!r} conflicts with the grid; "
                    f"use the {grid_field!r} spec field instead"
                )
        # Expand the grid once so bad override *values* (e.g. n_nodes=1)
        # fail here, at spec construction, not mid-campaign.
        self.cells()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "overrides": dict(self.overrides),
        }
        if self.protocols is not None:
            doc["protocols"] = list(self.protocols)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CampaignSpec":
        data = dict(doc)
        known = {"name", "scenarios", "scales", "seeds", "protocols", "overrides"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign spec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    def cells(self) -> list[CampaignCell]:
        """Expand the grid into per-run cells (protocol filter applied)."""
        merged = {
            name: value for name, value in self.overrides.items()
            if name in _NESTED and isinstance(value, Mapping)
        }
        flat = {k: v for k, v in self.overrides.items() if k not in merged}
        out: list[CampaignCell] = []
        for scenario in self.scenarios:
            for scale in self.scales:
                for seed in self.seeds:
                    grid = scenario_configs(scenario, scale=scale, seed=seed, **flat)
                    for label, config in grid.items():
                        if (
                            self.protocols is not None
                            and config.protocol not in self.protocols
                        ):
                            continue
                        if merged:
                            config = dataclasses.replace(config, **{
                                name: dataclasses.replace(getattr(config, name), **value)
                                for name, value in merged.items()
                            })
                        out.append(
                            CampaignCell(scenario, scale, seed, label, config)
                        )
        return out


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _run_cell(config_doc: dict[str, Any]) -> tuple[dict[str, Any], int]:
    """Worker entry point: rebuild the config from its JSON document (the
    same round-trip the store relies on), run it, return the result
    document plus the worker's pid (parallelism evidence in the doc)."""
    result = run_config(config_from_dict(config_doc))
    return result_to_dict(result), os.getpid()


def _cells_dir(directory: str | Path) -> Path:
    return Path(directory) / "cells"


@dataclass(frozen=True)
class CampaignReport:
    """What one ``run_campaign`` invocation did."""

    ran: tuple[str, ...]  # cell ids executed this invocation
    skipped: tuple[str, ...]  # cell ids already complete on disk
    worker_pids: tuple[int, ...]  # distinct pids that produced new cells
    failed: tuple[tuple[str, str], ...] = ()  # (cell id, error) pairs


def run_campaign(
    spec: CampaignSpec,
    directory: str | Path,
    max_workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Execute every missing cell of ``spec`` under ``directory``.

    Cells whose document already exists (and parses) are skipped — calling
    this again after a crash or with a grown grid only runs the remainder.
    Each finished cell is persisted immediately, so progress survives a
    kill at any point; a cell that *raises* is recorded in the report's
    ``failed`` list without discarding the other cells' results.
    """
    directory = Path(directory)
    cells_dir = _cells_dir(directory)
    cells_dir.mkdir(parents=True, exist_ok=True)
    directory.joinpath(SPEC_FILENAME).write_text(
        json.dumps(spec.to_dict(), indent=1, sort_keys=True)
    )

    say = progress or (lambda _msg: None)
    pending: list[CampaignCell] = []
    skipped: list[str] = []
    for cell in spec.cells():
        path = cells_dir / cell.filename
        if path.exists():
            try:
                load_cell_doc(path)
            except (ValueError, json.JSONDecodeError):
                path.unlink()  # half-written / stale schema: redo
            else:
                skipped.append(cell.cell_id)
                continue
        pending.append(cell)

    say(
        f"campaign {spec.name!r}: {len(pending)} cell(s) to run, "
        f"{len(skipped)} already complete"
    )
    if not pending:
        return CampaignReport(ran=(), skipped=tuple(skipped), worker_pids=())

    workers = max_workers or min(len(pending), os.cpu_count() or 1)
    ran: list[str] = []
    failed: list[tuple[str, str]] = []
    pids: set[int] = set()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_run_cell, config_to_dict(cell.config)): cell
            for cell in pending
        }
        for future in as_completed(futures):
            cell = futures[future]
            done = len(ran) + len(failed) + 1
            try:
                run_doc, pid = future.result()
            except Exception as exc:  # persist the rest; report at the end
                failed.append((cell.cell_id, f"{type(exc).__name__}: {exc}"))
                say(
                    f"[{done}/{len(pending)}] {cell.scenario}/{cell.scale} "
                    f"seed {cell.seed} {cell.label} FAILED: {exc}"
                )
                continue
            pids.add(pid)
            meta = cell.meta()
            meta["worker_pid"] = pid
            save_cell_doc(cells_dir / cell.filename, meta, run_doc)
            ran.append(cell.cell_id)
            say(
                f"[{done}/{len(pending)}] {cell.scenario}/{cell.scale} "
                f"seed {cell.seed} {cell.label} "
                f"(t_ratio={run_doc['metrics']['t_ratio']:.3f}, pid {pid})"
            )
    return CampaignReport(
        ran=tuple(ran),
        skipped=tuple(skipped),
        worker_pids=tuple(sorted(pids)),
        failed=tuple(failed),
    )


# ----------------------------------------------------------------------
# status / aggregation (persisted documents only — no simulation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignStatus:
    """Disk state of a campaign directory against its declared grid."""

    spec: CampaignSpec
    done: tuple[str, ...]  # cell ids with a document on disk
    missing: tuple[CampaignCell, ...]

    @property
    def total(self) -> int:
        return len(self.done) + len(self.missing)

    @property
    def complete(self) -> bool:
        return not self.missing


def campaign_status(
    directory: str | Path, spec: Optional[CampaignSpec] = None
) -> CampaignStatus:
    """Compare the declared grid against the cell documents on disk.

    ``spec`` defaults to the one persisted by the last ``run`` (the
    ``campaign.json`` next to the cells).
    """
    directory = Path(directory)
    if spec is None:
        spec_path = directory / SPEC_FILENAME
        if not spec_path.exists():
            raise FileNotFoundError(
                f"no {SPEC_FILENAME} under {directory}; pass a spec or run first"
            )
        spec = CampaignSpec.from_json(spec_path)
    cells_dir = _cells_dir(directory)
    done: list[str] = []
    missing: list[CampaignCell] = []
    for cell in spec.cells():
        if (cells_dir / cell.filename).exists():
            done.append(cell.cell_id)
        else:
            missing.append(cell)
    return CampaignStatus(spec=spec, done=tuple(done), missing=tuple(missing))


def load_campaign_cells(
    directory: str | Path, spec: Optional[CampaignSpec] = None
) -> list[dict[str, Any]]:
    """Persisted cell documents under ``directory`` (sorted by file name
    for stable output).

    Without a ``spec``, every document is returned.  With one, only
    documents belonging to its grid (matched by content-hash cell id)
    are returned — this is how reports exclude stale cells left behind
    by an earlier configuration that shared the directory, which would
    otherwise be averaged into the same (scenario, scale, label) group.
    """
    cells_dir = _cells_dir(directory)
    if not cells_dir.is_dir():
        raise FileNotFoundError(f"no cells directory under {directory}")
    docs = [load_cell_doc(path) for path in sorted(cells_dir.glob("*.json"))]
    if spec is not None:
        valid = {cell.cell_id for cell in spec.cells()}
        docs = [doc for doc in docs if doc["cell"]["id"] in valid]
    return docs


def campaign_summary(
    docs: list[dict[str, Any]],
    metrics: tuple[str, ...] = SUMMARY_METRICS,
) -> dict[tuple[str, str], dict[str, dict[str, MetricStats]]]:
    """Aggregate cell documents across seeds.

    Returns ``{(scenario, scale): {label: {metric: MetricStats}}}`` —
    each leaf carries the per-seed values, mean and 95% CI for one curve
    of one figure (a metric some document predates is left out).  Pure
    document processing: re-rendering a report never re-runs a simulation.
    """
    groups: dict[tuple[str, str], dict[str, list[dict[str, Any]]]] = {}
    for doc in docs:
        cell = doc["cell"]
        key = (cell["scenario"], cell["scale"])
        groups.setdefault(key, {}).setdefault(cell["label"], []).append(
            doc["run"]["metrics"]
        )
    return {
        key: {
            label: stats_from_metric_docs(metric_docs, names=metrics)
            for label, metric_docs in by_label.items()
        }
        for key, by_label in groups.items()
    }
