"""Command-line entry point.

Two families of invocation: single scenarios (one figure/table, run
serially, printed and discarded) and campaigns (a scenario × scale × seed
grid, run in parallel, persisted cell-by-cell, resumable)::

    python -m repro fig5 --scale tiny
    python -m repro table3 --scale small --seed 7
    python -m repro campaign run --scenarios fig4a fig5 --scales tiny --seeds 1 2 3
    python -m repro campaign status --dir campaigns/campaign
    python -m repro campaign report --dir campaigns/campaign

See ``docs/experiments.md`` for the persistence layout and workflow.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.experiments.campaign import (
    SPEC_FILENAME,
    CampaignSpec,
    campaign_status,
    campaign_summary,
    load_campaign_cells,
    run_campaign,
)
from repro.experiments.claims import evaluate_claims, render_claims
from repro.experiments.config import SCALES
from repro.experiments.reporting import render_campaign, render_scenario
from repro.experiments.scenarios import SCENARIOS, run_scenario

__all__ = ["main", "build_parser", "build_campaign_parser", "parse_cli"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the evaluation of 'Probabilistic Best-fit "
            "Multi-dimensional Range Query in Self-Organizing Cloud' "
            "(ICPP 2011)."
        ),
    )
    parser.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="paper figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="population/horizon preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render ASCII line charts of the series (mirrors the figures)",
    )
    parser.add_argument(
        "--burst-factor",
        type=float,
        default=None,
        metavar="X",
        help="arrival-rate multiplier for the burst scenario (default: 8)",
    )
    return parser


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Run, inspect and aggregate a persisted scenario × scale × seed "
            "campaign grid (see docs/experiments.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute every missing cell of the grid")
    run.add_argument("--spec", help="JSON campaign spec file (CLI flags override it)")
    run.add_argument("--name", help="campaign name (default: campaign)")
    run.add_argument(
        "--scenarios", nargs="+", choices=sorted(SCENARIOS), help="grid scenarios"
    )
    run.add_argument(
        "--scales", nargs="+", choices=sorted(SCALES), help="grid scale presets"
    )
    run.add_argument("--seeds", nargs="+", type=int, help="grid seeds")
    run.add_argument(
        "--protocols", nargs="+", help="restrict scenarios to these protocol curves"
    )
    run.add_argument(
        "--override",
        nargs="*",
        default=[],
        metavar="FIELD=VALUE",
        help="ExperimentConfig overrides applied to every cell "
        "(e.g. n_nodes=60 duration=3600)",
    )
    run.add_argument(
        "--dir", help="campaign directory (default: campaigns/<name>)"
    )
    run.add_argument(
        "--workers", type=int, default=None, help="process pool size "
        "(default: min(cells, cpu count))"
    )

    status = sub.add_parser("status", help="compare the grid against disk")
    status.add_argument("--dir", required=True, help="campaign directory")
    status.add_argument(
        "--spec", help="JSON spec (default: the campaign.json persisted by run)"
    )

    report = sub.add_parser(
        "report", help="aggregate persisted cells into mean ± CI tables and paper claims"
    )
    report.add_argument("--dir", required=True, help="campaign directory")
    report.add_argument(
        "--chart",
        action="store_true",
        help="also chart the seed-averaged T-Ratio series per scenario",
    )
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse any supported command line (raises SystemExit on bad input).

    The one parser :func:`main` dispatches through, so the docs-consistency
    tests that check every command quoted in README/docs parse what the
    CLI runs.
    """
    if argv and argv[0] == "campaign":
        return build_campaign_parser().parse_args(argv[1:])
    return build_parser().parse_args(argv)


# ----------------------------------------------------------------------
# campaign subcommands
# ----------------------------------------------------------------------
def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"override {pair!r} is not FIELD=VALUE")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value  # bare strings (e.g. protocol=hid-can)
    return out


def _resolve_spec(args: argparse.Namespace) -> CampaignSpec:
    doc: dict[str, Any] = {}
    if args.spec:
        doc = json.loads(Path(args.spec).read_text())
    if args.name:
        doc["name"] = args.name
    if args.scenarios:
        doc["scenarios"] = args.scenarios
    if args.scales:
        doc["scales"] = args.scales
    if args.seeds:
        doc["seeds"] = args.seeds
    if args.protocols:
        doc["protocols"] = args.protocols
    if args.override:
        doc["overrides"] = {**doc.get("overrides", {}), **_parse_overrides(args.override)}
    return CampaignSpec.from_dict(doc)


def _campaign_run(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    try:
        spec = _resolve_spec(args)
    except (ValueError, OSError) as exc:
        print(f"invalid campaign spec: {exc}", file=sys.stderr)
        return 2
    directory = args.dir or f"campaigns/{spec.name}"
    started = time.perf_counter()
    report = run_campaign(
        spec, directory, max_workers=args.workers, progress=print
    )
    print(
        f"\n{len(report.ran)} cell(s) run, {len(report.skipped)} skipped "
        f"(already complete) across {len(report.worker_pids)} worker(s); "
        f"{time.perf_counter() - started:.1f}s wall clock"
    )
    print(f"cells persisted under {directory}/cells — "
          f"next: python -m repro campaign report --dir {directory}")
    if report.failed:
        print(f"\n{len(report.failed)} cell(s) FAILED:", file=sys.stderr)
        for cell_id, error in report.failed:
            print(f"  {cell_id}: {error}", file=sys.stderr)
        print("re-run the same command to retry them", file=sys.stderr)
        return 1
    return 0


def _campaign_status(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_json(args.spec) if args.spec else None
    try:
        status = campaign_status(args.dir, spec)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    by_group: dict[tuple[str, str], list[int]] = {}
    for cell in status.spec.cells():
        done = (cell.cell_id in status.done)
        counts = by_group.setdefault((cell.scenario, cell.scale), [0, 0])
        counts[0] += done
        counts[1] += 1
    print(f"campaign {status.spec.name!r} under {args.dir}:")
    for (scenario, scale), (done, total) in sorted(by_group.items()):
        print(f"  {scenario} @ {scale}: {done}/{total} cells")
    print(
        f"{len(status.done)}/{status.total} complete"
        + ("" if status.complete else
           " — resume with: python -m repro campaign run "
           f"--spec {args.dir}/campaign.json --dir {args.dir}")
    )
    return 0


def _campaign_report(args: argparse.Namespace) -> int:
    try:
        all_docs = load_campaign_cells(args.dir)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    spec_path = Path(args.dir) / SPEC_FILENAME
    spec = CampaignSpec.from_json(spec_path) if spec_path.exists() else None
    docs = load_campaign_cells(args.dir, spec)
    stale = len(all_docs) - len(docs)
    if stale:
        print(
            f"(excluding {stale} stale cell(s) not in the current "
            f"{SPEC_FILENAME} grid)\n"
        )
    print(render_campaign(campaign_summary(docs)))
    verdicts = evaluate_claims(docs)
    if verdicts:
        print()
        print(render_claims(verdicts))
    if args.chart:
        from repro.experiments.plots import mean_series_chart

        groups: dict[tuple[str, str], dict[str, list[dict[str, Any]]]] = {}
        for doc in docs:
            cell = doc["cell"]
            series = doc["run"]["series"].get("t_ratio")
            if series is None:
                continue
            key = (cell["scenario"], cell["scale"])
            groups.setdefault(key, {}).setdefault(cell["label"], []).append(series)
        for (scenario, scale), by_label in sorted(groups.items()):
            print()
            print(
                mean_series_chart(
                    by_label, title=f"{scenario} @ {scale}: mean T-Ratio"
                )
            )
    return 0


_CAMPAIGN_COMMANDS = {
    "run": _campaign_run,
    "status": _campaign_status,
    "report": _campaign_report,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_cli(argv)
    if argv and argv[0] == "campaign":
        return _CAMPAIGN_COMMANDS[args.command](args)
    if args.burst_factor is not None and args.scenario != "burst":
        print("--burst-factor only applies to the burst scenario", file=sys.stderr)
        return 2
    if args.burst_factor is not None and args.burst_factor < 1.0:
        print("--burst-factor must be >= 1", file=sys.stderr)
        return 2
    extra = (
        {"burst_factor": args.burst_factor} if args.burst_factor is not None else {}
    )
    started = time.perf_counter()
    results = run_scenario(args.scenario, scale=args.scale, seed=args.seed, **extra)
    if args.chart and args.scenario != "table3":
        from repro.experiments.plots import scenario_charts

        metrics = ("t_ratio",) if args.scenario.startswith("fig4") else (
            "t_ratio", "f_ratio", "fairness",
        )
        print(scenario_charts(results, metrics=metrics))
        print()
    print(render_scenario(args.scenario, results))
    print(
        f"\n[{args.scenario} @ {args.scale}, seed {args.seed}: "
        f"{time.perf_counter() - started:.1f}s wall clock]"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
