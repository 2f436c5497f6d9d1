#!/usr/bin/env python
"""Reachability probe: the ``src/repro`` functions the product surface
never enters.

The product surface is the paper's evaluation as a user drives it:

- every scenario of ``python -m repro`` at ``--scale tiny`` (``fig5``
  also with ``--chart``, ``burst`` also with ``--burst-factor``);
- the four ``bench/`` workloads, one full-length repeat each through
  ``bench.cell.run_repeat`` (the calibration kernel is stubbed out);
- ``campaign run`` / ``status`` / ``report`` / ``report --chart`` on a
  shrunk grid, plus one cell through ``campaign._run_cell`` in this
  process, because the pool's workers are not profiled;
- one tiny cell for each non-default value of every enumerated config
  knob (:data:`KNOB_SWEEP`);
- every ``examples/*.py``, run as ``__main__`` with its default arguments.

A ``sys.setprofile`` / ``threading.setprofile`` hook, installed before
``repro`` is imported (so import-time probes count), records every code
object entered.  Every function or method defined under ``src/repro`` —
found by AST; lambdas and comprehensions are not counted — that the
surface never entered is printed, unless :data:`ALLOWLIST` names it with
one of the :data:`REASONS`.  Every module under ``src/repro`` is audited;
the seed's scalar oracles live test-side, in ``tests/oracles.py``.

Exit status 0 when every unentered function is allowlisted and every
allowlist entry is still unentered, 1 otherwise.

Run:  python tools/reach.py        (about 3 minutes on 2 cores)
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")

#: Why an unentered function may stay in ``src/``.
REASONS = {
    "trace-target": "bench/trace.py TARGETS wraps it",
    "example": "an example uses it",
    "safety": "an invariant audit, the capacity/eviction path or input validation",
    "abstract": "an abstract base class requires it",
    "observer": "a test reads model state through it",
}

#: ``(ExperimentConfig overrides, PIDCANParams overrides)`` of one tiny
#: cell per non-default value of an enumerated knob, plus the lever
#: combinations no scenario runs: a baseline under quantized arrivals,
#: churn under mega's cohort ticks, churn under hotrange's cache and the
#: cache under quantized arrivals (batched cache-on routing).  The
#: scenarios cover the protocols, the cache policies and the levers alone.
KNOB_SWEEP: tuple[tuple[dict, dict], ...] = (
    ({"admission": "strict"}, {}),
    ({"local_first": True}, {}),
    ({"selection_policy": "worst-fit"}, {}),
    ({"selection_policy": "first-fit"}, {}),
    ({"selection_policy": "random"}, {}),
    ({"cmax_mode": "gossip"}, {}),
    ({"trace_tasks": True}, {}),
    ({"churn_degree": 0.25, "churn_kills_tasks": True}, {}),
    ({"churn_degree": 0.25, "churn_kills_tasks": True, "checkpoint_enabled": True}, {}),
    ({}, {"diffusion_method": "sid"}),
    ({}, {"sos": True}),
    ({}, {"vd": True}),
    ({}, {"check_duty_cache": False}),
    ({"protocol": "newscast", "arrival_quantum": 1.0}, {}),
    ({"churn_degree": 0.25, "arrival_quantum": 1.0, "delivery_quantum": 0.1},
     {"phase_buckets": 16}),
    ({"churn_degree": 0.25, "zipf_s": 1.0, "burst_factor": 8.0, "cache_policy": "lru",
      "cache_replication": True}, {}),
    ({"zipf_s": 1.0, "burst_factor": 8.0, "cache_policy": "lru", "arrival_quantum": 5.0}, {}),
)


# ----------------------------------------------------------------------
# what exists: every function and method under src/repro, by AST
# ----------------------------------------------------------------------
def defined_functions(src: Path = SRC) -> dict[tuple[str, str, int], str]:
    """``{(module, qualname, first line): path}`` of every ``def`` under
    ``src/repro``.  The first line is the first decorator's, as in
    ``co_firstlineno``; qualnames follow ``co_qualname``."""
    found: dict[tuple[str, str, int], str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(module, qualname, first)] = rel.as_posix()
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename=str(rel)), "")
    return found


def load_allowlist(path: Path = ALLOWLIST) -> list[tuple[str, str, str]]:
    """``[(module, qualname, reason)]``, one per non-blank, non-comment
    line ``module:qualname reason``."""
    entries = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, reason = line.split()
            module, _, qualname = name.partition(":")
            entries.append((module, qualname, reason))
    return entries


# ----------------------------------------------------------------------
# what runs: the profile hook
# ----------------------------------------------------------------------
@contextlib.contextmanager
def recording() -> Iterator[set]:
    """Record the code object of every Python frame entered, in this
    thread and in threads started meanwhile, into the yielded set."""
    entered: set = set()
    add = entered.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield entered
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])


def entered_keys(entered: set, src: Path = SRC) -> set[tuple[str, str, int]]:
    """The :func:`defined_functions` keys of the ``src/repro`` code
    objects in ``entered``."""
    root = str(src / "repro")
    keys = set()
    for code in entered:
        if code.co_filename.startswith(root):
            rel = Path(code.co_filename).relative_to(src)
            module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")
            keys.add((module, code.co_qualname, code.co_firstlineno))
    return keys


# ----------------------------------------------------------------------
# the surface
# ----------------------------------------------------------------------
def _step(label: str, fn, *args) -> None:
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        fn(*args)
    print(f"  {label:<40} {time.perf_counter() - started:6.1f}s", file=sys.stderr)


def _cli(*argv: str) -> None:
    from repro.experiments.cli import main

    status = main(list(argv))
    if status:
        raise SystemExit(f"python -m repro {' '.join(argv)} exited {status}")


def _scenarios() -> None:
    from repro.experiments.scenarios import SCENARIOS

    for name in SCENARIOS:
        _step(f"{name} --scale tiny", _cli, name, "--scale", "tiny", "--seed", "1")
    _step("fig5 --chart", _cli, "fig5", "--scale", "tiny", "--chart")
    _step("burst --burst-factor 4", _cli, "burst", "--scale", "tiny", "--burst-factor", "4")


def _workloads() -> None:
    from bench.calibrate import CALIB_REF_S
    from bench.cell import WORKLOADS, model_metrics, run_repeat

    class NoKernel:
        def run(self) -> float:
            return CALIB_REF_S

    for name, workload in WORKLOADS.items():
        _step(f"bench {name}", lambda w=workload: model_metrics(run_repeat(w.build(1), NoKernel())))


def _campaign() -> None:
    from repro.experiments import campaign
    from repro.experiments.config import config_to_dict

    with tempfile.TemporaryDirectory() as tmp:
        directory = str(Path(tmp) / "campaign")
        _step("campaign run", _cli, "campaign", "run", "--scenarios", "fig5", "fig8",
              "--scales", "tiny", "--seeds", "1", "2", "--workers", "2",
              "--override", "n_nodes=40", "duration=1200", "--dir", directory)
        _step("campaign status", _cli, "campaign", "status", "--dir", directory)
        _step("campaign report --chart", _cli, "campaign", "report", "--dir", directory,
              "--chart")
        _step("campaign report (committed)", _cli, "campaign", "report", "--dir",
              str(REPO / "artifacts" / "BENCH_campaign_tiny"))
        spec = campaign.CampaignSpec.from_json(Path(directory) / campaign.SPEC_FILENAME)
        cell = spec.cells()[0]
        _step("campaign cell in-process", campaign._run_cell, config_to_dict(cell.config))


def _knobs() -> None:
    from dataclasses import replace

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    base = ExperimentConfig.at_scale("tiny", protocol="hid-can", demand_ratio=0.5, seed=1)
    for overrides, pidcan in KNOB_SWEEP:
        config = replace(base, pidcan=replace(base.pidcan, **pidcan), **overrides)
        label = " ".join(f"{k}={v}" for k, v in {**overrides, **pidcan}.items())
        _step(label[:40], lambda c=config: SOCSimulation(c).run())


def _examples() -> None:
    argv = sys.argv
    try:
        for script in sorted((REPO / "examples").glob("*.py")):
            sys.argv = [str(script)]
            _step(f"examples/{script.name}", runpy.run_path, str(script), None, "__main__")
    finally:
        sys.argv = argv


def run_surface() -> None:
    for part in (_scenarios, _workloads, _campaign, _knobs, _examples):
        print(f"{part.__name__.strip('_')}:", file=sys.stderr)
        part()


# ----------------------------------------------------------------------
def main() -> int:
    for path in (str(SRC), str(REPO)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        raise SystemExit("repro was imported before the hook: import-time code would be missed")
    started = time.perf_counter()
    with recording() as entered:
        run_surface()
    elapsed = time.perf_counter() - started

    defined = defined_functions()
    reached = entered_keys(entered)
    unentered = {key: path for key, path in defined.items() if key not in reached}
    allowed = {(module, qualname): reason for module, qualname, reason in load_allowlist()}
    unexplained = sorted(
        (path, line, qualname) for (module, qualname, line), path in unentered.items()
        if (module, qualname) not in allowed
    )
    unentered_names = {(module, qualname) for module, qualname, _ in unentered}
    stale = sorted(name for name in allowed if name not in unentered_names)

    print(f"{len(defined) - len(unentered)} of {len(defined)} functions entered "
          f"in {elapsed:.0f}s; {len(unentered)} unentered, "
          f"{len(unentered) - len(unexplained)} of them allowlisted")
    for path, line, qualname in unexplained:
        print(f"UNENTERED  src/{path}:{line}  {qualname}")
    for module, qualname in stale:
        print(f"STALE      {module}:{qualname} is entered; drop it from {ALLOWLIST.name}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
