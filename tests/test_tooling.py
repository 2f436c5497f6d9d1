"""Style-drift gate: run ``ruff check`` when the linter is available.

The project pins its lint policy in ``pyproject.toml`` (``[tool.ruff]``).
Containers that ship without ruff skip this test instead of failing —
the configuration still travels with the repo so any environment that
has the linter (CI, dev machines) catches drift immediately.  Unused
imports (pyflakes' F401) are caught either way, by a stdlib ``ast`` scan.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import assert_no_dead_storage

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ruff_command() -> list[str] | None:
    if shutil.which("ruff"):
        return ["ruff"]
    try:
        import ruff  # noqa: F401
    except ImportError:
        return None
    return [sys.executable, "-m", "ruff"]


def test_ruff_check_clean():
    command = _ruff_command()
    if command is None:
        pytest.skip("ruff is not installed in this environment")
    proc = subprocess.run(
        [*command, "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"ruff found style drift:\n{proc.stdout}{proc.stderr}"


def test_ruff_config_present():
    """The lint policy must stay in the repo even where ruff isn't."""
    config = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.ruff]" in config


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the string annotations (``"Zone"``) under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                      if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every name ``source`` imports and its scope
    never reads — pyflakes' F401, with stdlib ``ast``.  A module-level
    import may be read anywhere in the module, a function's only in that
    function; a name in the module's ``__all__`` counts as read, and so
    does a name in a string annotation.  ``__future__`` imports and lines
    marked ``noqa`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {
        elt.value
        for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for elt in node.value.elts if isinstance(elt, ast.Constant)
    }

    def imports_of(scope: ast.AST):
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from imports_of(child)

    unused = []
    scopes = [tree] + [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        read = exported | {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in ast.walk(scope):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if annotation is not None:
                    read |= _annotation_names(annotation)
        for node in imports_of(scope):
            if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    """F401 without ruff: no module under ``src``, ``tests``,
    ``benchmarks``, ``tools`` or ``examples`` imports a name it never
    uses (``__init__.py`` re-exports are the package's API and are
    skipped)."""
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line} {name}"
        for root in ("src", "tests", "benchmarks", "tools", "examples")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not offenders, f"unused imports: {offenders}"


def test_unused_import_gate_catches_planted_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from a.b import Kept, Gone\n"
        "import ruff  # noqa: F401\n"
        "__all__ = ['Kept']\n"
        "if TYPE_CHECKING:\n"
        "    from c import Leaf\n"
        "def f(x: 'Leaf | Sequence[int]'):\n"
        "    import json\n"
        "    from d import used_here\n"
        "    return used_here(sys.argv)\n"
        "def g():\n"
        "    return json\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "np"), (5, "Gone"), (11, "json")]


def test_host_engine_equivalence_smoke():
    """Fast-gate smoke of the execution substrate: one short randomized
    schedule through both the vectorized HostEngine and the scalar
    reference must stay indistinguishable (the heavy property suite lives
    in tests/cloud/test_engine_equivalence.py; this runs in well under a
    second so it belongs in the pre-commit gate)."""
    from tests.oracles import assert_engines_equivalent

    stats = assert_engines_equivalent(seed=1, n_hosts=8, steps=120)
    assert stats["placed"] > 0 and stats["completed"] > 0


def test_overlay_equivalence_smoke():
    """Fast-gate smoke of the overlay substrate: one short randomized
    join/leave/route/diffuse schedule through both the vectorized
    overlay and the verbatim scalar reference must stay
    indistinguishable — identical adjacency, routing paths (hop for hop)
    and diffusion recipients (the heavy suites live in
    tests/can/test_overlay_equivalence.py and test_overlay_stateful.py)."""
    from tests.oracles import assert_overlays_equivalent

    stats = assert_overlays_equivalent(seed=1, n=20, dims=3, steps=21)
    assert stats["routes"] > 0 and stats["diffusions"] > 0


def test_cohort_equivalence_smoke():
    """Fast-gate smoke of cohort event coalescing: a small HID-CAN cell
    under cohort ticking must stay metric- and series-identical to the
    per-member reference scheduler (the full cells — paper scale, churn,
    baselines — run against recorded rows in
    tests/experiments/test_coalescing.py)."""
    from repro.core.protocol import PIDCANParams
    from repro.experiments.config import ExperimentConfig
    from tests.oracles import assert_tick_modes_equivalent

    per_node, _ = assert_tick_modes_equivalent(
        ExperimentConfig(
            protocol="hid-can",
            demand_ratio=0.5,
            n_nodes=48,
            duration=3000.0,
            sample_period=1000.0,
            seed=2,
            pidcan=PIDCANParams(phase_buckets=16),
        )
    )
    assert per_node.generated > 0


def test_delivery_coalescing_equivalence_smoke():
    """Fast-gate smoke of delivery-event coalescing: a small HID-CAN cell
    through the delivery calendar must stay metric- and series-identical
    to the per-message reference calendar (the full cells — paper scale,
    churn — run against recorded rows in
    tests/experiments/test_coalescing.py)."""
    from repro.core.protocol import PIDCANParams
    from repro.experiments.config import ExperimentConfig
    from tests.oracles import assert_delivery_modes_equivalent

    per_message, _ = assert_delivery_modes_equivalent(
        ExperimentConfig(
            protocol="hid-can",
            demand_ratio=0.5,
            n_nodes=48,
            duration=3000.0,
            sample_period=1000.0,
            seed=2,
            pidcan=PIDCANParams(phase_buckets=16),
        )
    )
    assert per_message.generated > 0


def test_mega_scenario_smoke():
    """The mega tier runs end-to-end at toy size with every coalescing
    lever on (cohort ticking, arrival quantum, delivery quantum, memory
    budget)."""
    from repro.experiments.scenarios import run_scenario

    results = run_scenario("mega", scale="tiny", seed=1,
                           n_nodes=64, duration=600.0)
    result = results["hid-can"]
    assert result.config.pidcan.phase_buckets >= 1
    assert result.config.arrival_quantum > 0
    assert result.config.delivery_quantum > 0
    assert result.generated > 0


def test_mega2_scenario_smoke():
    """The mega2 tier (every mega lever, three times the population)
    runs end-to-end at toy size."""
    from repro.experiments.scenarios import run_scenario

    results = run_scenario("mega2", scale="tiny", seed=1,
                           n_nodes=96, duration=600.0)
    result = results["hid-can"]
    assert result.config.pidcan.phase_buckets >= 1
    assert result.config.delivery_quantum > 0
    assert result.generated > 0


def test_cache_off_equivalence_smoke():
    """Fast-gate smoke of the hot-range cache's opt-in contract: with
    ``cache_policy=None`` a small Zipf-skewed cell is bit-identical
    whether the PIList is the RangeCache TTL policy or the verbatim seed
    scalar, and no cache counter moves (the paper-scale and churn cells
    run against recorded rows in tests/experiments/test_hotrange.py)."""
    from repro.experiments.config import ExperimentConfig
    from tests.oracles import assert_cache_off_equivalent

    stock, _ = assert_cache_off_equivalent(
        ExperimentConfig(
            protocol="hid-can",
            demand_ratio=0.5,
            n_nodes=48,
            duration=3000.0,
            sample_period=1000.0,
            seed=2,
            zipf_s=1.0,
        )
    )
    assert stock.generated > 0
    assert stock.cache_lookups == 0


def test_construction_digest_smoke():
    """Fast-gate pin of cell construction: a 300-node HID-CAN cell must
    build the zones, adjacency, edge directions, pointer tables, LANs and
    machines recorded in tests/experiments/construction_digests.json, so
    an edit that reorders one set-up RNG draw fails here in a second
    (the 500-node, churned and reference-overlay cells live in
    tests/experiments/test_construction.py)."""
    from repro.experiments.runner import SOCSimulation
    from tests.experiments.construction import construction_cell, recorded_digests
    from tests.oracles import construction_digest

    digest = construction_digest(SOCSimulation(construction_cell(300, 1)))
    assert digest == recorded_digests()["n300-seed1"]


def test_committed_campaign_artifact_matches_its_spec():
    """Cell ids are content hashes of the full config, so any config
    schema change orphans a committed campaign: ``campaign status`` sees
    nothing done and ``campaign run`` leaves the old files behind.  Every
    committed cell must be one the spec computes today — regenerate
    ``artifacts/BENCH_campaign_tiny`` when this fails."""
    from repro.experiments.campaign import campaign_status

    directory = REPO_ROOT / "artifacts" / "BENCH_campaign_tiny"
    status = campaign_status(directory)
    expected = {cell.filename for cell in status.spec.cells()}
    committed = {path.name for path in (directory / "cells").glob("*.json")}
    assert committed - expected == set(), "stale cells; regenerate the artifact"
    assert status.complete, "cells missing; regenerate the artifact"


def test_run_digest_smoke():
    """Fast-gate pin of a whole run: 300 nodes, 1000 simulated seconds
    of HID-CAN under 50 % churn must produce the task counts, per-kind
    traffic, timeouts, event units and latency report recorded in
    tests/experiments/run_digests.json before the route memo and the
    tuple heap entries landed — so a host-only change that moves the
    model fails here in a second (the other protocols, the batched path
    and the cached cell live in tests/experiments/test_run_digests.py)."""
    from tests.experiments.run_cells import digest_of, recorded_digests, run_cells

    digest = digest_of(run_cells(1)["hid-can-churn50"])
    assert digest == recorded_digests()["hid-can-churn50-seed1"]


def _count_routing(monkeypatch) -> dict[str, int]:
    """Wrap the two routers ``repro.can.inscan`` calls: the returned dict
    tallies the routes asked for through the last-route memo (the state
    updates; queries route with ``memo=False``), how many of them repeat
    their start's previous point, and the hops of every path returned."""
    from repro.can import inscan, routing

    tally = {"routes": 0, "repeats": 0, "hops": 0}
    last_point: dict[int, tuple] = {}
    greedy_path, greedy_paths = routing.greedy_path, routing.greedy_paths

    def count_route(start, point) -> None:
        point = tuple(map(float, point))
        tally["routes"] += 1
        tally["repeats"] += last_point.get(start) == point
        last_point[start] = point

    def counted_path(overlay, start, point, **kwargs):
        if kwargs.get("memo", True):
            count_route(start, point)
        path = greedy_path(overlay, start, point, **kwargs)
        tally["hops"] += len(path) - 1
        return path

    def counted_paths(overlay, starts, points, **kwargs):
        if kwargs.get("memo", True):
            for start, point in zip(starts, points):
                count_route(int(start), point)
        paths = greedy_paths(overlay, starts, points, **kwargs)
        tally["hops"] += sum(len(path) - 1 for path in paths if path is not None)
        return paths

    monkeypatch.setattr(inscan, "greedy_path", counted_path)
    monkeypatch.setattr(inscan, "greedy_paths", counted_paths)
    return tally


def test_route_memo_smoke(monkeypatch):
    """The last-route memo must be live in a real cell, and must survive
    the pointer-table refreshes that land on recorded routes.  It belongs
    to the state cycle: queries neither consult nor record it.  Over six
    state cycles of a static 300-node HID-CAN run idle nodes re-report
    the same point, while the staggered hourly refresh rebuilds the block
    of every other node: replaying hop by hop serves 97 % of the routes
    that repeat their start's previous point (seeds 1-4), dropping a
    route for one rebuilt block serves 70 %.  Every state route is
    tallied exactly once, as a hit or as a miss, and no query route is.
    A refactor that bypasses the memo, or brings all-or-nothing back,
    fails here, not in a benchmark."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    tally = _count_routing(monkeypatch)
    cycle = ExperimentConfig().pidcan.state_period
    sim = SOCSimulation(ExperimentConfig(
        n_nodes=300, duration=6 * cycle, seed=1, protocol="hid-can", demand_ratio=0.5,
    ))
    sim.run()
    (pool,) = sim.protocol.overlay._route_pools.values()
    assert pool.tables is sim.protocol.tables
    # one state route per node and cycle
    assert pool.route_hits + pool.route_misses == tally["routes"] == 6 * 300
    assert tally["repeats"] > 1000
    assert pool.route_hits >= 0.85 * tally["repeats"]
    assert 0 < pool.route_repairs <= pool.route_hits
    assert len(pool.routes) <= len(sim.protocol.overlay)


def test_narrow_front_smoke(routing_spy):
    """The width rule of ``greedy_paths`` must hold in both directions:
    a batch of at most ``_NARROW_FRONT`` routes takes the scalar start
    distance and then one ``pool.hop`` per greedy hop — no kernel
    start-distance pass and no lockstep round, which costs ~45 numpy
    calls whatever it carries — while a wide batch
    makes most of its hops in rounds.  A refactor that sends the arrival
    bursts of ``mega_coalesced`` (three queries on average) through
    rounds again, or state rounds through the scalar hop, fails here,
    not in a benchmark."""
    import numpy as np

    from repro.can import routing
    from repro.can.inscan import build_index_table, inscan_paths
    from tests.conftest import make_overlay

    spy = routing_spy
    overlay = make_overlay(300, 5, seed=1)
    rng = np.random.default_rng(2)
    tables = {n: build_index_table(overlay, n, rng) for n in range(300)}
    pool = routing._pool_for(overlay, tables)
    for width in (1, routing._NARROW_FRONT, 4 * routing._NARROW_FRONT):
        starts = rng.choice(300, size=width, replace=False).tolist()
        pool.routes.clear()
        spy.kernel, spy.hops[:] = 0, []
        inscan_paths(overlay, tables, starts, rng.random((width, 5)))
        greedy_hops = sum(pool.routes[s][2] - 1 for s in starts)
        assert greedy_hops > width
        if width <= routing._NARROW_FRONT:
            assert (spy.kernel, len(spy.hops)) == (greedy_hops, greedy_hops)
        else:
            assert len(spy.hops) < greedy_hops / 2
            assert spy.kernel - 1 - len(spy.hops) < greedy_hops / 2  # rounds


def test_route_pool_survives_churn_smoke(monkeypatch):
    """Candidate blocks must outlive joins and leaves that do not touch
    their node: a 300-node HID-CAN cell under 50 % churn builds a block
    for fewer than half of its routed hops (a third, measured; two
    thirds when every overlay epoch empties the pool).  A refactor that
    brings the epoch reset back fails here, not only in the bench — and
    the surviving pool must pass the overlay's own audit at the end."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    tally = _count_routing(monkeypatch)
    sim = SOCSimulation(ExperimentConfig(
        n_nodes=300, duration=1000.0, seed=1, protocol="hid-can",
        demand_ratio=0.5, churn_degree=0.5,
    ))
    sim.run()
    overlay = sim.protocol.overlay
    (pool,) = overlay._route_pools.values()
    assert pool.tables is sim.protocol.tables
    assert tally["hops"] > 2000 and 0 < pool.fills < tally["hops"] / 2
    # One block per member however many were rebuilt, none a departed node's.
    assert pool.fills > len(pool.index)
    assert_no_dead_storage(pool, overlay)
    overlay.check_invariants()


def test_oracle_budget_and_allocator_gate():
    """ROADMAP item 5: ``tests/oracles.py`` is capped at its line count,
    so a PR that leaves the path it replaced behind as an oracle has to
    retire another, and ``src/repro`` defines no oracle — no
    ``Reference*`` class, ``reference_*`` function or
    ``assert_*_equivalent`` helper.  An oracle is swapped in at its
    module, so no production constructor carries a test-only substrate
    parameter.  And the routing pool stays an index of arrays — the
    fields of the offset-recycling arena it used to be may not return."""
    import inspect

    from repro.baselines.can_base import CANStateBaseline
    from repro.baselines.inscan_rq import InscanRQProtocol
    from repro.baselines.khdn import KHDNProtocol
    from repro.baselines.randomwalk import RandomWalkProtocol
    from repro.can.routing import _RouteBlockPool
    from repro.core.protocol import (
        DutyStateProtocol,
        PIDCANProtocol,
        make_protocol,
    )
    from repro.experiments.runner import SOCSimulation
    from repro.testing import ProtocolSandbox

    lines = len((REPO_ROOT / "tests/oracles.py").read_text().splitlines())
    assert lines <= 1323, "a new oracle displaces an old one"
    src = REPO_ROOT / "src"
    in_src = [
        f"{path.relative_to(src)}:{node.lineno} {node.name}"
        for path in sorted((src / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.startswith("Reference")
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name.startswith("reference_")
             or node.name.startswith("assert_") and node.name.endswith("_equivalent"))
    ]
    assert not in_src, f"oracles belong in tests/oracles.py: {in_src}"
    assert list(inspect.signature(SOCSimulation).parameters) == ["config"]
    for built in (
        make_protocol, DutyStateProtocol, PIDCANProtocol, CANStateBaseline,
        KHDNProtocol, RandomWalkProtocol, InscanRQProtocol, ProtocolSandbox,
    ):
        params = inspect.signature(built).parameters
        assert not [p for p in params if p.endswith("_cls")], built
    assert not {"ids", "n", "waste", "generation"} & set(_RouteBlockPool.__slots__)
    assert len(_RouteBlockPool.__slots__) == 9


def test_scalar_index_draws_go_through_index_draw():
    """Every scalar index draw in ``src/repro`` is
    :func:`repro.sim.rng.index_draw` (same values, a third of the cost),
    and every pick without replacement is
    :func:`repro.sim.rng.distinct_draw`: no ``.integers`` call or alias
    and no ``.choice(..., replace=False)`` outside ``repro/sim/rng.py``,
    which defines the draws.  The oracles in ``tests/oracles.py`` keep
    numpy's own calls — that is what makes the lockstep suites a
    cross-check of the primitives.  Array draws (``size=``) may stay, but
    raw words — the bit generator, or ``integers`` with a ``dtype`` — are
    drawn in ``repro/sim/rng.py`` only, where the bulk scope accounts for
    every one."""
    exempt = {"repro/sim/rng.py"}
    src = REPO_ROOT / "src"
    offenders = []
    for path in sorted((src / "repro").rglob("*.py")):
        name = path.relative_to(src).as_posix()
        if name in exempt:
            continue
        tree = ast.parse(path.read_text(), filename=name)
        array_draws = {
            id(node.func) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(k.arg == "size" for k in node.keywords)
        }
        offenders += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "integers"
            and id(node) not in array_draws
        ]
        offenders += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bit_generator"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "integers" and any(k.arg == "dtype" for k in node.keywords)
        ]
        offenders += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "choice"
            and any(k.arg == "replace" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in node.keywords)
        ]
    assert not offenders, f"numpy draws left outside repro.sim.rng: {offenders}"


# ----------------------------------------------------------------------
# reachability audit (tools/reach.py; docs/architecture.md "Reachability")
# ----------------------------------------------------------------------
def test_reach_allowlist_names_live_functions_with_known_reasons():
    """Every allowlisted function still exists under ``src/repro`` (found
    by AST, as the probe finds them), every branch entry's anchor names
    exactly one statement of its function, and every entry says why it
    stays with one of the fixed reasons.  A ``race`` names the tier-1 test
    that drives it, and that test exists."""
    from tools import reach

    defined = reach.defined_functions()
    by_name: dict[tuple[str, str], list] = {}
    for (module, qualname, _), function in defined.items():
        by_name.setdefault((module, qualname), []).append(function)
    entries = reach.load_allowlist()
    assert entries and any(e.anchor is not None for e in entries)
    gone = [f"{e.module}:{e.qualname}" for e in entries if (e.module, e.qualname) not in by_name]
    assert not gone, f"allowlisted functions no longer defined: {gone}"
    unanchored = [
        f"{e.module}:{e.qualname} | {e.anchor}" for e in entries if e.anchor is not None
        and sum(len(reach.anchored(f, e.anchor)) for f in by_name[e.module, e.qualname]) != 1
    ]
    assert not unanchored, f"anchors naming no statement, or several: {unanchored}"
    unknown = [f"{e.module}:{e.qualname} {e.reason}" for e in entries if e.reason not in reach.REASONS]
    assert not unknown, f"reasons outside {sorted(reach.REASONS)}: {unknown}"
    undriven = []
    for e in entries:
        if e.reason == "race":
            path, _, test = e.note.partition("::")
            file = REPO_ROOT / path
            if not (path.startswith("tests/") and file.is_file() and test in {
                node.name for node in ast.walk(ast.parse(file.read_text()))
                if isinstance(node, ast.FunctionDef)
            }):
                undriven.append(f"{e.module}:{e.qualname} | {e.anchor}  # {e.note}")
    assert not undriven, f"race entries naming no existing test: {undriven}"


def test_reach_observers_are_called_under_tests():
    """An ``observer`` stays in ``src/`` only because a test reads model
    state through it: each one's name is called somewhere under
    ``tests/``."""
    from tools import reach

    called = set()
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    observers = [f"{e.module}:{e.qualname}" for e in reach.load_allowlist() if e.reason == "observer"]
    assert observers
    uncalled = [name for name in observers if name.rsplit(".", 1)[-1] not in called]
    assert not uncalled, f"observers no test calls: {uncalled}"


def test_reach_allowlist_has_no_duplicates():
    from tools import reach

    names = [f"{e.module}:{e.qualname} | {e.anchor}" for e in reach.load_allowlist()]
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)


def test_reach_hook_records_a_tiny_cell():
    """The probe's hook sees what a run enters and runs — and only that:
    a tiny cell records ``SOCSimulation.run`` and the statement that runs
    the simulator in it, but not the allowlisted ``HostEngine.trim``,
    which no run calls.  Whatever trace functions were installed before
    (pytest's, hypothesis's) are back in place afterwards."""
    import threading

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation
    from tools import reach

    def sentinel(frame, event, arg):
        return None

    sim = SOCSimulation(ExperimentConfig(n_nodes=24, duration=600.0, seed=1))
    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(sentinel)
    threading.settrace(sentinel)
    try:
        with reach.recording() as recorded:
            sim.run()
        assert sys.gettrace() is sentinel and threading.gettrace() is sentinel
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    names = {(m, q) for m, q, _ in reach.entered_keys(recorded.codes)}
    assert ("repro.experiments.runner", "SOCSimulation.run") in names
    assert ("repro.cloud.engine", "HostEngine.trim") not in names
    assert ("repro.cloud.engine", "HostEngine.trim") in {
        (e.module, e.qualname) for e in reach.load_allowlist() if e.anchor is None
    }
    (run,) = [f for (m, q, _), f in reach.defined_functions().items()
              if (m, q) == ("repro.experiments.runner", "SOCSimulation.run")]
    (statement,) = reach.anchored(run, "self.sim.run(until=self.config.duration)")
    assert not recorded.lines[str(reach.SRC / run.path)].isdisjoint(statement.header)
