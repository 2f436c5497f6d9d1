#!/usr/bin/env python
"""Reachability probe: the ``src/repro`` functions the product surface
never enters, and the statements of the entered ones it never runs.

The product surface is the paper's evaluation as a user drives it:

- every scenario of ``python -m repro`` at ``--scale tiny`` (``fig5``
  also with ``--chart``, ``burst`` also with ``--burst-factor``), through
  ``main()`` reading ``sys.argv`` as ``python -m repro`` does;
- the four ``bench/`` workloads, one full-length repeat each through
  ``bench.cell.run_repeat`` (the calibration kernel is stubbed out);
- ``campaign run`` (named, protocol-filtered, with flat, bare-string and
  nested overrides), its resume from the written spec, ``status``,
  ``report --chart`` on that shrunk grid and on the committed tiny
  campaign, plus one cell through ``campaign._run_cell`` in this process,
  because the pool's workers are not traced;
- one tiny cell for each non-default value of every enumerated config
  knob (:data:`KNOB_SWEEP`);
- every ``examples/*.py``, run as ``__main__`` with its default arguments.

One hook, installed with ``sys.settrace`` / ``threading.settrace`` before
``repro`` is imported (so import-time probes count), sees every Python
call: it records each ``src/repro`` code object entered and gives only
those frames a line tracer, which records the lines that run.  Every
function or method defined under ``src/repro`` — found by AST; lambdas
and comprehensions are not counted — that the surface never entered is
printed, unless :data:`ALLOWLIST` names it with one of the
:data:`REASONS`.  Inside the entered functions the audit is by AST
statement: a statement ran if a line of its header (a compound
statement's ``if`` / ``for`` / ``def`` lines, every line of a simple one)
ran.  Each branch never taken — a maximal run of unrun statements in one
suite — is printed too, unless it ends in a ``raise`` (a validator's
error exit) or the allowlist anchors it.  Every module under
``src/repro`` is audited; the seed's scalar oracles live test-side, in
``tests/oracles.py``.

Exit status 0 when every unentered function and every unrun branch is
allowlisted and every allowlist entry still names one, 1 otherwise.

Run:  python tools/reach.py        (about 2.5 minutes on 2 cores)
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
from typing import Iterator, NamedTuple, Optional

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")

#: Why an unentered function may stay in ``src/``.
REASONS = {
    "trace-target": "bench/trace.py TARGETS wraps it",
    "example": "an example uses it",
    "safety": "an invariant audit, a capacity/eviction path, input validation "
              "or the handling of an error a call can raise",
    "abstract": "an abstract base class requires it",
    "observer": "a test reads model state through it",
    "platform": "the only path on a supported platform (an import-time probe picks it)",
    "race": "a message or timer that can outlive what it reads; the note names the test that drives it",
}

#: ``(ExperimentConfig overrides, PIDCANParams overrides)`` of one tiny
#: cell per non-default value of an enumerated knob, plus the lever
#: combinations no scenario runs: a baseline under quantized arrivals,
#: churn under mega's cohort ticks, churn under hotrange's cache, the
#: cache under quantized arrivals (batched cache-on routing), the virtual
#: dimension under cohort ticks (batched state rounds) and checkpoints of
#: hosts that outlive their overlay membership (churn that keeps tasks).  The
#: scenarios cover the protocols, the cache policies and the levers alone.
#: PID-CAN's variant flags (``diffusion_method``, ``sos``, ``vd``) follow
#: the protocol name, so a variant is swept by naming it.
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
    ({"churn_degree": 0.25, "checkpoint_enabled": True}, {}),
    ({"protocol": "hid-can+vd"}, {"phase_buckets": 16}),
    ({}, {"check_duty_cache": False}),
    ({"protocol": "newscast", "arrival_quantum": 1.0}, {}),
    ({"churn_degree": 0.25, "arrival_quantum": 1.0, "delivery_quantum": 0.1},
     {"phase_buckets": 16}),
    ({"churn_degree": 0.25, "zipf_s": 1.0, "burst_factor": 8.0, "cache_policy": "lru",
      "cache_replication": True}, {}),
    ({"zipf_s": 1.0, "burst_factor": 8.0, "cache_policy": "lru", "arrival_quantum": 5.0}, {}),
)


# ----------------------------------------------------------------------
# what exists: every function under src/repro and its statements, by AST
# ----------------------------------------------------------------------
class Statement(NamedTuple):
    """One statement of a function body: its first line (a decorated
    ``def``'s first decorator), the lines whose line event means it ran
    (a compound statement's header, a simple statement's every line),
    its stripped first line, and the statements of its nested suites."""

    line: int
    header: range
    text: str
    raises: bool  # a ``raise``, or a statement each of whose suites ends in one
    suites: tuple[tuple["Statement", ...], ...]


class Function(NamedTuple):
    path: str
    body: tuple[Statement, ...]


def _suites(node: ast.stmt) -> list[list[ast.stmt]]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # a nested def is a function of its own; a class body is not audited
    suites = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    suites += [handler.body for handler in getattr(node, "handlers", [])]
    suites += [case.body for case in getattr(node, "cases", [])]
    return [suite for suite in suites if suite]


def _statements(suite: list[ast.stmt], lines: list[str]) -> tuple[Statement, ...]:
    """The audited statements of ``suite``: ``global`` / ``nonlocal``
    declarations compile to no line event and are left out (so is a
    function's docstring, which :func:`defined_functions` drops)."""
    out = []
    for node in suite:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
        suites = tuple(filter(None, (_statements(s, lines) for s in _suites(node))))
        raises = isinstance(node, ast.Raise) or bool(suites) and all(
            suite[-1].raises for suite in suites)
        out.append(Statement(
            first, range(first, last + 1), lines[first - 1].strip(), raises, suites))
    return tuple(out)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def defined_functions(src: Path = SRC) -> dict[tuple[str, str, int], Function]:
    """``{(module, qualname, first line): Function}`` of every ``def``
    under ``src/repro``.  The first line is the first decorator's, as in
    ``co_firstlineno``; qualnames follow ``co_qualname``."""
    found: dict[tuple[str, str, int], Function] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")
        source = path.read_text()
        lines = source.splitlines()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    body = child.body[1:] if _is_docstring(child.body[0]) else child.body
                    found[(module, qualname, first)] = Function(
                        rel.as_posix(), _statements(body, lines))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(source, filename=str(rel)), "")
    return found


def all_statements(body: tuple[Statement, ...]) -> Iterator[Statement]:
    for statement in body:
        yield statement
        for suite in statement.suites:
            yield from all_statements(suite)


def unrun_blocks(
    body: tuple[Statement, ...], ran: set[int], owner: Optional[Statement] = None,
) -> Iterator[tuple[tuple[Statement, ...], tuple[Statement, ...]]]:
    """``(context, block)`` for each maximal run of consecutive unrun
    statements of one suite whose owner ran — the branches ``body`` never
    took — given the set of its file's lines that ran.  ``context`` holds
    the statement whose suite holds the block and the statement just
    before it, where there is one; the statements nested in an unrun
    block are the block's own."""
    block: list[Statement] = []
    previous = owner
    for statement in body + (None,):
        if statement is not None and ran.isdisjoint(statement.header):
            block.append(statement)
            continue
        if block:
            yield tuple(s for s in (owner, previous) if s is not None), tuple(block)
            block = []
        if statement is not None:
            for suite in statement.suites:
                yield from unrun_blocks(suite, ran, statement)
            previous = statement


class Entry(NamedTuple):
    """An allowlist line: a function, or with an ``anchor`` one statement
    of it, that the surface leaves unrun, the reason it stays, and the
    line's note (a ``race`` names the test that drives it)."""

    module: str
    qualname: str
    reason: str
    anchor: Optional[str]
    note: str


def load_allowlist(path: Path = ALLOWLIST) -> list[Entry]:
    """One :class:`Entry` per non-blank, non-comment line
    ``module:qualname reason [| anchor] [# note]``."""
    entries = []
    for line in path.read_text().splitlines():
        line, _, note = line.partition("#")
        line, bar, anchor = line.partition("|")
        if line.strip():
            name, reason = line.split()
            module, _, qualname = name.partition(":")
            entries.append(Entry(module, qualname, reason, anchor.strip() if bar else None,
                                 note.strip()))
    return entries


def anchored(function: Function, anchor: str) -> list[Statement]:
    """The statements of ``function`` whose stripped first line starts
    with ``anchor``; an allowlist anchor must match exactly one.  It names
    an unrun branch by the branch's first statement, by the statement
    whose suite holds it (the ``try`` of an ``except``, say) or by the
    statement just before it."""
    return [s for s in all_statements(function.body) if s.text.startswith(anchor)]


# ----------------------------------------------------------------------
# what runs: the trace hook
# ----------------------------------------------------------------------
class Recorded(NamedTuple):
    codes: dict  # id -> each src/repro code object entered (ids hash cheaply, code does not)
    lines: dict[str, set[int]]  # file name -> the lines that ran in it


@contextlib.contextmanager
def recording(src: Path = SRC) -> Iterator[Recorded]:
    """Record every ``src/repro`` code object entered and every line run
    in it, in this thread and in threads started meanwhile.  The global
    trace function sees each Python frame's call; only a ``src/repro``
    frame gets the line tracer.  Whatever trace functions were installed
    before are restored afterwards."""
    recorded = Recorded({}, {})
    root = str(src / "repro")
    codes = recorded.codes

    class Tracers(dict):
        def __missing__(self, filename: str):
            tracer = None
            if filename.startswith(root):
                add_line = recorded.lines.setdefault(filename, set()).add

                def tracer(frame, event, arg):
                    add_line(frame.f_lineno)
                    return tracer

            self[filename] = tracer
            return tracer

    tracers = Tracers()

    def hook(frame, event, arg):
        code = frame.f_code
        tracer = tracers[code.co_filename]
        if tracer is not None:
            codes[id(code)] = code
        return tracer

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        yield recorded
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def entered_keys(codes: dict, src: Path = SRC) -> set[tuple[str, str, int]]:
    """The :func:`defined_functions` keys of the ``src/repro`` code
    objects among the values of ``codes``."""
    root = str(src / "repro")
    keys = set()
    for code in codes.values():
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
    """Run ``python -m repro *argv`` in this process, as ``__main__`` does:
    ``main()`` reads ``sys.argv``."""
    from repro.experiments.cli import main

    saved, sys.argv = sys.argv, ["repro", *argv]
    try:
        status = main()
    finally:
        sys.argv = saved
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
        _step("campaign run", _cli, "campaign", "run", "--name", "reach",
              "--scenarios", "fig5", "fig8", "--scales", "tiny", "--seeds", "1", "2",
              "--protocols", "hid-can", "newscast", "--workers", "2",
              "--override", "n_nodes=40", "duration=1200", "selection_policy=best-fit",
              'pidcan={"delta": 4}', "--dir", directory)
        _step("campaign run --spec (resume)", _cli, "campaign", "run", "--spec",
              str(Path(directory) / campaign.SPEC_FILENAME), "--dir", directory)
        _step("campaign status", _cli, "campaign", "status", "--dir", directory)
        _step("campaign report --chart", _cli, "campaign", "report", "--dir", directory,
              "--chart")
        _step("campaign report --chart (committed)", _cli, "campaign", "report", "--dir",
              str(REPO / "artifacts" / "BENCH_campaign_tiny"), "--chart")
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
def audit(recorded: Recorded, src: Path = SRC) -> tuple[list[str], list[str]]:
    """Compare what ran with what exists and with the allowlist: returns
    ``(summary lines, failure lines)``.  A failure is an unentered function
    or an unrun branch that the allowlist does not name, or an allowlist
    entry that names none."""
    defined = defined_functions(src)
    reached = entered_keys(recorded.codes, src) & set(defined)
    entries = load_allowlist()

    total = ran = 0
    #: (module, qualname, first line) of each unrun branch -> (path, block)
    unrun: dict[tuple[str, str, int], tuple[str, tuple[Statement, ...]]] = {}
    context: dict[tuple[str, str, int], set[int]] = {}  # branch -> lines naming it
    for key in reached:
        function = defined[key]
        lines = recorded.lines.get(str(src / function.path), set())
        statements = list(all_statements(function.body))
        total += len(statements)
        ran += sum(not lines.isdisjoint(s.header) for s in statements)
        for around, block in unrun_blocks(function.body, lines):
            if not block[-1].raises:
                branch = key[:2] + (block[0].line,)
                unrun[branch] = (function.path, block)
                context[branch] = {block[0].line} | {s.line for s in around}

    unentered = [key for key in defined if key not in reached]
    allowed = {(e.module, e.qualname) for e in entries if e.anchor is None}
    stale = [f"{m}:{q} is entered" for m, q in sorted(allowed - {k[:2] for k in unentered})]
    covered = set()
    for e in entries:
        if e.anchor is not None:
            hits = [(e.module, e.qualname, s.line) for key in reached
                    if key[:2] == (e.module, e.qualname) for s in anchored(defined[key], e.anchor)]
            named = {branch for branch in unrun if len(hits) == 1
                     and branch[:2] == hits[0][:2] and hits[0][2] in context[branch]}
            if named:
                covered |= named
            else:
                stale.append(f"{e.module}:{e.qualname} | {e.anchor} names no unrun branch")

    summary = [
        f"{len(reached)} of {len(defined)} functions entered; "
        f"{ran} of {total} statements run in them",
        f"{len(unentered)} functions unentered, "
        f"{sum(key[:2] in allowed for key in unentered)} of them allowlisted; "
        f"{len(unrun)} unrun branches besides raise exits, {len(covered)} of them allowlisted",
    ]
    failures = [
        f"UNENTERED  src/{defined[key].path}:{key[2]}  {key[1]}"
        for key in sorted(unentered, key=lambda k: (defined[k].path, k[2]))
        if key[:2] not in allowed
    ]
    for key, (path, block) in sorted(unrun.items(), key=lambda item: (item[1][0], item[0][2])):
        if key not in covered:
            more = f"  (+{len(block) - 1} statements)" if len(block) > 1 else ""
            failures.append(f"UNRUN      src/{path}:{key[2]}  {key[1]} | {block[0].text}{more}")
    failures += [f"STALE      {line}; drop it from {ALLOWLIST.name}" for line in stale]
    return summary, failures


def main() -> int:
    for path in (str(SRC), str(REPO)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        raise SystemExit("repro was imported before the hook: import-time code would be missed")
    started = time.perf_counter()
    with recording() as recorded:
        run_surface()
    elapsed = time.perf_counter() - started
    summary, failures = audit(recorded)
    print(f"surface traced in {elapsed:.0f}s")
    print("\n".join(summary + failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
