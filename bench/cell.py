"""Measure one workload in this process: warm-up, timed repeats, an
optional traced repeat, the correctness gate.

Strictly from outside the simulator: build an ``ExperimentConfig``, time
``SOCSimulation(config)`` (the set-up region) and ``sim.run(until=...)``
(the timed region, in :data:`SLICES` equal slices of simulated time with
the calibration kernel between them), read public result fields.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SimulationResult, SOCSimulation
from repro.experiments.scenarios import hotrange_configs, mega_configs

from bench.calibrate import CALIB_REF_S, Calibrator, normalise
from bench.trace import REGION_LAYER, Tracer

__all__ = [
    "WORKLOADS", "Workload", "SLICES", "MIN_REPEATS", "SETUP_SAMPLES", "END_TO_END",
    "repeats_for", "measure",
]

#: Equal simulated-time slices per repeat; the kernel runs between them so
#: drift inside a 5-8 s repeat is followed, not averaged.
SLICES = 6
#: Fewest timed repeats a median is taken over.
MIN_REPEATS = 3
#: What one timed repeat is budgeted at, in seconds of ``--seconds``.
REPEAT_BUDGET_S = 5.0
#: Set-ups ``setup_s`` is the median of.  The timed repeats give one each;
#: the rest are constructed, timed and dropped after the last repeat
#: (set-up is 0.6 s on the 2000-node cells and its median of 3 spread 16 %
#: between processes).
SETUP_SAMPLES = 5


def repeats_for(seconds: float) -> int:
    """Timed repeats of a run that measures for ``seconds``.  Fixed by the
    argument, not by the clock, so the same command measures the same
    amount of work on a fast and on a busy machine."""
    return max(MIN_REPEATS, int(seconds // REPEAT_BUDGET_S))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], ExperimentConfig]
    #: No churn: every chain completes, so a failsafe timeout is a bug.
    static: bool = True


#: Why each was chosen is recorded once, in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_table3",
            lambda seed: ExperimentConfig.at_scale(
                "paper", protocol="hid-can", demand_ratio=0.5, duration=2000.0, seed=seed
            ),
        ),
        Workload(
            "mega_coalesced",
            lambda seed: mega_configs(
                "small", seed=seed, n_nodes=8000, duration=600.0
            )["hid-can"],
        ),
        Workload(
            "hotrange_cached",
            lambda seed: hotrange_configs(
                "paper", seed=seed, duration=1000.0
            )["lru+repl"],
        ),
        Workload(
            "churn_dynamic",
            lambda seed: ExperimentConfig.at_scale(
                "paper", protocol="hid-can", demand_ratio=0.5, churn_degree=0.25,
                duration=1600.0, seed=seed,
            ),
            static=False,
        ),
    )
}

#: name -> (unit, kind) of every end-to-end metric; direction and bound
#: live in BENCHMARK.json, the glossary in bench/README.md.  ``host``
#: metrics are measured (median over the timed repeats), ``model``
#: metrics are simulated quantities that repeat exactly for one seed.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "host"),
    "sim_s_per_host_s": ("sim_s/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "messages_per_query": ("count", "model"),
    "per_node_msg_cost": ("count", "model"),
    "query_delay_mean_s": ("s", "model"),
    "placed_ratio": ("ratio", "model"),
    "events_per_query": ("count", "model"),
}


#: Unit of the per-layer times: normalised seconds (see calibrate.py),
#: which are not wall seconds and only comparable at one ``CALIB_REF_S``.
NORM_S = "norm_s"


def _finite(value: float) -> float:
    """NaN (a ratio with an empty base) reads as 0 in a metric."""
    return float(value) if math.isfinite(value) else 0.0


# ----------------------------------------------------------------------
# one repeat
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    """What one construct-and-run of the cell produced."""

    setup_s: float               # normalised seconds
    slice_s: list[float]         # normalised seconds per slice
    setup_cpu_s: float           # raw
    run_cpu_s: float             # raw
    wall_s: float                # raw, set-up + run + calibration
    calib_s: list[float]
    #: (events_processed, generated, traffic total) at each slice end —
    #: the determinism fingerprint, comparable between repeats slice by
    #: slice.
    checkpoints: list[tuple[int, int, int]]
    heap_events: int
    soc: Optional[SOCSimulation] = None
    result: Optional[SimulationResult] = None

    @property
    def run_s(self) -> float:
        return sum(self.slice_s)


def time_setup(
    config: ExperimentConfig, calibrator: Calibrator, calib_before: float,
    region: Callable[[str], Any] = lambda kind: nullcontext(),
) -> tuple[SOCSimulation, float, float, float]:
    """Construct the cell between two kernel runs: ``(simulation, raw CPU
    seconds, normalised seconds, kernel time after)``."""
    started = time.process_time()
    with region("setup"):
        soc = SOCSimulation(config)
    cpu = time.process_time() - started
    calib_after = calibrator.run()
    return soc, cpu, normalise(cpu, calib_before, calib_after), calib_after


def run_repeat(
    config: ExperimentConfig,
    calibrator: Calibrator,
    tracer: Optional[Tracer] = None,
) -> Repeat:
    region = tracer.region if tracer is not None else (lambda kind: nullcontext())
    wall_started = time.perf_counter()
    calib = [calibrator.run()]
    soc, setup_cpu, setup_s, after = time_setup(config, calibrator, calib[0], region)
    calib.append(after)

    slice_s: list[float] = []
    checkpoints: list[tuple[int, int, int]] = []
    run_cpu = 0.0
    serial_before = soc.sim.event_serial
    for k in range(1, SLICES + 1):
        until = config.duration if k == SLICES else config.duration * k / SLICES
        started = time.process_time()
        with region("run"):
            soc.sim.run(until=until)
        cpu = time.process_time() - started
        calib.append(calibrator.run())
        run_cpu += cpu
        slice_s.append(normalise(cpu, calib[-2], calib[-1]))
        checkpoints.append(
            (soc.sim.events_processed, soc.ratios.generated, soc.traffic.total())
        )
    return Repeat(
        setup_s=setup_s, slice_s=slice_s, setup_cpu_s=setup_cpu, run_cpu_s=run_cpu,
        wall_s=time.perf_counter() - wall_started, calib_s=calib,
        checkpoints=checkpoints, heap_events=soc.sim.event_serial - serial_before,
        soc=soc,
        # The clock already stands at the horizon: this only assembles
        # the SimulationResult.
        result=soc.run(),
    )


# ----------------------------------------------------------------------
# model metrics (simulated units, deterministic)
# ----------------------------------------------------------------------
def model_metrics(repeat: Repeat) -> tuple[dict[str, float], dict[str, Any]]:
    """``(end-to-end model metrics, info)`` of a finished repeat."""
    soc, result = repeat.soc, repeat.result
    assert soc is not None and result is not None
    latency = result.query_latency
    resolved = latency.queries
    timeouts = result.query_timeouts
    answered = resolved - timeouts
    lifecycle = soc.protocol.lifecycle
    if timeouts and answered:
        # A timed-out query waits exactly the failsafe; taking those out
        # of the sum leaves the delay of the queries that got an answer.
        mean_answered = (latency.mean_s * resolved - timeouts * lifecycle.timeout) / answered
    else:
        mean_answered = latency.mean_s
    metrics = {
        "messages_per_query": result.messages_per_query,
        "per_node_msg_cost": result.per_node_msg_cost,
        "query_delay_mean_s": mean_answered,
        "placed_ratio": result.placed / result.generated,
        "events_per_query": soc.sim.events_processed / resolved,
    }
    info = {
        "generated": result.generated,
        "resolved": resolved,
        "in_flight": lifecycle.active_queries(),
        "query_timeouts": timeouts,
        "query_failed_ratio": timeouts / resolved,
        "query_delay_p50_s": latency.p50_s,
        "query_delay_p95_s": latency.p95_s,
        "query_delay_samples": resolved,
        "finished": result.finished,
        "failed": result.failed,
        "placed": result.placed,
        "t_ratio": result.t_ratio,
        "f_ratio": result.f_ratio,
        "fairness": _finite(result.fairness),
        "events_processed": soc.sim.events_processed,
        "heap_events": repeat.heap_events,
        "peak_population": result.peak_population,
        "traffic_total": result.traffic_total,
        "traffic_by_kind": result.traffic_by_kind,
        "cache_hit_ratio": _finite(result.cache_hit_ratio),
        "cache_regret": _finite(result.cache_regret),
    }
    return metrics, info


def check_result(workload: Workload, info: dict[str, Any]) -> list[str]:
    """Conservation laws of one finished repeat; returns the violations."""
    failures = []
    if info["traffic_total"] != sum(info["traffic_by_kind"].values()):
        failures.append("traffic_total != sum(traffic_by_kind)")
    if info["finished"] + info["failed"] > info["generated"]:
        failures.append("finished + failed > generated")
    if info["placed"] > info["generated"]:
        failures.append("placed > generated")
    lost = info["generated"] - info["resolved"] - info["in_flight"]
    if lost != 0:
        failures.append(
            f"{lost} queries neither resolved nor in flight (generated "
            f"{info['generated']}, resolved {info['resolved']}, in flight {info['in_flight']})"
        )
    if workload.static and info["query_timeouts"]:
        failures.append(f"{info['query_timeouts']} failsafe timeouts without churn")
    return failures


def check_overlay(workload: Workload, repeat: Repeat) -> list[str]:
    """The CAN overlay's invariants on the state a finished repeat left
    behind.  Where churn rewired the overlay the full validation runs
    (brute-force adjacency, O(n^2): ~3 s at 2000 nodes); a static overlay
    is as bootstrap left it, and 8000 nodes would cost 45 s, so there the
    linear part runs: zones tile the unit cube, owner index consistent."""
    assert repeat.soc is not None
    overlay = repeat.soc.protocol.overlay
    try:
        if workload.static:
            overlay.tree.check_invariants()
        else:
            overlay.check_invariants()
    except AssertionError as exc:
        return [f"overlay invariants: {exc}"]
    return []


# ----------------------------------------------------------------------
# per-layer metrics of the traced repeat
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer, traced: Repeat, info: dict[str, Any], config: ExperimentConfig
) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric but
    ``trace.overhead_ratio``, whose base is only known after the run."""
    totals = tracer.aggregate([traced.setup_s, *traced.slice_s])
    setup, run = totals["setup"], totals["run"]
    counters = tracer.counters
    result = traced.result
    assert result is not None and traced.soc is not None

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in dict.fromkeys(tracer.layers):
        if layer != REGION_LAYER:
            out[f"{layer}.self_s"] = (run.self_s.get(layer, 0.0), NORM_S)

    def calls(layer: str) -> int:
        return run.calls.get(layer, 0)

    out["sim.engine.events_processed"] = (info["events_processed"], "count")
    out["sim.engine.heap_events"] = (info["heap_events"], "count")
    out["sim.engine.heap_events_per_sim_s"] = (
        info["heap_events"] / config.duration, "1/s")

    delivery = traced.soc.delivery
    deliveries = delivery.deliveries if delivery is not None else 0
    flushes = delivery.flushes if delivery is not None else 0
    out["sim.delivery.deliveries"] = (deliveries, "count")
    out["sim.delivery.deliveries_per_heap_event"] = (ratio(deliveries, flushes), "count")

    out["sim.network.calls"] = (calls("sim.network"), "count")
    out["sim.network.hops_priced"] = (counters["sim.network.hops_priced"], "count")

    out["can.routing.calls"] = (calls("can.routing"), "count")
    out["can.routing.paths"] = (counters["can.routing.paths"], "count")
    out["can.routing.paths_per_call"] = (
        ratio(counters["can.routing.paths"], calls("can.routing")), "count")
    out["can.routing.hops_per_path"] = (
        ratio(counters["can.routing.hops"], counters["can.routing.paths"]), "count")

    overlay_boot = setup.inclusive("can.overlay:CANOverlay.bootstrap")
    out["can.overlay.bootstrap_s"] = (overlay_boot, NORM_S)
    out["can.overlay.joins"] = (run.count("can.overlay:CANOverlay.join"), "count")
    out["can.overlay.leaves"] = (run.count("can.overlay:CANOverlay.leave"), "count")

    out["core.diffusion.calls"] = (calls("core.diffusion"), "count")
    out["core.diffusion.msgs_per_call"] = (
        ratio(result.traffic_by_kind.get("index-diffusion", 0), calls("core.diffusion")),
        "count")
    out["core.diffusion.replications"] = (result.replications, "count")

    out["core.state.calls"] = (calls("core.state"), "count")
    out["core.state.qualified_nonempty_ratio"] = (
        ratio(counters["core.state.qualified_nonempty"], counters["core.state.qualified"]),
        "ratio")

    out["core.cache.lookups"] = (result.cache_lookups, "count")
    out["core.cache.hit_ratio"] = (info["cache_hit_ratio"], "ratio")
    out["core.cache.regret"] = (info["cache_regret"], "ratio")

    out["core.query.submitted"] = (counters["core.query.submitted"], "count")
    out["core.query.queries_per_call"] = (
        ratio(counters["core.query.submitted"], calls("core.query")), "count")

    out["core.lifecycle.timeouts"] = (result.query_timeouts, "count")

    # The protocol's bootstrap with the overlay's (nested inside it) taken
    # out, so the two add up to the whole bootstrap share of set-up.
    out["core.protocol.bootstrap_s"] = (
        setup.inclusive("core.protocol:PIDCANProtocol.bootstrap") - overlay_boot, NORM_S)

    out["core.context.messages"] = (counters["core.context.messages"], "count")
    out["core.context.messages_per_call"] = (
        ratio(counters["core.context.messages"], calls("core.context")), "count")

    out["cloud.engine.calls"] = (calls("cloud.engine"), "count")
    out["cloud.engine.placements"] = (run.count("cloud.engine:HostEngine.place"), "count")
    out["cloud.engine.completions"] = (
        run.count("cloud.engine:HostEngine.complete"), "count")

    out["cloud.workload.tasks_generated"] = (result.generated, "count")
    out["metrics.collector.samples"] = (
        run.count("metrics.collector:MetricsCollector.sample"), "count")

    unattributed = run.self_s.get("sim.engine", 0.0) + run.self_s.get(REGION_LAYER, 0.0)
    out["trace.attributed_ratio"] = (1.0 - ratio(unattributed, traced.run_s), "ratio")
    return out


# ----------------------------------------------------------------------
# the whole measurement
# ----------------------------------------------------------------------
def measure(
    workload: Workload,
    seed: int,
    *,
    repeats: int,
    trace: bool = False,
    calibrator: Optional[Calibrator] = None,
    shrink: bool = False,
) -> dict[str, Any]:
    """Run ``workload`` and return its result document.

    ``repeats`` timed repeats, then set-up alone until ``setup_s`` has
    :data:`SETUP_SAMPLES` samples.  With ``trace`` the traced repeat runs
    between the first two untraced ones (their mean is the overhead base,
    so drift during the run cancels), no extra set-up is taken, and the
    document carries ``per_layer`` and the tracer (``"tracer"``) as well.
    ``shrink`` is the smoke-test size (120 nodes, 300 simulated seconds).
    """
    if trace and repeats < 2:
        raise ValueError("a traced run needs at least 2 untraced repeats")
    config = workload.build(seed)
    small = replace(config, n_nodes=120, duration=300.0)
    if shrink:
        config = small
    calibrator = calibrator or Calibrator()

    # Warm-up: the same cell at smoke size, start to finish.  Imports,
    # numpy's lazy set-up and the interpreter's specialisation of every
    # code path the cell takes are paid here, in half a second.
    run_repeat(small, calibrator)
    gc.collect()

    failures: list[str] = []
    models: list[dict[str, float]] = []
    infos: list[dict[str, Any]] = []
    everything: list[Repeat] = []

    def finish(repeat: Repeat, last: bool) -> None:
        """Read a repeat's results, then drop its simulation before the
        next one is built, so peak RSS is one cell's, not two."""
        model, info = model_metrics(repeat)
        failures.extend(check_result(workload, info))
        if last:
            failures.extend(check_overlay(workload, repeat))
        models.append(model)
        infos.append(info)
        everything.append(repeat)
        repeat.soc = repeat.result = None
        gc.collect()

    timed: list[Repeat] = []
    tracer: Optional[Tracer] = None
    for k in range(repeats):
        repeat = run_repeat(config, calibrator)
        timed.append(repeat)
        finish(repeat, last=k == repeats - 1)
        if trace and k == 0:
            tracer = Tracer()
            with tracer:
                traced = run_repeat(config, calibrator, tracer=tracer)
            layers = layer_metrics(tracer, traced, model_metrics(traced)[1], config)
            finish(traced, last=False)

    setup_s = [r.setup_s for r in timed]
    setup_cpu_s = [r.setup_cpu_s for r in timed]
    for _ in range(0 if trace else SETUP_SAMPLES - repeats):
        # The simulation is dropped at once: one cell alive at a time.
        _, cpu, normalised, _ = time_setup(config, calibrator, calibrator.run())
        setup_cpu_s.append(cpu)
        setup_s.append(normalised)
        gc.collect()

    doc: dict[str, Any] = {"workload": workload.name, "seed": seed, "repeats": repeats}
    if tracer is not None:
        layers["trace.overhead_ratio"] = (
            traced.run_s / statistics.fmean(r.run_s for r in timed), "ratio")
        doc["per_layer"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()
        }
        doc["tracer"] = tracer

    # Determinism: same seed, same cell -> every repeat (the traced one
    # included) must reproduce every other one exactly.
    if any(m != models[0] for m in models[1:]):
        failures.append("model metrics differ between repeats of one seed")
    if any(i["traffic_by_kind"] != infos[0]["traffic_by_kind"] for i in infos[1:]):
        failures.append("traffic_by_kind differs between repeats of one seed")
    if any(r.checkpoints != everything[0].checkpoints for r in everything[1:]):
        failures.append("slice checkpoints differ between repeats of one seed")

    samples = {
        "setup_s": setup_s,
        "sim_s_per_host_s": [config.duration / r.run_s for r in timed],
    }
    values = {name: statistics.median(vals) for name, vals in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values.update(models[0])
    doc["end_to_end"] = {
        name: {"value": values[name], "unit": unit, "kind": kind,
               "samples": samples.get(name)}
        for name, (unit, kind) in END_TO_END.items()
    }
    info = infos[0]
    info.update(
        raw_setup_cpu_s=setup_cpu_s,
        raw_run_cpu_s=[r.run_cpu_s for r in timed],
        raw_repeat_wall_s=[r.wall_s for r in timed],
        calib_mean_s=statistics.fmean(c for r in timed for c in r.calib_s),
        calib_ref_s=CALIB_REF_S,
    )
    # Operations: a resolved query was attempted, a failsafe timeout is a
    # failed one; queries in flight at the horizon are censored from both.
    doc.update(
        info=info,
        attempted=info["resolved"] * repeats,
        failed=info["query_timeouts"] * repeats,
        failures=failures,
        correct=not failures,
    )
    return doc
