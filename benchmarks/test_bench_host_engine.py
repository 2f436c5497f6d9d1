"""Old-vs-new benchmark of the host-execution substrate.

Compares the vectorized SoA :class:`repro.cloud.engine.HostEngine`
against the seed's scalar per-host executor fleet (kept verbatim behind
:class:`tests.oracles.ReferenceHostEngine`) on the three operations that
dominate §IV-A execution at paper scale:

- **availability probes** — every query hop and every state-update cycle
  reads ``a_i``; the engine serves a cached matrix row, the scalar path
  recomputes effective capacity and re-sums the resident expectations;
- **scheduling points** — place/remove with Eq. 1 re-sharing and
  next-completion prediction over the dirty host;
- **checkpoint integration** — ``advance_all`` over the whole population
  versus one Python loop per host per task.

``test_substrate_speedup_at_10k`` pins the acceptance criterion: ≥ 5×
over the scalar path for the availability sweep at 10⁴ hosts.

``test_table3_cell_scalar_vs_vectorized`` runs a full Table III cell
(`table3` config: hid-can, λ=0.5) on both substrates at the scale chosen
by ``REPRO_SCALE`` (`paper` = the 2000-node simulated day), the scalar
fleet swapped in for the runner's ``HostEngine``, and records both CPU
times plus their ratio in the benchmark JSON; end-to-end the win is
bounded by the protocol/routing share of the run, so the assertion is
only that results stay identical (to 1e-9: the scalar fleet sums
utilization host by host) and the vectorized engine is not slower.
"""

import time

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from benchmarks.conftest import calibrated, numpy_calls
from repro.cloud.engine import HostEngine
from repro.cloud.machine import sample_machines
from repro.cloud.tasks import TaskFactory
from repro.experiments import runner
from repro.experiments.config import SCALES
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import scenario_configs
from repro.experiments.store import result_to_dict
from tests.oracles import ReferenceHostEngine

#: Resident tasks per host in the substrate benches (a mid-run backlog).
TASKS_PER_HOST = 8

#: Populated engines are expensive to build at 10⁴ hosts (8·10⁴ scalar
#: placements on the reference), and the measured operations leave them
#: (nearly) unchanged — share one instance per (class, size).
_BUILT: dict = {}


def build(engine_cls, n_hosts: int, tasks_per_host: int = TASKS_PER_HOST):
    key = (engine_cls, n_hosts, tasks_per_host)
    if key in _BUILT:
        return _BUILT[key]
    eng = engine_cls()
    rng = np.random.default_rng(11)
    _, capacities = sample_machines(rng, rng.uniform(5.0, 10.0, n_hosts).tolist())
    ids = list(range(n_hosts))
    eng.add_hosts(ids, capacities)
    fac = TaskFactory(0.5, np.random.default_rng(12))
    for host_id in ids:
        for _ in range(tasks_per_host):
            eng.place(host_id, fac.create(host_id, 0.0), 0.0)
    # One monotonic clock per engine: timestamps may never go backwards,
    # and the instance is shared across tests in any order.
    _BUILT[key] = (eng, ids, fac, {"t": 0.0})
    return _BUILT[key]


def sweep_availability(eng, ids):
    for host_id in ids:
        eng.availability(host_id)


def churn_one_scheduling_point(eng, fac, host_id, clock):
    clock["t"] += 1.0
    task = fac.create(host_id, clock["t"])
    eng.place(host_id, task, clock["t"])
    eng.remove(host_id, task.task_id, clock["t"])


def _bench(benchmark, fn, *args, rounds=5, iterations=3):
    """Bounded-round timing: a full sweep over 10⁴ hosts is the unit of
    work, so auto-calibrated round counts would dominate the tier-1
    suite's wall clock."""
    benchmark.pedantic(fn, args=args, rounds=rounds, iterations=iterations)


@pytest.mark.benchmark(group="host-engine-availability")
@pytest.mark.parametrize("n", [1000, 10000])
def test_vectorized_availability_sweep(benchmark, n):
    eng, ids, _, _ = build(HostEngine, n)
    _bench(benchmark, sweep_availability, eng, ids)


@pytest.mark.benchmark(group="host-engine-availability")
@pytest.mark.parametrize("n", [1000, 10000])
def test_reference_availability_sweep(benchmark, n):
    eng, ids, _, _ = build(ReferenceHostEngine, n)
    _bench(benchmark, sweep_availability, eng, ids, iterations=1)


@pytest.mark.benchmark(group="host-engine-scheduling")
@pytest.mark.parametrize("n", [1000, 10000])
def test_vectorized_scheduling_point(benchmark, n):
    eng, ids, fac, clock = build(HostEngine, n)
    _bench(benchmark, churn_one_scheduling_point, eng, fac, ids[n // 2], clock,
           iterations=20)


@pytest.mark.benchmark(group="host-engine-scheduling")
@pytest.mark.parametrize("n", [1000, 10000])
def test_reference_scheduling_point(benchmark, n):
    eng, ids, fac, clock = build(ReferenceHostEngine, n)
    _bench(benchmark, churn_one_scheduling_point, eng, fac, ids[n // 2], clock,
           iterations=20)


@pytest.mark.benchmark(group="host-engine-advance")
@pytest.mark.parametrize("n", [1000, 10000])
def test_vectorized_advance_all(benchmark, n):
    eng, _, _, clock = build(HostEngine, n)

    def tick():
        clock["t"] += 1e-3
        eng.advance_all(clock["t"])

    _bench(benchmark, tick)


@pytest.mark.benchmark(group="host-engine-advance")
@pytest.mark.parametrize("n", [1000])
def test_reference_advance_all(benchmark, n):
    eng, _, _, clock = build(ReferenceHostEngine, n)

    def tick():
        clock["t"] += 1e-3
        eng.advance_all(clock["t"])

    _bench(benchmark, tick, iterations=1)


def _best_of(fn, repeats=5, inner=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def test_substrate_speedup_at_10k():
    """Acceptance criterion: the availability probe — the §IV-A substrate
    operation the protocols hammer hardest — is ≥ 5× faster than the seed
    scalar path at 10⁴ hosts (measured headroom is well above).  Beside
    the timed bound, the work: per availability probe and per scheduling
    point each substrate makes the same numpy calls at 10³ and 10⁴ hosts
    (1 and 25 vectorized, 4 and 156 scalar, measured), and the vectorized
    one the fewer."""
    n = 10_000
    calls = {}
    for size in (n // 10, n):
        for engine_cls in (HostEngine, ReferenceHostEngine):
            eng, ids, fac, clock = build(engine_cls, size)
            calls[engine_cls.__name__, size] = (
                numpy_calls(lambda: eng.availability(ids[7]))[1],
                numpy_calls(lambda: churn_one_scheduling_point(
                    eng, fac, ids[size // 2], clock))[1],
            )
    for engine_cls in (HostEngine, ReferenceHostEngine):
        name = engine_cls.__name__
        assert calls[name, n // 10] == calls[name, n], f"numpy calls per operation {calls}"
    assert all(v <= r for v, r in zip(calls["HostEngine", n], calls["ReferenceHostEngine", n]))
    vec, ids, _, _ = build(HostEngine, n)
    ref, _, _, _ = build(ReferenceHostEngine, n)
    sample = ids[:: max(1, n // 256)]
    for host_id in sample:
        assert np.allclose(
            vec.availability(host_id), ref.availability(host_id),
            atol=1e-9, rtol=0.0,
        )
    (t_vec, t_ref), note = calibrated(lambda: (
        _best_of(lambda: sweep_availability(vec, ids)),
        _best_of(lambda: sweep_availability(ref, ids), inner=1),
    ))
    speedup = t_ref / t_vec
    assert speedup >= 5.0, (
        f"only {speedup:.1f}x over the scalar reference ({note}; numpy calls per "
        f"availability probe and per scheduling point: {calls})"
    )


def test_table3_cell_scalar_vs_vectorized(benchmark, scale):
    """One Table III cell end-to-end on both substrates.  At
    ``REPRO_SCALE=paper`` this is the 2000-node simulated day of the
    acceptance criterion; smaller scales shrink the cell but keep the
    comparison shape.  Results must be identical; CPU times and their
    ratio land in the benchmark JSON."""
    n_nodes, _ = SCALES[scale]
    cfg = scenario_configs("table3", scale=scale)[str(n_nodes)]
    # Blocked minima of CPU time, as in test_setup_scales_linearly: the
    # substrates alternate block by block, so a shift of the machine's CPU
    # speed between blocks cannot skew the ratio, and a block of four tiny
    # cells spans enough CPU time that one quiet or noisy spell on a
    # shared host cannot decide it.  The first block soaks up the
    # one-time numpy/protocol warm-up; the minimum discards it.
    rounds, block = {"tiny": (3, 4), "small": (2, 1)}.get(scale, (1, 1))

    def run_block(engine_cls):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "HostEngine", engine_cls)
            t0 = time.process_time()
            for _ in range(block):
                result = SOCSimulation(cfg).run()
            return (time.process_time() - t0) / block, result

    t_vec = t_ref = float("inf")
    vec = ref = None
    for _ in range(rounds):
        seconds, vec = run_block(HostEngine)
        t_vec = min(t_vec, seconds)
        seconds, ref = run_block(ReferenceHostEngine)
        t_ref = min(t_ref, seconds)

    assert result_to_dict(vec)["metrics"] == pytest.approx(
        result_to_dict(ref)["metrics"], abs=1e-9, nan_ok=True
    )
    benchmark.extra_info["cell"] = cfg.describe()
    benchmark.extra_info["cpu_vectorized_s"] = round(t_vec, 3)
    benchmark.extra_info["cpu_scalar_s"] = round(t_ref, 3)
    benchmark.extra_info["speedup"] = round(t_ref / t_vec, 3)
    # End-to-end the protocol layer bounds the win; the engine must at
    # least never regress the cell (generous noise margin).
    assert t_vec <= t_ref * 1.25
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
