"""The repo benchmark: one command, every metric by name.

    python3 bench/run.py                       # all workloads, untraced + traced
    python3 bench/run.py --workload NAME --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --noise-check 5 [--workload NAME]

Every measurement runs in a fresh child process, one at a time, with
``PYTHONHASHSEED=0`` and single-threaded BLAS: the load generator is the
simulator's own Poisson workload, closed inside the process, so no more
than one core is ever busy.  With ``--workload`` the last line of standard
output is the result object of the benchmark contract (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the protocol, the glossary and the bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: The builder contract: one run must end within RUN_CAP_S, and the
#: driver's 4 + 22 x workloads runs within DRIVER_CAP_S altogether.
RUN_CAP_S = 180.0
DRIVER_CAP_S = 3420.0
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# child: measure in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import numpy

    from bench.calibrate import CALIB_REF_S
    from bench.cell import WORKLOADS, measure, repeats_for

    # The traced repeat runs between two untraced ones, whatever --seconds.
    repeats = 2 if args.trace else repeats_for(args.seconds)
    doc = measure(WORKLOADS[args.workload], args.seed, repeats=repeats, trace=bool(args.trace))
    tracer = doc.pop("tracer", None)
    if tracer is not None:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace_{args.workload}.json", "w") as fh:
            json.dump(tracer.to_document(), fh)
    doc["meta"] = {
        "seed": args.seed,
        "repeats": doc["repeats"],
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib_ref_s": CALIB_REF_S,
    }
    print(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# parent: spawn, check against BENCHMARK.json, report
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict[str, Any], float]:
    """Measure ``workload`` in a fresh process; ``(document, wall seconds)``.
    Raises ``RuntimeError`` when the child fails or overruns the cap."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
            stdout=subprocess.PIPE, text=True, timeout=RUN_CAP_S - 10.0,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: run exceeded the {RUN_CAP_S:.0f} s cap") from None
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def contract_failures(doc: dict[str, Any], contract: dict[str, Any], trace: int) -> list[str]:
    """Every metric BENCHMARK.json names for this kind of run must be
    there, under a legal name, with its unit and a finite value — and no
    metric it does not name."""
    section = "per_layer" if trace else "end_to_end"
    emitted = doc.get(section, {})
    failures = []
    for spec in contract[section]:
        name = spec["name"]
        got = emitted.get(name)
        if not METRIC_NAME.match(name):
            failures.append(f"illegal metric name {name!r}")
        elif got is None:
            failures.append(f"metric {name} not emitted")
        elif got["unit"] != spec["unit"]:
            failures.append(f"metric {name}: unit {got['unit']!r}, contract says {spec['unit']!r}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            failures.append(f"metric {name}: value {got['value']!r} is not finite")
    named = {spec["name"] for spec in contract[section]}
    failures += [f"metric {name} is not in BENCHMARK.json" for name in emitted if name not in named]
    return failures


def result_line(doc: dict[str, Any], trace: int) -> str:
    section = doc["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in section.items()
        },
    })


def print_metrics(doc: dict[str, Any], trace: int) -> None:
    section = doc["per_layer" if trace else "end_to_end"]
    for name, metric in section.items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        info = doc["info"]
        for key in ("query_delay_p50_s", "query_delay_p95_s", "query_delay_samples",
                    "query_timeouts", "query_failed_ratio", "t_ratio", "f_ratio", "fairness"):
            print(f"  info.{key:<37} {info[key]:>16.6g}")
        for key in ("raw_setup_cpu_s", "raw_run_cpu_s", "raw_repeat_wall_s"):
            print(f"  info.{key:<37} " + " ".join(f"{v:.3f}" for v in info[key]))


def measure_checked(
    workload: str, seed: int, seconds: float, trace: int, contract: dict[str, Any]
) -> tuple[dict[str, Any], float]:
    doc, elapsed = spawn(workload, seed, seconds, trace)
    doc["failures"] += contract_failures(doc, contract, trace)
    doc["correct"] = not doc["failures"]
    kind = "traced" if trace else "untraced"
    print(f"{workload} ({kind}, seed {seed}, {doc['repeats']} timed repeats): "
          f"{elapsed:.1f} s wall")
    print_metrics(doc, trace)
    for failure in doc["failures"]:
        print(f"  INCORRECT: {failure}", file=sys.stderr)
    return doc, elapsed


def run_one(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """The contract's run: one workload, one result line."""
    doc, _ = measure_checked(args.workload, args.seed, args.seconds, args.trace, contract)
    print(result_line(doc, args.trace))
    return 0 if doc["correct"] else 1


def run_all(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """Every workload, untraced then traced, into one result file."""
    started = time.perf_counter()
    result: dict[str, Any] = {"meta": None, "workloads": {}}
    run_walls = []
    correct = True
    for spec in contract["workloads"]:
        name = spec["name"]
        doc, wall = measure_checked(name, args.seed, args.seconds, 0, contract)
        traced, traced_wall = measure_checked(name, args.seed, args.seconds, 1, contract)
        run_walls += [wall, traced_wall]
        correct = correct and doc["correct"] and traced["correct"]
        result["meta"] = doc["meta"]
        result["workloads"][name] = {
            "end_to_end": doc["end_to_end"],
            "per_layer": traced["per_layer"],
            "info": doc["info"],
            "failures": doc["failures"] + traced["failures"],
            "wall_s": [wall, traced_wall],
        }
    total = time.perf_counter() - started
    runs = 4 + 22 * len(contract["workloads"])
    projected = statistics.fmean(run_walls) * runs
    print(f"total {total:.1f} s wall; the driver's {runs} runs would take about "
          f"{projected:.0f} s of its {DRIVER_CAP_S:.0f} s")
    out = Path(args.out) if args.out else BENCH_DIR / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    if projected > DRIVER_CAP_S:
        print("TOO SLOW: lower run_seconds down to the repeat floor before touching a duration",
              file=sys.stderr)
        return 1
    return 0 if correct else 1


def spread(values: list[float]) -> tuple[float, float]:
    """``(max/min - 1, interquartile range / median)`` of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return max(values) / min(values) - 1.0, (q3 - q1) / statistics.median(values)


def noise_check(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """Run each workload in N fresh processes back to back and print how
    far raw CPU time and normalised time spread between them."""
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    print(f"{'workload':<16} {'metric':<18} {'raw max/min-1':>14} {'raw iqr/med':>12} "
          f"{'norm max/min-1':>15} {'norm iqr/med':>13}")
    for name in names:
        docs = [
            spawn(name, args.seed, args.seconds, 0)[0]
            for _ in range(args.noise_check)
        ]
        rows = {
            "setup_s": (
                [statistics.median(d["info"]["raw_setup_cpu_s"]) for d in docs],
                [d["end_to_end"]["setup_s"]["value"] for d in docs],
            ),
            # Spread is scale-free, so 1 / CPU seconds stands in for
            # simulated seconds per raw CPU second.
            "sim_s_per_host_s": (
                [1.0 / statistics.median(d["info"]["raw_run_cpu_s"]) for d in docs],
                [d["end_to_end"]["sim_s_per_host_s"]["value"] for d in docs],
            ),
        }
        for metric, (raw, norm) in rows.items():
            (raw_mm, raw_iqr), (norm_mm, norm_iqr) = spread(raw), spread(norm)
            print(f"{name:<16} {metric:<18} {raw_mm:>13.1%} {raw_iqr:>11.1%} "
                  f"{norm_mm:>14.1%} {norm_iqr:>12.1%}")
        rss = [d["end_to_end"]["peak_rss_mb"]["value"] for d in docs]
        print(f"{name:<16} {'peak_rss_mb':<18} {'':>14} {'':>12} "
              f"{spread(rss)[0]:>14.1%} {spread(rss)[1]:>12.1%}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a run measures: one timed repeat per 5 s, at least 3 "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--noise-check", type=int, metavar="N", default=0,
                        help="spread of raw vs normalised host time over N processes")
    parser.add_argument("--out", help="result file of a whole pass (default bench/out/result.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")

    if args.child:
        return child_main(args)
    try:
        if args.noise_check:
            return noise_check(args, contract)
        if args.workload is not None:
            return run_one(args, contract)
        return run_all(args, contract)
    except RuntimeError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory; the repo root takes
    # its place so ``bench`` imports as a package (and bench/trace.py
    # cannot shadow the standard library's ``trace``), with src/ behind it.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main())
