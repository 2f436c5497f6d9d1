"""Diff two result files of ``bench/run.py``: the ``profile diff`` command.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both measured
with the same seed and ``--seconds``, or the files are refused.  One row
per workload and end-to-end metric — both values, the ratio B/A, the
same-seed bound, and a verdict:

- ``regressed``  — B is worse than A by more than the bound;
- ``improved``   — B is better than A by more than either side's spread;
- ``unchanged``  — neither;
- ``unresolved`` — the spread between a side's own repeats is wider than
  the bound, so the bound cannot be checked (unless every repeat of B
  reads better than every repeat of A, which is ``improved``).

The bounds here are the same-seed ones (:data:`HOST_BOUND`), not those of
BENCHMARK.json, which have to hold across different seeds.  A model
metric repeats exactly for one seed, so its bound is 0: any difference is
real, ``regressed`` in the worse direction and ``improved`` in the better
one — a host-only optimisation must show ``unchanged`` on every one.  The
failed-operation share (``info.query_failed_ratio``) has its own row and
regresses on any rise.  The per-layer ``self_s`` deltas of the two traced
runs follow each workload.  Exit status: 0 no regression, 1 a
``regressed`` row, 2 the files are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Meta fields that must agree for the host metrics to mean the same.
MUST_MATCH = ("seed", "calib_ref_s", "seconds", "repeats")
SHOULD_MATCH = ("nproc", "python", "numpy")
#: How much worse a host metric may read between two runs of one seed:
#: what normalised time repeats to between processes (bench/README.md,
#: noise evidence).  Model metrics are not listed: their bound is 0.
HOST_BOUND = {"setup_s": 0.10, "sim_s_per_host_s": 0.10, "peak_rss_mb": 0.05}


def spread(samples: list[float]) -> float:
    """Distance between the quartiles of a side's own repeats as a share
    of their median (the whole range, when there are only three)."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def exact_verdict(a: float, b: float, better: str) -> str:
    """Verdict on a deterministic quantity: any difference is real."""
    if a == b:
        return "unchanged"
    return "improved" if (b < a) == (better == "lower") else "regressed"


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """Verdict on a measured (host) metric against its same-seed bound."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    if a.get("samples") and b.get("samples"):
        noise = max(spread(a["samples"]), spread(b["samples"]))
    else:
        noise = bound  # measured once per run (peak RSS): no spread to go by
    if noise > bound:
        sa, sb = a["samples"], b["samples"]
        all_better = max(sb) < min(sa) if better == "lower" else min(sb) > max(sa)
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > noise:
        return "improved"
    return "unchanged"


def compare(doc_a: dict[str, Any], doc_b: dict[str, Any], contract: dict[str, Any]) -> int:
    meta_a, meta_b = doc_a["meta"], doc_b["meta"]
    for key in MUST_MATCH:
        if meta_a.get(key) != meta_b.get(key):
            print(f"not comparable: {key} is {meta_a.get(key)!r} in A and "
                  f"{meta_b.get(key)!r} in B", file=sys.stderr)
            return 2
    for key in SHOULD_MATCH:
        if meta_a.get(key) != meta_b.get(key):
            print(f"warning: {key} differs ({meta_a.get(key)!r} vs {meta_b.get(key)!r})")

    regressed = False
    for spec in contract["workloads"]:
        name = spec["name"]
        wa, wb = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"\n{name}: missing from {'A' if wa is None else 'B'}")
            continue
        print(f"\n{name}")
        print(f"  {'metric':<24} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict")
        for metric in contract["end_to_end"]:
            a, b = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            bound = HOST_BOUND.get(metric["name"], 0.0)
            if a["kind"] == "model":
                word = exact_verdict(a["value"], b["value"], metric["better"])
            else:
                word = verdict(a, b, metric["better"], bound)
            regressed = regressed or word == "regressed"
            print(f"  {metric['name']:<24} {a['value']:>12.5g} {b['value']:>12.5g} "
                  f"{b['value'] / a['value']:>8.4f} {bound:>6.0%}  {word}")
        # Not an end-to-end metric (it is 0 without churn), but the rule
        # that a gain does not count when more operations fail reads it.
        fa, fb = wa["info"]["query_failed_ratio"], wb["info"]["query_failed_ratio"]
        word = exact_verdict(fa, fb, "lower")
        regressed = regressed or word == "regressed"
        print(f"  {'info.query_failed_ratio':<24} {fa:>12.5g} {fb:>12.5g} "
              f"{fb / fa if fa else float('nan'):>8.4f} {0:>6.0%}  {word}")
        print(f"  {'layer self_s':<24} {'A':>12} {'B':>12} {'B-A':>9} {'share of A':>11}")
        layers = [m for m in wa["per_layer"] if m.endswith(".self_s")]
        total_a = sum(wa["per_layer"][m]["value"] for m in layers)
        for m in layers:
            va, vb = wa["per_layer"][m]["value"], wb["per_layer"][m]["value"]
            print(f"  {m[:-len('.self_s')]:<24} {va:>12.4f} {vb:>12.4f} {vb - va:>+9.4f} "
                  f"{va / total_a if total_a else 0.0:>11.1%}")
    return 1 if regressed else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(doc_a, doc_b, contract)


if __name__ == "__main__":
    sys.exit(main())
