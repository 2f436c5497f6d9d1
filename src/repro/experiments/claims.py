"""The paper's claims (Figs. 4-8, Table III) as rows judged over campaign cells.

Each :class:`Claim` is a predicate over the seed-averaged end-of-run
metrics of one scenario's curves, at the scales where it is asserted.
:func:`evaluate_claims` reads cell documents only (``campaign_summary``),
so one table is both a tier-1 gate on the committed tiny campaign and a
section of ``python -m repro campaign report`` (``docs/fidelity.md``).
Two predicate kinds:

* comparison, ``mean(A.m) OP k·mean(B.m) + c``: without ``B`` the right
  side is ``c``; without curves every curve must hold, and the one
  closest to failing stands for the row;
* spread: ``max - min`` of the per-curve means stays below ``c``.

Each verdict counts the seed pairs that agree (``ordering_confidence``):
every seed of ``A`` against every seed of ``B``, or each seed's own
spread, whose CI is then the one shown.  Ties count against a non-strict
row.  ``paper`` values are quoted only from the retired benches' docstrings.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

from repro.experiments.campaign import campaign_summary
from repro.experiments.config import SCALES
from repro.experiments.multiseed import MetricStats, ordering_confidence
from repro.experiments.scenarios import scalability_populations

__all__ = ["Claim", "Verdict", "CLAIMS", "evaluate_claims", "render_claims"]

#: op → (predicate on means, ``ordering_confidence`` direction).
_OPS = {
    "<": (operator.lt, "less"),
    "<=": (operator.le, "less"),
    ">": (operator.gt, "greater"),
    ">=": (operator.ge, "greater"),
    "spread": (operator.lt, "less"),
}


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``locus`` says where the paper makes it, ``scales``
    where it is asserted, ``paper`` what the paper reports.  The id starts
    with the scenario whose cells judge it."""

    id: str
    locus: str
    metric: str
    op: str  # a key of _OPS
    curves: tuple[str, ...] = ()  # (A,) or (A, B); () = every curve
    k: float = 1.0
    c: float = 0.0
    scales: tuple[str, ...] = tuple(SCALES)
    paper: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS or len(self.curves) > (0 if self.op == "spread" else 2):
            raise ValueError(f"{self.id}: {self.op!r} over {len(self.curves)} curve(s)")

    @property
    def scenario(self) -> str:
        return self.id.split("-", 1)[0]


@dataclass(frozen=True)
class Verdict:
    """One claim judged at one scale; ``scale`` is empty when the
    documents cover none of the scales the claim is asserted at."""

    claim: Claim
    scale: str
    status: str  # "pass", "deviation" or "not covered"
    value: float = math.nan  # left side: a mean, or the spread of means
    bound: float = math.nan  # right side
    ci: tuple[float, float] = (math.nan, math.nan)  # 95% CI of the left side
    confidence: float = math.nan  # share of the seed pairs that agree
    pairs: int = 0


def _ends(scale: str) -> tuple[str, str]:
    """Table III's largest and smallest population: labels vary by scale."""
    populations = scalability_populations(scale)
    return str(populations[-1]), str(populations[0])


_T3 = "columns vary by ~0.05 absolute"

#: Every claim the repo checks, harvested from the retired figure and
#: table benches (``docs/fidelity.md`` maps each of their asserts here).
CLAIMS: tuple[Claim, ...] = (
    Claim("fig4a-sid-t-above-newscast", "Fig. 4(a)", "t_ratio", ">", ("sid-can", "newscast")),
    Claim("fig4a-sid-f-below-newscast", "Fig. 4(a)", "f_ratio", "<", ("sid-can", "newscast")),
    Claim("fig4b-newscast-t-on-par", "Fig. 4(b)", "t_ratio", ">=", ("newscast", "sid-can"), k=0.95),
    Claim("fig4b-sid-f-below-newscast", "Fig. 4(b)", "f_ratio", "<", ("sid-can", "newscast")),
    Claim("fig5-hid-t-above-newscast", "Fig. 5", "t_ratio", ">", ("hid-can", "newscast")),
    Claim("fig5-sid-t-above-newscast", "Fig. 5", "t_ratio", ">", ("sid-can", "newscast")),
    Claim("fig5-hid-f-below-newscast", "Fig. 5", "f_ratio", "<", ("hid-can", "newscast")),
    Claim("fig5-sid-f-below-newscast", "Fig. 5", "f_ratio", "<", ("sid-can", "newscast")),
    Claim("fig5-hid-t-as-sid-high", "§IV-B", "t_ratio", "<=", ("hid-can", "sid-can"), k=1.5),
    Claim("fig5-hid-t-as-sid-low", "§IV-B", "t_ratio", ">=", ("hid-can", "sid-can"), k=0.5),
    Claim("fig5-hid-sos-redundant", "§IV-B", "t_ratio", "<", ("hid-can+sos", "hid-can"),
          k=1.6, c=0.05),
    Claim("fig5-sid-sos-redundant", "§IV-B", "t_ratio", "<", ("sid-can+sos", "sid-can"),
          k=1.6, c=0.05),
    Claim("fig6-hid-f-below-newscast", "Fig. 6", "f_ratio", "<", ("hid-can", "newscast")),
    Claim("fig6-sid-f-below-newscast", "Fig. 6", "f_ratio", "<", ("sid-can", "newscast")),
    Claim("fig6-t-floor", "Fig. 6", "t_ratio", ">", c=0.1),
    Claim("fig6-fairness-floor", "Fig. 6", "fairness", ">", c=0.3),
    Claim("fig7-hid-f-below-half-newscast", "Fig. 7(b)", "f_ratio", "<", ("hid-can", "newscast"),
          k=0.5, paper="2 vs 1 793 failed of 14 362"),
    Claim("fig7-hid-f-near-zero", "Fig. 7(b)", "f_ratio", "<", ("hid-can",), c=0.1,
          paper="2 of 14 362 failed"),
    Claim("fig7-newscast-t-tops-hid", "Fig. 7(a)", "t_ratio", ">=", ("newscast", "hid-can"),
          k=0.9, paper="Newscast T ≈ 0.74, HID close behind"),
    Claim("fig7-hid-t-same-band", "Fig. 7(a)", "t_ratio", ">", ("hid-can", "newscast"), k=0.55),
    Claim("fig7-newscast-t-competitive", "Fig. 7(a)", "t_ratio", ">", ("newscast", "hid-can"),
          k=0.8),
    Claim("fig8-mid-churn-band-tiny", "Fig. 8", "t_ratio", ">", ("dynamic 50%", "static"),
          k=0.55, scales=("tiny",)),
    Claim("fig8-mid-churn-band", "Fig. 8", "t_ratio", ">", ("dynamic 50%", "static"), k=0.7,
          scales=("small", "paper")),
    Claim("fig8-extreme-t-worst", "Fig. 8", "t_ratio", "<=", ("dynamic 95%", "static"), c=0.05),
    Claim("fig8-extreme-f-worst", "Fig. 8", "f_ratio", ">=", ("dynamic 95%", "static"), c=-0.05),
    Claim("fig8-extreme-survives", "Fig. 8", "t_ratio", ">", ("dynamic 95%",), c=0.05),
    Claim("table3-t-stable", "Table III", "t_ratio", "spread", c=0.30, paper=_T3),
    Claim("table3-f-stable", "Table III", "f_ratio", "spread", c=0.35, paper=_T3),
    *(Claim(f"table3-f-holds-{s}", "Table III", "f_ratio", "<=", _ends(s), c=0.05, scales=(s,))
      for s in SCALES),
    *(Claim(f"table3-cost-sublinear-{s}", "Table III", "per_node_msg_cost", "<", _ends(s),
            k=2.5, scales=(s,)) for s in SCALES),
    Claim("table3-generated", "Table III", "generated", ">"),
)


def _seed_spreads(docs: Sequence[dict[str, Any]], claim: Claim, scale: str) -> tuple[float, ...]:
    """Each seed's ``max - min`` of the claim's metric across the curves,
    over the seeds every curve has run."""
    by_seed: dict[int, list[float]] = {}
    for doc in docs:
        cell = doc["cell"]
        if (cell["scenario"], cell["scale"]) == (claim.scenario, scale):
            by_seed.setdefault(cell["seed"], []).append(doc["run"]["metrics"][claim.metric])
    n_curves = max(map(len, by_seed.values()), default=0)
    return tuple(max(v) - min(v) for v in by_seed.values() if len(v) == n_curves)


def _sides(
    claim: Claim, curves: dict[str, dict[str, MetricStats]], docs: Sequence[dict[str, Any]],
    scale: str,
) -> tuple[float, float, MetricStats, MetricStats] | None:
    """``(left, right, left per seed, right per seed)`` of one claim, or
    ``None`` when a curve it names is missing, or a spread has one curve
    or no seed that ran every curve."""
    if any(label not in curves for label in claim.curves):
        return None
    constant = MetricStats("bound", (claim.c,))
    if claim.op == "spread":
        means = [stats[claim.metric].mean for stats in curves.values()]
        spreads = _seed_spreads(docs, claim, scale)
        if not spreads or len(curves) < 2:
            return None
        return max(means) - min(means), claim.c, MetricStats("spread", spreads), constant
    if len(claim.curves) == 2:
        a, b = (curves[label][claim.metric] for label in claim.curves)
        shifted = MetricStats(b.name, tuple(claim.k * y + claim.c for y in b.values))
        return a.mean, claim.k * b.mean + claim.c, a, shifted
    if claim.curves:
        a = curves[claim.curves[0]][claim.metric]
    else:
        pick = max if _OPS[claim.op][1] == "less" else min
        a = pick((stats[claim.metric] for stats in curves.values()), key=lambda s: s.mean)
    return a.mean, claim.c, a, constant


def evaluate_claims(
    docs: Sequence[dict[str, Any]], claims: Sequence[Claim] = CLAIMS
) -> list[Verdict]:
    """Judge every claim whose scenario the cell documents cover, at each
    of its scales they cover ("not covered" when they cover none of them,
    or a curve or a complete seed is missing)."""
    summary = campaign_summary(list(docs), tuple(sorted({c.metric for c in claims})))
    verdicts: list[Verdict] = []
    for claim in claims:
        covered = {scale for scenario, scale in summary if scenario == claim.scenario}
        judged = [scale for scale in claim.scales if scale in covered]
        if covered and not judged:
            verdicts.append(Verdict(claim, "", "not covered"))
        for scale in judged:
            sides = _sides(claim, summary[(claim.scenario, scale)], docs, scale)
            if sides is None:
                verdicts.append(Verdict(claim, scale, "not covered"))
                continue
            value, bound, left, right = sides
            holds, direction = _OPS[claim.op]
            verdicts.append(Verdict(
                claim, scale, "pass" if holds(value, bound) else "deviation", value, bound,
                left.ci95(), ordering_confidence(left, right, direction),
                len(left.values) * len(right.values),
            ))
    return verdicts


def render_claims(verdicts: Sequence[Verdict]) -> str:
    """The claims section of ``campaign report``: one line per verdict."""
    counts = Counter(v.status for v in verdicts)
    lines = [
        "paper claims (docs/fidelity.md): "
        + ", ".join(f"{counts[s]} {s}" for s in ("pass", "deviation", "not covered")),
        f"{'claim':<32}{'scale':<13}{'status':<13}{'left':>10} op {'right':<10}  "
        f"{'95% CI of left':<16}  agree  paper",
    ]
    for v in verdicts:
        row = f"{v.claim.id:<32}{v.scale or '/'.join(v.claim.scales):<13}{v.status:<13}"
        if v.pairs:
            op = "<" if v.claim.op == "spread" else v.claim.op
            row += (
                f"{v.value:10.4f} {op:>2} {v.bound:<10.4f}  [{v.ci[0]:.4f}, {v.ci[1]:.4f}]"
                f"  {round(v.confidence * v.pairs):>2}/{v.pairs:<2}  {v.claim.paper}"
            )
        lines.append(row.rstrip())
    return "\n".join(lines)
