"""Decision confidence: how much does the argmin actually matter?

Both the paper's tables and this reproduction show the top configurations
separated by a few seconds — the estimated best and the measured best
routinely differ by one process count while the *times* differ by under
4%.  The right way to read such an optimizer is therefore not "the best
configuration is X" but "these k configurations are statistically tied;
any of them is fine".

:func:`decision_report` formalizes that: given a search outcome and a
model-error scale, it reports the **tie set** (candidates whose estimates
lie within the error band of the winner), the **margin** to the first
candidate outside it, and — when ground truth is available — whether the
measured optimum was inside the tie set (the reproduction's claim that
argmin misses are benign).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.cluster.config import ClusterConfig
from repro.core.pipeline import EstimationPipeline
from repro.core.search import SearchOutcome
from repro.errors import SearchError


@dataclass(frozen=True)
class DecisionReport:
    """Tie structure of one optimization."""

    n: int
    best: ClusterConfig
    best_estimate: float
    #: candidates within the error band of the winner, winner first
    tie_set: Tuple[Tuple[ClusterConfig, float], ...]
    #: relative gap from the winner to the first non-tied candidate
    #: (``inf`` when everything ties)
    margin: float
    error_band: float

    @property
    def is_confident(self) -> bool:
        """True when the winner stands alone within the error band."""
        return len(self.tie_set) == 1

    def contains(self, config: ClusterConfig) -> bool:
        key = config.key()
        return any(c.key() == key for c, _ in self.tie_set)

    def describe(self, kinds: Optional[Sequence[str]] = None) -> str:
        labels = ", ".join(c.label(kinds) for c, _ in self.tie_set)
        margin = "inf" if self.margin == float("inf") else f"{self.margin:.1%}"
        return (
            f"N={self.n}: {len(self.tie_set)} configuration(s) tied within "
            f"{self.error_band:.0%} ({labels}); margin to the rest {margin}"
        )


def analyze_outcome(outcome: SearchOutcome, error_band: float) -> DecisionReport:
    """Extract the tie structure from a ranked search outcome.

    ``error_band`` is the relative model error to treat as noise — use the
    protocol's observed estimate-error scale (a few percent for Basic/NL).
    """
    if error_band < 0:
        raise SearchError(f"error_band must be >= 0, got {error_band}")
    ranking = outcome.ranking
    best = ranking[0]
    threshold = best.estimate_s * (1.0 + error_band)
    tie_set = tuple(
        (entry.config, entry.estimate_s)
        for entry in ranking
        if entry.estimate_s <= threshold
    )
    if len(tie_set) < len(ranking):
        first_outside = ranking[len(tie_set)].estimate_s
        margin = (first_outside - best.estimate_s) / best.estimate_s
    else:
        margin = float("inf")
    return DecisionReport(
        n=outcome.n,
        best=best.config,
        best_estimate=best.estimate_s,
        tie_set=tie_set,
        margin=margin,
        error_band=error_band,
    )


def decision_report(
    pipeline: EstimationPipeline,
    sizes: Optional[Sequence[int]] = None,
    error_band: float = 0.05,
) -> List[DecisionReport]:
    """Tie analysis for every evaluation size of a pipeline."""
    selected = sizes if sizes is not None else pipeline.plan.evaluation_sizes
    return [
        analyze_outcome(pipeline.optimize(int(n)), error_band) for n in selected
    ]


def decision_table(
    pipeline: EstimationPipeline,
    sizes: Optional[Sequence[int]] = None,
    error_band: float = 0.05,
) -> str:
    """Rendered tie analysis, with the measured optimum's membership."""
    kinds = pipeline.plan.kinds
    rows = []
    for report in decision_report(pipeline, sizes, error_band):
        actual, _ = pipeline.actual_best(report.n)
        rows.append(
            [
                report.n,
                report.best.label(kinds),
                len(report.tie_set),
                "inf" if report.margin == float("inf") else f"{report.margin:.1%}",
                actual.label(kinds),
                "yes" if report.contains(actual) else "NO",
            ]
        )
    return render_table(
        [
            "N",
            "est. best",
            f"tied within {error_band:.0%}",
            "margin beyond ties",
            "measured best",
            "measured best in tie set?",
        ],
        rows,
        title="Decision confidence (tie analysis)",
    )
