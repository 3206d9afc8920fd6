"""Exact Pareto frontiers over (execution time, dollar cost).

A configuration *dominates* another when it is no worse on every
objective and strictly better on at least one; the **frontier** is the
set of non-dominated configurations — every point on it is a rational
answer to "how much am I willing to pay to finish sooner?".

The frontier here is exact and deterministic:

* dominance uses ``<=`` / ``<`` on the raw floats (no tolerances);
  points tied on *every* objective are all kept, so no arbitrary
  representative is chosen among exact ties;
* frontier points are ordered by ``(time, dollars, config.key())`` —
  the same canonical tie-break the exhaustive optimizer uses, which is
  what makes the min-time endpoint bitwise-identical to
  :class:`~repro.core.search.ExhaustiveOptimizer`'s winner;
* :func:`enumerate_frontier` is the brute-force reference (evaluate
  everything, filter); :class:`repro.cost.search.BudgetFrontierSearch`
  produces the identical frontier while pruning dominated subtrees.

Energy rides along as provenance on every point (it is proportional to
``time * watts`` and therefore monotone with time for a fixed
configuration — putting it on the dominance test would only ever
re-confirm the time axis).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.core.search.base import (
    GridEstimator,
    SearchStats,
    evaluate_grid,
    validated_estimates,
)
from repro.cost.evaluate import config_dollar_rate, config_watts
from repro.cost.model import CostModel
from repro.errors import SearchError

#: The frontier's objective axes, in reply/report order.
FRONTIER_OBJECTIVES: Tuple[str, ...] = ("time_s", "dollars")


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated configuration with its full objective vector."""

    config: ClusterConfig
    n: int
    time_s: float
    dollars: float
    energy_wh: float

    def objectives(self) -> Tuple[float, float]:
        return (self.time_s, self.dollars)

    def sort_key(self) -> Tuple:
        return (self.time_s, self.dollars, self.config.key())

    def to_dict(self, kinds: Optional[Sequence[str]] = None) -> Dict[str, object]:
        return {
            "config": list(self.config.as_flat_tuple(kinds)),
            "time_s": self.time_s,
            "dollars": self.dollars,
            "energy_wh": self.energy_wh,
        }


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` dominates ``b`` (<= everywhere,
    < somewhere)."""
    if len(a) != len(b):
        raise SearchError(f"objective vectors differ in length: {a!r} vs {b!r}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(points: Sequence[FrontierPoint]) -> List[FrontierPoint]:
    """The non-dominated subset, canonically ordered.

    Sorting by ``(time, dollars, key)`` first makes the filter a single
    sweep: a point is dominated iff some point before it in that order
    has ``dollars`` strictly below the running minimum... but exact ties
    must survive, so the sweep keeps a point when its dollars are at or
    below the strictly-cheaper-and-faster floor.
    """
    ordered = sorted(points, key=lambda p: p.sort_key())
    front: List[FrontierPoint] = []
    best_dollars = math.inf  # cheapest strictly-faster-or-equal point so far
    for point in ordered:
        if any(dominates(kept.objectives(), point.objectives()) for kept in front):
            continue
        front.append(point)
        best_dollars = min(best_dollars, point.dollars)
    return front


def build_point(
    model: CostModel, config: ClusterConfig, n: int, time_s: float
) -> FrontierPoint:
    """Assemble one point from an estimated time (infinite times yield
    infinite dollars/energy — unestimable never looks free)."""
    if math.isfinite(time_s):
        dollars = time_s * config_dollar_rate(model, config)
        energy_wh = time_s * config_watts(model, config) / 3600.0
    else:
        dollars = math.inf
        energy_wh = math.inf
    return FrontierPoint(
        config=config, n=n, time_s=time_s, dollars=dollars, energy_wh=energy_wh
    )


@dataclass
class FrontierOutcome:
    """Result of one frontier computation at one problem order."""

    n: int
    points: List[FrontierPoint]
    search_seconds: float
    stats: Optional[SearchStats] = field(default=None, repr=False, compare=False)
    #: False when an evaluation budget stopped the search early — the
    #: points are then non-dominated among the *visited* set only.
    complete: bool = True
    #: Dollar budget the frontier was restricted to (None = unrestricted).
    max_cost: Optional[float] = None

    @property
    def min_time(self) -> FrontierPoint:
        """The frontier's fast endpoint (the exhaustive winner when the
        frontier is complete and unrestricted)."""
        return self.points[0]

    @property
    def min_cost(self) -> FrontierPoint:
        """The frontier's cheap endpoint."""
        return min(
            self.points, key=lambda p: (p.dollars, p.time_s, p.config.key())
        )

    def to_dict(self, kinds: Optional[Sequence[str]] = None) -> Dict[str, object]:
        out: Dict[str, object] = {
            "n": self.n,
            "objectives": list(FRONTIER_OBJECTIVES),
            "points": [point.to_dict(kinds) for point in self.points],
            "complete": self.complete,
        }
        if self.max_cost is not None:
            out["max_cost"] = self.max_cost
        if self.stats is not None:
            out["search"] = self.stats.to_dict()
        return out


def assemble_frontier(
    n: int,
    points: Sequence[FrontierPoint],
    started: float,
    stats: Optional[SearchStats] = None,
    complete: bool = True,
    max_cost: Optional[float] = None,
) -> FrontierOutcome:
    """Filter to the non-dominated set and package the outcome.

    Raises when nothing finite survives — an all-unestimable frontier
    (or an unsatisfiable ``max_cost``) is an error, not an empty answer.
    """
    eligible = [
        p
        for p in points
        if max_cost is None or p.dollars <= max_cost
    ]
    front = [p for p in pareto_front(eligible) if math.isfinite(p.time_s)]
    if not front:
        if max_cost is not None:
            raise SearchError(
                f"no configuration fits within max_cost=${max_cost:g} at N={n}"
            )
        raise SearchError(
            f"no candidate could be estimated at N={n} (all models out of domain)"
        )
    return FrontierOutcome(
        n=n,
        points=front,
        search_seconds=_time.perf_counter() - started,
        stats=stats,
        complete=complete,
        max_cost=max_cost,
    )


def enumerate_frontier(
    objective: GridEstimator,
    candidates: Sequence[ClusterConfig],
    n: int,
    model: CostModel,
    allow_unestimable: bool = True,
    max_cost: Optional[float] = None,
) -> FrontierOutcome:
    """Brute-force reference: evaluate every candidate, filter.

    All candidates go through the objective as one block.  Evaluation cost is exactly ``len(candidates)`` cells — the baseline
    the ``budget-frontier`` backend's pruning is gated against in
    ``benchmarks/bench_pareto.py``.
    """
    candidates = list(candidates)
    if not candidates:
        raise SearchError(f"no candidate to enumerate at N={n}")
    started = _time.perf_counter()
    stats = SearchStats(backend="enumerate-frontier")
    values = validated_estimates(
        evaluate_grid(objective, candidates, [n])[:, 0],
        candidates,
        n,
        allow_unestimable,
    )
    points = []
    for config, value in zip(candidates, values.tolist()):
        stats.record(config, value)
        points.append(build_point(model, config, n, value))
    return assemble_frontier(
        n, points, started, stats=stats, complete=True, max_cost=max_cost
    )


# -- scalarization -------------------------------------------------------------


def parse_objective(text: str) -> Optional[float]:
    """Parse an ``--objective`` spec into a scalarization weight.

    ``"time"`` means pure minimum time (``None``); ``"weighted:a"``
    with ``a`` in ``[0, 1]`` trades normalized time against normalized
    dollars (0 = pure time, 1 = pure cost).
    """
    if text == "time":
        return None
    if text.startswith("weighted:"):
        raw = text[len("weighted:"):]
        try:
            alpha = float(raw)
        except ValueError:
            raise SearchError(
                f"objective weight {raw!r} is not a number"
            ) from None
        if not (0.0 <= alpha <= 1.0):
            raise SearchError(f"objective weight must be in [0, 1], got {alpha}")
        return alpha
    raise SearchError(
        f"unknown objective {text!r} (use 'time' or 'weighted:ALPHA')"
    )


def select_weighted(front: Sequence[FrontierPoint], alpha: float) -> FrontierPoint:
    """The frontier point minimizing the range-normalized scalarization
    ``(1 - alpha) * time_norm + alpha * dollars_norm``.

    Any strictly monotone scalarization is minimized on the frontier, so
    selecting *after* the exact frontier computation loses nothing —
    and ``alpha=0`` / ``alpha=1`` reduce to the endpoints exactly.
    """
    if not front:
        raise SearchError("cannot scalarize an empty frontier")
    times = [p.time_s for p in front]
    dollars = [p.dollars for p in front]
    t_lo, t_span = min(times), max(times) - min(times)
    d_lo, d_span = min(dollars), max(dollars) - min(dollars)

    def score(point: FrontierPoint) -> Tuple:
        t_norm = (point.time_s - t_lo) / t_span if t_span > 0 else 0.0
        d_norm = (point.dollars - d_lo) / d_span if d_span > 0 else 0.0
        return (
            (1.0 - alpha) * t_norm + alpha * d_norm,
            point.time_s,
            point.dollars,
            point.config.key(),
        )

    return min(front, key=score)
