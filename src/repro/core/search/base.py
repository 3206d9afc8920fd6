"""Shared machinery of every search backend: outcomes, stats, problems.

The paper's Section 3.1 frames configuration selection as combinatorial
optimization with the fitted model as the objective.  This module holds
everything that is *not* specific to how a backend explores the space:

* :data:`GridEstimator` — the one objective shape,
  ``(configs, [n...]) -> (C, S)`` seconds, and :func:`grid_from_scalar`,
  which lifts a plain ``(config, n) -> seconds`` function into it;
* :class:`RankedEstimate` / :class:`SearchOutcome` — the result types
  every backend returns;
* :class:`SearchStats` — per-run cost accounting (evaluations, prune
  counts, best-so-far trace, branch-and-bound counters);
* :class:`SearchProblem` — one bundle of objective + space + options
  that :func:`repro.core.search.registry.create_search` hands to a
  backend's ``from_problem`` constructor;
* :class:`SearchBackend` — the protocol base class: a backend implements
  ``optimize(n)`` and inherits ``optimize_many``/``best``;
* validation and ranking helpers with the exact error semantics the
  exhaustive optimizer established (``+inf`` ranks last unless
  ``allow_unestimable=False``; NaN/negative always raise; an all-``inf``
  ranking raises).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.search.space import SearchSpace
from repro.errors import SearchError

#: A grid objective maps (configurations, [n1, n2, ...]) -> a ``(C, S)``
#: array of estimated seconds — the one objective shape every backend
#: evaluates (see :meth:`repro.core.pipeline.EstimationPipeline.estimate_grid`
#: for the model-based one, :func:`grid_from_scalar` for plain functions).
#: Backends may evaluate any subset of cells, in any blocking, so cell
#: ``[i, j]`` must depend on ``(configs[i], ns[j])`` alone.
GridEstimator = Callable[
    [Sequence[ClusterConfig], Sequence[int]], "np.ndarray"
]


def grid_from_scalar(
    fn: Callable[[ClusterConfig, int], float],
) -> GridEstimator:
    """Lift a plain ``(config, n) -> seconds`` function into a grid
    objective.  Cells are computed one call each, row by row in
    ``configs`` order, so an exception from ``fn`` surfaces at the first
    bad cell exactly as a per-candidate loop would raise it."""

    def objective(
        configs: Sequence[ClusterConfig], ns: Sequence[int]
    ) -> np.ndarray:
        sizes = [int(n) for n in ns]
        out = np.empty((len(configs), len(sizes)), dtype=float)
        for i, config in enumerate(configs):
            for j, n in enumerate(sizes):
                out[i, j] = fn(config, n)
        return out

    return objective


def evaluate_grid(
    objective: GridEstimator,
    configs: Sequence[ClusterConfig],
    ns: Sequence[int],
) -> np.ndarray:
    """One objective call over ``configs x ns``, shape-checked."""
    grid = np.asarray(objective(configs, ns), dtype=float)
    expected = (len(configs), len(ns))
    if grid.shape != expected:
        raise SearchError(
            f"grid objective returned shape {grid.shape}, expected {expected}"
        )
    return grid


@dataclass
class SearchStats:
    """Cost/quality accounting of one search run.

    The original heuristics fields (``evaluations``, ``best_config``,
    ``best_estimate``, ``trace``) keep their exact semantics;
    :meth:`record` appends the running best to ``trace`` per objective
    evaluation.  The pruning counters are only touched by backends that
    prune (branch-and-bound), and ``exhausted`` marks a run stopped by
    its evaluation budget rather than by covering the space.
    """

    evaluations: int = 0
    best_config: Optional[ClusterConfig] = None
    best_estimate: float = math.inf
    trace: List[float] = field(default_factory=list)
    #: Registry tag of the backend that produced this run ("" when the
    #: stats were built outside a backend, e.g. directly in a test).
    backend: str = ""
    #: Subtrees cut by the lower bound, and how many candidate
    #: configurations those subtrees contained.
    pruned_subtrees: int = 0
    pruned_candidates: int = 0
    #: Lower-bound computations (they are much cheaper than objective
    #: evaluations, but not free — benches report both).
    bound_evaluations: int = 0
    #: The evaluation budget the run was given (None = unbounded).
    budget: Optional[int] = None
    #: True when the run stopped because the budget ran out.
    exhausted: bool = False
    #: True when a greedy/local run stopped at a local optimum without
    #: having seen most of the space — the "structurally stuck" failure
    #: mode the PR-7 benches documented.  Callers should surface it (the
    #: CLI prints a one-line warning) instead of trusting the result.
    stuck: bool = False
    #: States a local searcher skipped before evaluation because they
    #: were duplicated within a neighbor frontier or already evaluated
    #: earlier in the run — the saving the frontier dedup makes
    #: observable (always 0 for backends without frontiers).
    dedup_hits: int = 0

    def record(self, config: ClusterConfig, estimate: float) -> None:
        self.evaluations += 1
        if estimate < self.best_estimate:
            self.best_estimate = estimate
            self.best_config = config
        self.trace.append(self.best_estimate)

    def prune(self, candidates: int) -> None:
        """Account one pruned subtree holding ``candidates`` configurations."""
        self.pruned_subtrees += 1
        self.pruned_candidates += candidates

    def to_dict(self, include_trace: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "backend": self.backend,
            "evaluations": self.evaluations,
            "pruned_subtrees": self.pruned_subtrees,
            "pruned_candidates": self.pruned_candidates,
            "bound_evaluations": self.bound_evaluations,
            "best_estimate": self.best_estimate,
            "exhausted": self.exhausted,
            "dedup_hits": self.dedup_hits,
        }
        if self.budget is not None:
            out["budget"] = self.budget
        if self.stuck:
            out["stuck"] = True
        if include_trace:
            out["trace"] = list(self.trace)
        return out


@dataclass(frozen=True)
class RankedEstimate:
    """One candidate with its estimated execution time."""

    config: ClusterConfig
    n: int
    estimate_s: float

    def label(self, kinds: Optional[Sequence[str]] = None) -> str:
        return self.config.label(kinds)


@dataclass
class SearchOutcome:
    """Full result of one optimization: the winner, the ranking and the
    search cost (the paper reports its enumeration wall time).

    ``ranking`` holds every candidate the backend *evaluated* — the full
    space for exact backends (``complete=True``), the visited subset for
    pruned or heuristic runs (``complete=False``).  ``stats`` carries the
    producing backend's cost accounting (None for outcomes built before
    the Search protocol existed, e.g. unpickled from old artifacts).
    """

    n: int
    ranking: List[RankedEstimate]
    search_seconds: float
    stats: Optional[SearchStats] = field(default=None, repr=False, compare=False)
    complete: bool = True
    _estimate_by_key: Optional[Dict[Tuple, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def best(self) -> RankedEstimate:
        return self.ranking[0]

    def top(self, count: int) -> List[RankedEstimate]:
        return self.ranking[: max(count, 0)]

    def estimate_for(self, config: ClusterConfig) -> float:
        """Estimate of one candidate (O(1) after the first lookup builds
        the key index — repeated lookups used to re-scan the ranking).

        Raises :class:`SearchError` when the ranking holds the same
        candidate twice: a duplicate key means two entries claim the same
        configuration and a silent keep-last lookup could return either
        one's estimate depending on ranking order.
        """
        if self._estimate_by_key is None:
            index: Dict[Tuple, float] = {}
            for entry in self.ranking:
                key = entry.config.key()
                if key in index:
                    raise SearchError(
                        f"duplicate candidate {entry.config.label()} in "
                        f"ranking at N={self.n}; estimate_for() would be "
                        "ambiguous"
                    )
                index[key] = entry.estimate_s
            self._estimate_by_key = index
        try:
            return self._estimate_by_key[config.key()]
        except KeyError:
            raise SearchError(
                f"configuration {config.label()} was not a candidate"
            ) from None


# -- validation & ranking helpers --------------------------------------------


def validated_estimate(
    value: float, config: ClusterConfig, n: int, allow_unestimable: bool = True
) -> float:
    """The exhaustive optimizer's estimate validation, shared by every
    backend: NaN and negative (including ``-inf``) always raise; ``+inf``
    raises only under ``allow_unestimable=False`` (otherwise it is the
    sanctioned "model outside its domain" signal and ranks last)."""
    invalid = math.isnan(value) or value < 0
    if invalid or (value == math.inf and not allow_unestimable):
        raise SearchError(
            f"estimator returned invalid time {value!r} for "
            f"{config.label()} at N={n}"
        )
    return value


def validated_estimates(
    values: "np.ndarray",
    configs: Sequence[ClusterConfig],
    n: int,
    allow_unestimable: bool = True,
) -> "np.ndarray":
    """Vectorized :func:`validated_estimate` over one block of candidates.

    Checks the whole array at once and, when something is wrong, raises
    the *identical* :class:`SearchError` a per-candidate loop would have
    raised at the first offending candidate in ``configs`` order.
    """
    arr = np.asarray(values, dtype=float)
    bad = np.isnan(arr) | (arr < 0)
    if not allow_unestimable:
        bad |= np.isinf(arr)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        validated_estimate(
            float(arr[index]), configs[index], n, allow_unestimable
        )
        raise AssertionError("validated_estimate must have raised")
    return arr


def rank_evaluations(
    n: int,
    entries: Sequence[Tuple[ClusterConfig, float]],
    started: float,
    stats: Optional[SearchStats] = None,
    complete: bool = True,
) -> SearchOutcome:
    """Assemble a :class:`SearchOutcome` from ``(config, estimate)`` pairs.

    Ordering is ``(estimate, config.key())`` — ties break on the
    canonical configuration key, which is what makes exact backends
    bitwise-reproducible regardless of evaluation order.  Raises when the
    best entry is not finite (same error as the exhaustive optimizer).
    """
    if not entries:
        raise SearchError(f"no candidate was evaluated at N={n}")
    # Precompute the tie-break keys once: recomputing config.key() inside
    # the sort lambda costs O(n log n) key constructions per ranking.
    keys = [config.key() for config, _ in entries]
    order = sorted(
        range(len(entries)), key=lambda i: (entries[i][1], keys[i])
    )
    ranking = [
        RankedEstimate(config=entries[i][0], n=n, estimate_s=entries[i][1])
        for i in order
    ]
    if not math.isfinite(ranking[0].estimate_s):
        raise SearchError(
            f"no candidate could be estimated at N={n} "
            "(all models out of domain)"
        )
    return SearchOutcome(
        n=n,
        ranking=ranking,
        search_seconds=time.perf_counter() - started,
        stats=stats,
        complete=complete,
    )


# -- the problem bundle -------------------------------------------------------


@dataclass
class SearchProblem:
    """Everything a backend needs to search one configuration space.

    Either ``candidates`` (an explicit list — the paper's grid) or
    ``space`` (a product space) must be provided; backends that need the
    missing form derive it via :meth:`resolved_space` /
    :meth:`resolved_candidates`.
    """

    #: The grid objective: every backend evaluates candidate blocks
    #: through it (exhaustive: the full grid; local searchers: each
    #: round's neighbor frontier; branch-and-bound: leaf blocks).
    objective: GridEstimator
    candidates: Optional[Sequence[ClusterConfig]] = None
    space: Optional[SearchSpace] = None
    kinds: Optional[Sequence[str]] = None
    #: Lower-bound oracle for branch-and-bound (duck-typed
    #: :class:`repro.core.search.bounds.KindTimeBound`); without one,
    #: branch-and-bound cannot prune and refuses to run.
    bounds: Optional[object] = None
    #: Rate card for the cost-aware backends (duck-typed
    #: :class:`repro.cost.model.CostModel`); None means every kind is
    #: free and the frontier degenerates to the minimum-time point.
    cost: Optional[object] = None
    allow_unestimable: bool = True
    #: Seed for the stochastic backends (hill climbing, annealing).
    seed: int = 0

    def resolved_space(self) -> SearchSpace:
        if self.space is not None:
            return self.space
        if self.candidates is None:
            raise SearchError("search problem has neither candidates nor space")
        return SearchSpace.from_candidates(self.candidates, self.kinds)

    def resolved_candidates(self) -> List[ClusterConfig]:
        if self.candidates is not None:
            return list(self.candidates)
        if self.space is None:
            raise SearchError("search problem has neither candidates nor space")
        return list(self.space.configs())

    def resolved_kinds(self) -> List[str]:
        if self.kinds is not None:
            return list(self.kinds)
        return list(self.resolved_space().kinds)


# -- the backend protocol -----------------------------------------------------


class SearchBackend:
    """Base class of every registered search backend.

    A backend is constructed from a :class:`SearchProblem` (plus
    backend-specific options) via :meth:`from_problem` and answers
    :meth:`optimize` — everything else has shared default behavior.
    The class attribute :attr:`backend_type` is assigned by the
    ``@register_search(tag)`` decorator.
    """

    backend_type: str = ""

    #: Stats of the most recent :meth:`optimize` call (for callers that
    #: hold the backend; the outcome itself carries the same object).
    stats: Optional[SearchStats] = None

    @classmethod
    def from_problem(cls, problem: SearchProblem, **options) -> "SearchBackend":
        raise NotImplementedError

    def optimize(self, n: int) -> SearchOutcome:
        raise NotImplementedError

    def optimize_many(self, ns: Sequence[int]) -> List[SearchOutcome]:
        """Rank for every size; backends with a vectorized grid path
        override this (the exhaustive optimizer does)."""
        sizes = [int(n) for n in ns]
        if not sizes:
            raise SearchError("optimize_many needs at least one size")
        return [self.optimize(n) for n in sizes]

    def best(self, n: int) -> RankedEstimate:
        return self.optimize(n).best


def actual_best(
    measured: Sequence[Tuple[ClusterConfig, float]],
) -> Tuple[ClusterConfig, float]:
    """The measured-optimal configuration among (config, seconds) pairs —
    the ground truth the paper's Tables 4/7/9 compare against."""
    if not measured:
        raise SearchError("no measurements to choose from")
    best_config, best_time = min(measured, key=lambda item: (item[1], item[0].key()))
    return best_config, best_time
