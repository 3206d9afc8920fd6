"""The paper's flat enumeration as a registered search backend.

Section 3.1 frames configuration selection as combinatorial optimization
with the model as the objective function; Section 4 reports the
enumeration takes ~35 ms for 62 candidates x 5 sizes.
:class:`ExhaustiveOptimizer` is that search, over any grid objective —
the pipeline's model-based :meth:`estimate_grid` in production, plain
functions lifted by :func:`~repro.core.search.base.grid_from_scalar` in
tests — and the heuristic searchers compare themselves against it.  It
remains the reference every other backend must match (exact backends
bitwise, heuristics within tolerance).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.search.base import (
    GridEstimator,
    RankedEstimate,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    evaluate_grid,
    rank_evaluations,
    validated_estimates,
)
from repro.core.search.registry import register_search
from repro.errors import SearchError


@register_search("exhaustive")
class ExhaustiveOptimizer(SearchBackend):
    """Estimate every candidate and rank them.

    Parameters
    ----------
    objective:
        Grid objective ``(configs, sizes) -> (C, S) array``.  Both
        :meth:`optimize` and :meth:`optimize_many` evaluate the entire
        candidate block in one call and rank the columns with a
        vectorized ``(estimate, key)`` lexsort (the precomputed key ranks
        make the lexsort tie-break identical to sorting on the canonical
        keys themselves).
    candidates:
        The configuration space (the paper's 62 evaluation configurations,
        or anything else).
    allow_unestimable:
        ``+inf`` is the pipeline estimator's sanctioned "model outside its
        domain" signal, and by default such candidates simply rank last
        (raising only when *no* candidate is finite).  An estimator that
        is supposed to cover every candidate — a plain function in a
        heuristic-search comparison, say — can pass ``False`` to turn any
        ``+inf`` into an immediate :class:`SearchError` instead of a
        silently deprioritized candidate.  NaN and negative values
        (including ``-inf``) always raise.
    """

    def __init__(
        self,
        objective: GridEstimator,
        candidates: Sequence[ClusterConfig],
        allow_unestimable: bool = True,
    ):
        if not candidates:
            raise SearchError("empty candidate set")
        self.objective = objective
        self.candidates = list(candidates)
        self.allow_unestimable = allow_unestimable
        # Sort keys are recomputed on every optimize(); cache them once.
        self._candidate_keys = [config.key() for config in self.candidates]
        self._key_rank_cache: Optional[np.ndarray] = None
        self.stats = None

    @classmethod
    def from_problem(
        cls, problem: SearchProblem, budget: Optional[int] = None
    ) -> "ExhaustiveOptimizer":
        if budget is not None:
            raise SearchError(
                "the exhaustive backend enumerates the full space and does "
                "not support an evaluation budget (pick 'branch-bound' or "
                "'beam' for budgeted search)"
            )
        return cls(
            problem.objective,
            problem.resolved_candidates(),
            allow_unestimable=problem.allow_unestimable,
        )

    def _outcome(
        self, n: int, ranking: List[RankedEstimate], started: float
    ) -> SearchOutcome:
        if not np.isfinite(ranking[0].estimate_s):
            raise SearchError(
                f"no candidate could be estimated at N={n} "
                "(all models out of domain)"
            )
        stats = SearchStats(
            backend=self.backend_type,
            evaluations=len(self.candidates),
            best_config=ranking[0].config,
            best_estimate=ranking[0].estimate_s,
        )
        self.stats = stats
        return SearchOutcome(
            n=n,
            ranking=ranking,
            search_seconds=time.perf_counter() - started,
            stats=stats,
            complete=True,
        )

    @property
    def _key_ranks(self) -> np.ndarray:
        """Ordinal of each candidate's canonical key in sorted-key order.

        Sorting by ``(estimate, key_rank)`` equals sorting by
        ``(estimate, key)``: the ranks are a strictly monotone relabeling
        of the keys (equal keys get distinct ranks in original-index
        order, which is exactly the stable-sort tie-break of
        :func:`rank_evaluations`)."""
        if self._key_rank_cache is None:
            order = sorted(
                range(len(self._candidate_keys)),
                key=lambda i: self._candidate_keys[i],
            )
            ranks = np.empty(len(order), dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.arange(
                len(order), dtype=np.int64
            )
            self._key_rank_cache = ranks
        return self._key_rank_cache

    def _rank_grid(
        self, n: int, values: np.ndarray, started: float
    ) -> SearchOutcome:
        """``np.lexsort`` on (estimate, key rank): the ordering of
        :func:`rank_evaluations` without per-candidate tuple comparisons."""
        order = np.lexsort((self._key_ranks, values))
        ranking = [
            RankedEstimate(
                config=self.candidates[i], n=n, estimate_s=float(values[i])
            )
            for i in order
        ]
        return self._outcome(n, ranking, started)

    def optimize(self, n: int) -> SearchOutcome:
        """Rank all candidates for problem order ``n`` (ascending time)."""
        return self.optimize_many([n])[0]

    def optimize_many(self, ns: Sequence[int]) -> List[SearchOutcome]:
        """Rank all candidates for every size in ``ns`` from one
        ``candidates x sizes`` objective call; each outcome's
        ``search_seconds`` is its share of that call plus its own
        ranking cost."""
        sizes = [int(n) for n in ns]
        if not sizes:
            raise SearchError("optimize_many needs at least one size")
        started = time.perf_counter()
        grid = evaluate_grid(self.objective, self.candidates, sizes)
        eval_share = (time.perf_counter() - started) / len(sizes)
        outcomes = []
        for j, n in enumerate(sizes):
            column_started = time.perf_counter()
            values = validated_estimates(
                grid[:, j], self.candidates, n, self.allow_unestimable
            )
            outcome = self._rank_grid(n, values, column_started)
            outcome.search_seconds += eval_share
            outcomes.append(outcome)
        return outcomes


# rank_evaluations is the order-independent ranking the other backends
# use; re-exported here so the two ranking paths are findable side by side.
__all__ = ["ExhaustiveOptimizer", "rank_evaluations"]
