"""Pluggable configuration search (the Search protocol).

The paper enumerates 62 candidates exhaustively; this package keeps that
search as one *backend* among several behind a common protocol:

=============  ==============================================  ========
tag            strategy                                        exact?
=============  ==============================================  ========
exhaustive     evaluate every candidate (the paper's search)   yes
branch-bound   DFS + model-derived subtree lower bounds        yes
beam           deterministic beam + greedy polish              no
greedy         best-improvement growth                         no
hill-climb     first-improvement with restarts                 no
anneal         simulated annealing                             no
=============  ==============================================  ========

Exact backends agree **bitwise** with each other on ``SearchOutcome.best``;
heuristics trade completeness for evaluation count.  ``branch-bound`` and
``beam`` accept an evaluation ``budget`` and return anytime answers with
``stats.exhausted=True`` when it runs out (the local searchers honor a
budget, too).

Every backend evaluates one objective shape, the grid
``(configs, [n...]) -> (C, S)`` seconds (:data:`GridEstimator`); lift a
plain ``(config, n) -> seconds`` function with :func:`grid_from_scalar`.
Construct a backend from a :class:`SearchProblem` with
:func:`create_search`; importing this package registers every built-in
backend.
"""

from repro.core.search.base import (
    GridEstimator,
    RankedEstimate,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    actual_best,
    evaluate_grid,
    grid_from_scalar,
    rank_evaluations,
    validated_estimate,
    validated_estimates,
)
from repro.core.search.bounds import KindTimeBound, estimator_bounds
from repro.core.search.branch_bound import BranchBoundSearch
from repro.core.search.exhaustive import ExhaustiveOptimizer
from repro.core.search.local import (
    BeamSearch,
    GreedyGrowth,
    HillClimber,
    LocalSearchBase,
    SimulatedAnnealing,
    full_candidate_space,
)
from repro.core.search.registry import (
    DEFAULT_BACKEND,
    create_search,
    iter_search_registry,
    register_search,
    registered_search_backends,
    search_backend_class,
)
from repro.core.search.space import SearchSpace
from repro.core.search.synthetic import (
    synthetic_estimator,
    synthetic_kind_params,
    synthetic_kind_time,
    synthetic_problem,
)

__all__ = [
    "BeamSearch",
    "BranchBoundSearch",
    "DEFAULT_BACKEND",
    "ExhaustiveOptimizer",
    "GreedyGrowth",
    "GridEstimator",
    "HillClimber",
    "KindTimeBound",
    "LocalSearchBase",
    "RankedEstimate",
    "SearchBackend",
    "SearchOutcome",
    "SearchProblem",
    "SearchSpace",
    "SearchStats",
    "SimulatedAnnealing",
    "actual_best",
    "create_search",
    "estimator_bounds",
    "evaluate_grid",
    "full_candidate_space",
    "grid_from_scalar",
    "iter_search_registry",
    "rank_evaluations",
    "register_search",
    "registered_search_backends",
    "search_backend_class",
    "synthetic_estimator",
    "synthetic_kind_params",
    "synthetic_kind_time",
    "synthetic_problem",
    "validated_estimate",
    "validated_estimates",
]
