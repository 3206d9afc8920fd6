"""``budget-frontier``: exact Pareto frontiers by branch-and-bound.

The backend extends :class:`~repro.core.search.branch_bound.
BranchBoundSearch`'s tree walk from one objective to two.  At any
interior node the machinery of the time axis is unchanged — the max
profile of the fixed active kinds gives ``t_lb``, a lower bound on every
completion's execution time.  The cost axis gets its own bound from the
billing structure ``dollars = time * rate``: the dollar *rate* ($/s) is
additive over kinds, so

    r_lb = rate(fixed prefix) + sum over suffix kinds of min choice rate
    c_lb = t_lb * r_lb

since every completion satisfies ``time >= t_lb`` and ``rate >= r_lb``.

A subtree is pruned only when some already-evaluated point *strictly*
beats the corner ``(t_lb, c_lb)`` on **both** axes: then every
completion (at ``>= t_lb`` and ``>= c_lb``) is strictly dominated in
both objectives and cannot reach the frontier, not even as an exact tie.
That strictness is what makes the pruned frontier identical — point for
point, bitwise — to :func:`repro.cost.pareto.enumerate_frontier` over
the same space.  In particular no point tied with the minimum time is
ever pruned, so the frontier's fast endpoint stays bitwise-identical to
the exhaustive optimizer's winner.

``max_cost`` additionally prunes every subtree with ``c_lb > max_cost``
(it cannot contain a feasible point) and restricts the frontier and the
ranking to feasible points.  ``budget``/``work_factor`` give the same
anytime semantics as branch-and-bound: the run stops early with
``stats.exhausted=True`` and the frontier is then exact only over the
visited set (``FrontierOutcome.complete=False``).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.search.base import (
    GridEstimator,
    SearchOutcome,
    SearchProblem,
    SearchStats,
    evaluate_grid,
    rank_evaluations,
    validated_estimate,
)
from repro.core.search.bounds import KindTimeBound
from repro.core.search.branch_bound import BranchBoundSearch
from repro.core.search.registry import register_search
from repro.core.search.space import SearchSpace
from repro.cost.model import CostModel, ZERO_COST
from repro.cost.pareto import (
    FrontierOutcome,
    FrontierPoint,
    assemble_frontier,
    build_point,
    select_weighted,
)
from repro.errors import SearchError


@register_search("budget-frontier")
class BudgetFrontierSearch(BranchBoundSearch):
    """Exact (time, dollars) frontier search with two-axis pruning."""

    def __init__(
        self,
        objective: GridEstimator,
        space: SearchSpace,
        bounds: KindTimeBound,
        cost: Optional[CostModel] = None,
        allow_unestimable: bool = True,
        budget: Optional[int] = None,
        work_factor: int = 256,
        max_cost: Optional[float] = None,
        alpha: Optional[float] = None,
    ):
        super().__init__(
            objective,
            space,
            bounds,
            allow_unestimable=allow_unestimable,
            budget=budget,
            work_factor=work_factor,
        )
        if max_cost is not None and (
            not math.isfinite(max_cost) or max_cost < 0
        ):
            raise SearchError(f"max_cost must be finite and >= 0, got {max_cost}")
        if alpha is not None and not (0.0 <= alpha <= 1.0):
            raise SearchError(f"objective weight must be in [0, 1], got {alpha}")
        self.cost = cost if cost is not None else ZERO_COST
        self.max_cost = max_cost
        self.alpha = alpha
        # Dollar rate ($/s) of one (pe, m) choice of each kind, plus the
        # suffix minima that close the cost lower bound (the idle choice
        # makes most suffix minima zero — the bound tightens as the DFS
        # fixes paying kinds into the prefix).
        self._choice_rates: List[Tuple[float, ...]] = []
        for kind, options in zip(space.kinds, space.choices):
            per_second = self.cost.dollars_per_pe_second(kind)
            self._choice_rates.append(
                tuple(pe * per_second for pe, _ in options)
            )
        self._suffix_min_rate = [0.0] * (len(space.kinds) + 1)
        for depth in reversed(range(len(space.kinds))):
            self._suffix_min_rate[depth] = (
                min(self._choice_rates[depth]) + self._suffix_min_rate[depth + 1]
            )

    @classmethod
    def from_problem(
        cls,
        problem: SearchProblem,
        budget: Optional[int] = None,
        work_factor: int = 256,
        max_cost: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> "BudgetFrontierSearch":
        space = problem.resolved_space()
        if problem.candidates is not None and not space.is_exact_cover_of(
            problem.candidates
        ):
            raise SearchError(
                "budget-frontier needs a product-structured candidate set; "
                "use enumerate_frontier for irregular sets"
            )
        if problem.bounds is None:
            raise SearchError(
                "budget-frontier needs a bound oracle "
                "(SearchProblem.bounds); without one it cannot prune"
            )
        return cls(
            problem.objective,
            space,
            problem.bounds,
            cost=problem.cost,
            allow_unestimable=problem.allow_unestimable,
            budget=budget,
            work_factor=work_factor,
            max_cost=max_cost,
            alpha=alpha,
        )

    # -- search -------------------------------------------------------------

    def _search(
        self, n: int
    ) -> Tuple[List[FrontierPoint], List[FrontierPoint], SearchStats, float]:
        """One DFS: every evaluated point, the archive, stats, start time."""
        started = time.perf_counter()
        stats = SearchStats(backend=self.backend_type, budget=self.budget)
        self.stats = stats
        evaluated: List[FrontierPoint] = []
        archive: List[FrontierPoint] = []  # non-dominated among evaluated
        space = self.space
        n_kinds = len(space.kinds)
        assignment: List[Tuple[int, int]] = []
        # Leaf values prefetched through the objective (see
        # BranchBoundSearch.optimize): the leaf branch pops them in its
        # original DFS order, so the two-axis pruning, the archive and
        # the budget replay identically over bitwise-equal values.
        leaf_values: dict = {}
        work_cap = (
            None if self.budget is None else self.budget * self.work_factor
        )

        def admit(point: FrontierPoint) -> None:
            for kept in archive:
                if (
                    kept.time_s <= point.time_s
                    and kept.dollars <= point.dollars
                    and (
                        kept.time_s < point.time_s
                        or kept.dollars < point.dollars
                    )
                ):
                    return
            archive[:] = [
                kept
                for kept in archive
                if not (
                    point.time_s <= kept.time_s
                    and point.dollars <= kept.dollars
                    and (
                        point.time_s < kept.time_s
                        or point.dollars < kept.dollars
                    )
                )
            ]
            archive.append(point)

        def corner_pruned(t_lb: float, c_lb: float) -> bool:
            """True when some evaluated point strictly beats the
            subtree's lower-bound corner on both axes — then every
            completion is strictly dominated, ties included."""
            return any(
                a.time_s < t_lb and a.dollars < c_lb for a in archive
            )

        def walk(
            depth: int,
            p_fixed: int,
            mi_fixed: int,
            rate_fixed: float,
            max_profile: Optional[np.ndarray],
        ) -> bool:
            """Depth-first expansion; returns False once out of budget."""
            if depth == n_kinds:
                if p_fixed == 0:
                    return True  # the all-idle combination is not runnable
                if (
                    self.budget is not None
                    and stats.evaluations >= self.budget
                ):
                    stats.exhausted = True
                    return False
                config = space.config_of(assignment)
                raw = leaf_values.pop(tuple(assignment), None)
                if raw is None:
                    raw = float(evaluate_grid(self.objective, [config], [n])[0, 0])
                value = validated_estimate(
                    raw, config, n, self.allow_unestimable
                )
                stats.record(config, value)
                point = build_point(self.cost, config, n, value)
                evaluated.append(point)
                if math.isfinite(value):
                    admit(point)
                return True

            if work_cap is not None and stats.bound_evaluations >= work_cap:
                stats.exhausted = True
                return False
            children = []
            for index, choice in enumerate(space.choices[depth]):
                pe, m = choice
                if pe > 0:
                    profile = self.bounds.profile(space.kinds[depth], m, n)
                    child_profile = (
                        profile
                        if max_profile is None
                        else np.maximum(max_profile, profile)
                    )
                else:
                    child_profile = max_profile
                child_p = p_fixed + pe * m
                child_mi = max(mi_fixed, m)
                child_rate = rate_fixed + self._choice_rates[depth][index]
                t_lb = self._node_bound(
                    n, depth + 1, child_p, child_mi, child_profile, stats
                )
                if math.isfinite(t_lb):
                    c_lb = t_lb * (
                        child_rate + self._suffix_min_rate[depth + 1]
                    )
                else:
                    c_lb = math.inf
                children.append(
                    (t_lb, choice, c_lb, child_p, child_mi,
                     child_rate, child_profile)
                )
            # Fast subtrees first: early archive points near the frontier's
            # fast end prune more of the slow-and-expensive bulk.
            children.sort(key=lambda item: (item[0], item[1]))
            if depth + 1 == n_kinds:
                # Prefetch the leaf block with the replay loop's own
                # ``continue``-style filters.  ``corner_pruned`` only
                # grows stronger as the archive fills mid-block, so the
                # prefetch-time check keeps a superset of the leaves the
                # replay will evaluate; unconsumed cells are discarded.
                remaining = (
                    None
                    if self.budget is None
                    else self.budget - stats.evaluations
                )
                block: List[Tuple[Tuple[int, int], ...]] = []
                for t_lb, choice, c_lb, child_p, _, _, _ in children:
                    if child_p == 0:
                        continue
                    if self.max_cost is not None and c_lb > self.max_cost:
                        continue
                    if corner_pruned(t_lb, c_lb):
                        continue
                    if remaining is not None and len(block) >= remaining:
                        break
                    block.append(tuple(assignment) + (choice,))
                if len(block) > 1:
                    configs = [space.config_of(key) for key in block]
                    values = evaluate_grid(self.objective, configs, [n])
                    for key, value in zip(block, values[:, 0]):
                        leaf_values[key] = float(value)
            for (t_lb, choice, c_lb, child_p, child_mi,
                 child_rate, child_profile) in children:
                # Unlike the one-axis walk, a pruned child does not prune
                # its later siblings: pruning needs domination on both
                # axes and the children are ordered on time alone.
                if self.max_cost is not None and c_lb > self.max_cost:
                    stats.prune(self._subtree_leaves(depth + 1, child_p))
                    continue
                if corner_pruned(t_lb, c_lb):
                    stats.prune(self._subtree_leaves(depth + 1, child_p))
                    continue
                assignment.append(choice)
                alive = walk(
                    depth + 1, child_p, child_mi, child_rate, child_profile
                )
                assignment.pop()
                if not alive:
                    return False
            return True

        walk(0, 0, 0, 0.0, None)
        return evaluated, archive, stats, started

    def frontier(self, n: int) -> FrontierOutcome:
        """The exact (time, dollars) frontier at problem order ``n``."""
        evaluated, _, stats, started = self._search(n)
        return assemble_frontier(
            n,
            evaluated,
            started,
            stats=stats,
            complete=not stats.exhausted,
            max_cost=self.max_cost,
        )

    def optimize(self, n: int) -> SearchOutcome:
        """Scalarized view of the frontier as a standard outcome.

        Without ``alpha``: minimum time subject to ``max_cost`` (the
        plain minimum-time problem when no budget is set — bitwise the
        exhaustive winner).  With ``alpha``: the weighted frontier point,
        ranked first; ``estimate_s`` stays honest wall time either way.
        """
        evaluated, _, stats, started = self._search(n)
        feasible = [
            p
            for p in evaluated
            if self.max_cost is None or p.dollars <= self.max_cost
        ]
        if not feasible:
            raise SearchError(
                f"no configuration fits within max_cost="
                f"${self.max_cost:g} at N={n}"
            )
        complete = stats.pruned_candidates == 0 and not stats.exhausted
        if self.alpha is None:
            return rank_evaluations(
                n,
                [(p.config, p.time_s) for p in feasible],
                started,
                stats=stats,
                complete=complete,
            )
        outcome = assemble_frontier(
            n, feasible, started, stats=stats,
            complete=not stats.exhausted, max_cost=self.max_cost,
        )
        chosen = select_weighted(outcome.points, self.alpha)
        rest = [p for p in outcome.points if p is not chosen]
        ranked = rank_evaluations(
            n,
            [(chosen.config, chosen.time_s)]
            + [(p.config, p.time_s) for p in rest],
            started,
            stats=stats,
            complete=False,
        )
        # rank_evaluations re-sorts by time; rebuild the ranking with the
        # scalarization winner first, keeping the rest time-ordered.
        head = next(
            entry
            for entry in ranked.ranking
            if entry.config.key() == chosen.config.key()
        )
        ranked.ranking = [head] + [
            entry for entry in ranked.ranking if entry is not head
        ]
        return ranked

    def frontier_many(self, ns: Sequence[int]) -> List[FrontierOutcome]:
        sizes = [int(n) for n in ns]
        if not sizes:
            raise SearchError("frontier_many needs at least one size")
        return [self.frontier(n) for n in sizes]
