"""Extension bench: cost-aware Pareto frontiers with pruned search.

One instance — **4 kinds x 4 PEs x 3 procs** (28 560 candidates) with the
superlinear synthetic rate card, so time and dollars genuinely conflict
and the frontier has interior points.  The brute-force reference
(:func:`enumerate_frontier`) evaluates every candidate; the
``budget-frontier`` backend prunes subtrees whose best possible
``(time, cost)`` corner is already strictly dominated by the archive.

Gates:

* the pruned frontier is **bitwise** the enumerated one — pruning may
  never change the answer, only its price;
* the pruned search spends **>= 3x** fewer objective evaluations than
  brute force (measured: hundreds-fold on this instance).
"""

from repro.analysis.tables import render_table
from repro.core.search import create_search, synthetic_problem
from repro.cost.pareto import enumerate_frontier
from repro.cost.presets import synthetic_rate_card

N = 3000


def _problem():
    problem = synthetic_problem(n_kinds=4, pes_per_kind=4, max_procs=3)
    problem.cost = synthetic_rate_card(n_kinds=4)
    return problem


def test_pruned_frontier_evaluation_gate(benchmark, write_result):
    problem = _problem()
    brute = enumerate_frontier(
        problem.objective, problem.resolved_candidates(), N, problem.cost
    )
    pruned = create_search("budget-frontier", problem).frontier(N)

    # Exactness first: bitwise the same frontier, point for point.
    assert pruned.complete
    got = [
        (p.config.key(), p.time_s, p.dollars, p.energy_wh)
        for p in pruned.points
    ]
    want = [
        (p.config.key(), p.time_s, p.dollars, p.energy_wh)
        for p in brute.points
    ]
    assert got == want

    rows = [
        [
            "enumerate-frontier",
            brute.stats.evaluations,
            0,
            len(brute.points),
        ],
        [
            "budget-frontier",
            pruned.stats.evaluations,
            pruned.stats.pruned_candidates,
            len(pruned.points),
        ],
    ]
    write_result(
        "pareto_4kind_frontier",
        render_table(
            ["backend", "evaluations", "pruned", "frontier points"],
            rows,
            title=(
                f"Pareto frontier at N={N} "
                f"(4-kind synthetic, {problem.space.size} candidates, "
                f"{brute.stats.evaluations // max(pruned.stats.evaluations, 1)}x "
                "fewer evaluations pruned)"
            ),
        ),
    )

    # The ISSUE gate: >= 3x fewer objective evaluations than brute force.
    assert pruned.stats.evaluations * 3 <= brute.stats.evaluations

    benchmark(lambda: create_search("budget-frontier", _problem()).frontier(N))


def test_max_cost_prunes_harder(write_result):
    problem = _problem()
    unconstrained = create_search("budget-frontier", _problem()).frontier(N)
    cap = unconstrained.points[len(unconstrained.points) // 2].dollars
    capped = create_search("budget-frontier", problem, max_cost=cap).frontier(N)

    assert all(p.dollars <= cap for p in capped.points)
    # The cost bound is an additional pruning axis, never extra work.
    assert capped.stats.evaluations <= unconstrained.stats.evaluations

    write_result(
        "pareto_4kind_max_cost",
        render_table(
            ["run", "evaluations", "frontier points"],
            [
                ["unconstrained", unconstrained.stats.evaluations,
                 len(unconstrained.points)],
                [f"max_cost={cap:.3g}", capped.stats.evaluations,
                 len(capped.points)],
            ],
            title=f"Cost-capped frontier pruning at N={N}",
        ),
    )
