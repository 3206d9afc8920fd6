"""Extension bench: heuristic search vs exhaustive enumeration.

The paper's Section 5: "for larger clusters, it is essential to find a
way to reduce the search space.  Approximation algorithms (i.e.,
heuristics) are also worth considering."  We quantify this on the paper's
own cluster (342 configurations with M <= 6) and on a synthetic five-kind
cluster (16k+ configurations), using the fitted NL estimator as the
objective.
"""

from repro.analysis.tables import render_table
from repro.core.search import (
    ExhaustiveOptimizer,
    GreedyGrowth,
    SearchSpace,
    SimulatedAnnealing,
    full_candidate_space,
)


def test_heuristics_vs_exhaustive_paper_cluster(
    benchmark, spec, nl_pipeline, write_result
):
    objective = nl_pipeline.estimate_grid
    n = 8000
    space = full_candidate_space(spec, max_procs=6)
    exhaustive = ExhaustiveOptimizer(objective, space).optimize(n)

    lattice = SearchSpace.from_spec(spec, max_procs=6)
    greedy = GreedyGrowth(lattice, objective).search(n)
    annealing = SimulatedAnnealing(lattice, objective).search(n, steps=300, seed=1)

    kinds = nl_pipeline.plan.kinds
    rows = [
        [
            "exhaustive",
            len(space),
            exhaustive.best.config.label(kinds),
            f"{exhaustive.best.estimate_s:.1f}",
        ],
        [
            "greedy growth",
            greedy.evaluations,
            greedy.best_config.label(kinds),
            f"{greedy.best_estimate:.1f}",
        ],
        [
            "simulated annealing",
            annealing.evaluations,
            annealing.best_config.label(kinds),
            f"{annealing.best_estimate:.1f}",
        ],
    ]
    write_result(
        "heuristics_paper_cluster",
        render_table(
            ["method", "evaluations", "best config", "estimate [s]"],
            rows,
            title=f"Search-space reduction at N={n} (paper cluster, 342 candidates)",
        ),
    )

    # heuristics must come within 5% of the exhaustive optimum at a
    # fraction of the evaluations
    assert greedy.best_estimate <= exhaustive.best.estimate_s * 1.05
    assert annealing.best_estimate <= exhaustive.best.estimate_s * 1.05
    assert greedy.evaluations < len(space) / 3

    benchmark(lambda: GreedyGrowth(lattice, objective).search(n))
