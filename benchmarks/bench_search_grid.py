"""Grid-kernel bench: candidate-axis vectorization across the search layer.

The 4-kind synthetic instance (28 560 candidates, the same instance
``bench_search_backends`` uses for its exact-search gate) pits each
backend's vectorized objective against its scalar reference — the
identical backend searching ``grid_from_scalar(synthetic_estimator(...))``,
one Python call per cell, so both sides run the same control flow and
produce bitwise-equal outcomes (asserted before any timing is trusted).

Gates (from the ISSUE):

* **exhaustive, full space**: ranking all 28 560 candidates through the
  vectorized objective is **>= 10x** faster than through the per-cell
  scalar reference;
* **beam/anneal frontier rounds**: evaluating a round's deduplicated
  neighbor frontier as one block is **>= 3x** faster than evaluating it
  state by state.

Alongside the rendered tables this bench writes machine-readable numbers
to ``benchmarks/results/search_grid.json`` so tooling can trend the
speedups without parsing text.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.analysis.tables import render_table
from repro.core.search import (
    create_search,
    grid_from_scalar,
    synthetic_estimator,
    synthetic_kind_params,
    synthetic_problem,
)

RESULTS_DIR = Path(__file__).parent / "results"

N = 4000
EXHAUSTIVE_GATE = 10.0
FRONTIER_GATE = 3.0
JSON_PATH = RESULTS_DIR / "search_grid.json"


def _problem():
    return synthetic_problem(n_kinds=4, pes_per_kind=4, max_procs=3)


def _estimator():
    return synthetic_estimator(synthetic_kind_params(4))


def _scalar_problem(problem):
    return dataclasses.replace(problem, objective=grid_from_scalar(_estimator()))


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _merge_json(update: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data.update(update)
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_exhaustive_full_space_gate(benchmark, write_result):
    problem = _problem()
    grid = create_search("exhaustive", problem)
    scalar = create_search("exhaustive", _scalar_problem(problem))

    # Bitwise equivalence first; a fast wrong answer gates nothing.
    grid_outcome = grid.optimize(N)
    scalar_outcome = scalar.optimize(N)
    assert [(e.config.key(), e.estimate_s) for e in grid_outcome.ranking] == [
        (e.config.key(), e.estimate_s) for e in scalar_outcome.ranking
    ]

    grid_s = _best_of(lambda: grid.optimize(N), 3)
    scalar_s = _best_of(lambda: scalar.optimize(N), 2)
    speedup = scalar_s / grid_s

    candidates = len(grid.candidates)
    write_result(
        "search_grid_exhaustive",
        render_table(
            ["path", "seconds", "candidates/s"],
            [
                ["scalar", f"{scalar_s:.4f}", f"{candidates / scalar_s:,.0f}"],
                ["grid", f"{grid_s:.4f}", f"{candidates / grid_s:,.0f}"],
                ["speedup", f"{speedup:.1f}x", ""],
            ],
            title=(
                f"Exhaustive ranking of {candidates} candidates at N={N} "
                "(4-kind synthetic)"
            ),
        ),
    )
    _merge_json(
        {
            "exhaustive": {
                "candidates": candidates,
                "scalar_seconds": scalar_s,
                "grid_seconds": grid_s,
                "speedup": speedup,
                "gate": EXHAUSTIVE_GATE,
            }
        }
    )

    assert speedup >= EXHAUSTIVE_GATE, (
        f"grid exhaustive speedup {speedup:.1f}x below the "
        f"{EXHAUSTIVE_GATE:.0f}x gate"
    )
    benchmark(lambda: grid.optimize(N))


def _captured_frontiers(problem, tag: str):
    """The deduplicated neighbor frontiers a real run of ``tag`` block-
    evaluates, as config lists (captured by instrumenting ``_prefetch``)."""
    backend = create_search(tag, problem)
    frontiers = []
    original = backend._prefetch

    def capture(frontier, n, stats):
        frontiers.append(list(dict.fromkeys(frontier)))
        return original(frontier, n, stats)

    backend._prefetch = capture
    backend.optimize(N)
    return [
        [backend._to_config(state) for state in frontier]
        for frontier in frontiers
        if len(frontier) >= 4
    ]


def test_frontier_round_gate(write_result):
    problem = _problem()
    estimator = _estimator()
    objective = problem.objective

    rows = []
    results = {}
    for tag in ("beam", "anneal"):
        frontiers = _captured_frontiers(problem, tag)
        assert frontiers, f"{tag} produced no frontier rounds to measure"

        def scalar_rounds():
            for configs in frontiers:
                for config in configs:
                    estimator(config, N)

        def grid_rounds():
            for configs in frontiers:
                objective(configs, [N])

        scalar_s = _best_of(scalar_rounds, 5)
        grid_s = _best_of(grid_rounds, 5)
        speedup = scalar_s / grid_s
        states = sum(len(f) for f in frontiers)
        rows.append(
            [
                tag,
                len(frontiers),
                states,
                f"{scalar_s * 1e3:.2f}",
                f"{grid_s * 1e3:.2f}",
                f"{speedup:.1f}x",
            ]
        )
        results[tag] = {
            "rounds": len(frontiers),
            "states": states,
            "scalar_seconds": scalar_s,
            "grid_seconds": grid_s,
            "speedup": speedup,
            "gate": FRONTIER_GATE,
        }

    write_result(
        "search_grid_frontiers",
        render_table(
            ["backend", "rounds", "states", "scalar [ms]", "grid [ms]", "speedup"],
            rows,
            title=(
                f"Frontier-round block evaluation at N={N} "
                "(4-kind synthetic)"
            ),
        ),
    )
    _merge_json({"frontier_rounds": results})

    for tag, entry in results.items():
        assert entry["speedup"] >= FRONTIER_GATE, (
            f"{tag} frontier-round speedup {entry['speedup']:.1f}x below "
            f"the {FRONTIER_GATE:.0f}x gate"
        )
