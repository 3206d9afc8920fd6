#!/usr/bin/env python
"""Grid-kernel smoke check: scalar vs grid, bitwise, on every backend.

CI guard for the candidate-axis vectorized estimation kernel
(:mod:`repro.core.grid_kernel`).  It fits the paper's NS pipeline, then
runs **every** registered search backend twice over the 62-candidate
evaluation grid at every evaluation size — once on the kernel objective
(the default) and once on the scalar reference, the pipeline's
``estimate(config, n).total`` lifted cell by cell with
``grid_from_scalar`` — and asserts the outcomes are **bitwise
identical**: same ranking keys,
same float estimates (``==``, no tolerances), same evaluation counts,
same dedup hits, same budget-exhaustion flags.  A budgeted pass repeats
the comparison where the budget runs out mid-frontier.  Finally
``estimate_grid`` itself is swept cell-by-cell against
``estimate(config, n).total``, on the NS pipeline and on an NL pipeline
with two memory bins (which the kernel must evaluate in its own block).

Exit status is non-zero on any failure.  Run it as::

    PYTHONPATH=src python tools/search_grid_smoke.py
"""

from __future__ import annotations

import sys

from repro.core.binning import MemoryBin
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import grid_from_scalar, registered_search_backends

SEED = 7
SMOKE_BUDGETS = (3, 17)
MEMORY_BINS = (
    MemoryBin(max_ratio=0.5, label="fits"),
    MemoryBin(max_ratio=2.0, ta_scale=1.4, tc_scale=1.1, label="pages"),
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def strip_grid(backend, pipeline):
    """The scalar reference: the same backend searching the pipeline's
    scalar estimates, lifted cell by cell, instead of the kernel."""
    backend.objective = grid_from_scalar(
        lambda config, n: pipeline.estimate(config, n).total
    )
    return backend


def outcome_sig(outcome):
    return (
        outcome.n,
        [(e.config.key(), e.estimate_s) for e in outcome.ranking],
        outcome.stats.evaluations,
        outcome.stats.dedup_hits,
        outcome.stats.exhausted,
        outcome.complete,
    )


def check_backend(pipeline, tag: str, sizes, budget=None) -> int:
    compared = 0
    for n in sizes:
        try:
            grid = pipeline.optimizer(backend=tag, budget=budget).optimize(n)
        except Exception as error:
            if budget is not None:
                # Some backends reject budgets outright; that is their
                # scalar behavior too, nothing to compare.
                try:
                    strip_grid(
                        pipeline.optimizer(backend=tag, budget=budget), pipeline
                    ).optimize(n)
                except Exception as scalar_error:
                    if str(error) == str(scalar_error):
                        return 0
                fail(f"{tag} budget={budget}: grid raised {error!r}")
            raise
        scalar = strip_grid(
            pipeline.optimizer(backend=tag, budget=budget), pipeline
        ).optimize(n)
        if outcome_sig(grid) != outcome_sig(scalar):
            fail(
                f"{tag} diverges from scalar at N={n}"
                + (f" budget={budget}" if budget is not None else "")
            )
        compared += 1
    return compared


def check_estimate_grid(pipeline, name: str) -> None:
    sizes = list(pipeline.plan.evaluation_sizes)
    configs = pipeline.plan.evaluation_configs
    grid = pipeline.estimate_grid(configs, sizes)
    for i, config in enumerate(configs):
        for j, n in enumerate(sizes):
            expected = pipeline.estimate(config, n).total
            got = float(grid[i, j])
            if got != expected and not (got == float("inf") == expected):
                fail(
                    f"{name} estimate_grid[{config.label()}, N={n}] = {got!r} "
                    f"!= scalar {expected!r}"
                )
    stats = pipeline.perf.grid
    if stats is None or stats.blocks == 0:
        fail(f"{name}: the grid kernel recorded no block")
    print(
        f"{name} estimate_grid: {len(configs)}x{len(sizes)} cells "
        "bitwise-equal to the scalar estimator"
    )


def main() -> None:
    pipeline = _build_pipeline()
    sizes = list(pipeline.plan.evaluation_sizes)
    check_estimate_grid(pipeline, "ns")
    check_estimate_grid(_build_pipeline("nl", MEMORY_BINS), "nl+memory-bins")

    for tag in registered_search_backends():
        compared = check_backend(pipeline, tag, sizes)
        line = f"{tag}: {compared} sizes bitwise-equal"
        budget_runs = 0
        for budget in SMOKE_BUDGETS:
            budget_runs += check_backend(pipeline, tag, sizes[:2], budget=budget)
        if budget_runs:
            line += f", {budget_runs} budgeted runs bitwise-equal"
        print(line)

    stats = pipeline.perf.grid
    if stats is None or stats.blocks == 0:
        fail("the grid kernel was never exercised (no blocks recorded)")
    print(f"grid kernel: {stats.describe()}")
    print("search grid smoke: OK")


def _build_pipeline(protocol: str = "ns", memory_bins=()) -> EstimationPipeline:
    from repro.cluster.presets import kishimoto_cluster

    return EstimationPipeline(
        kishimoto_cluster(),
        PipelineConfig(protocol=protocol, seed=SEED, memory_bins=memory_bins),
    )


if __name__ == "__main__":
    main()
