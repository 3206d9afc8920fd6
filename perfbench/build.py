"""The ``build`` workload: a closed loop of model-construction rounds.

Each round builds the ``{hpl, sorting, montecarlo} x {basic, ns}``
pipelines on the paper's cluster (seed = workload seed + round number),
pulling the stages in production demand order -- campaign, fit, compose,
adjust, search -- then runs ``optimize_many`` over the evaluation sizes
and ``save_pipeline`` to a directory.  This is what ``repro optimize``,
``repro save``, a calibration refit and a fleet cold start pay.

Nothing pulls the ``evaluation`` or ``verify`` stages before ``adjust``;
accuracy and the reload check run after each round's clock has stopped.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    PYTHON, HostSpeed, Tracer, speed_figures, timed_process,
)

FAMILIES = ("hpl", "sorting", "montecarlo")
PROTOCOLS = ("basic", "ns")
#: Seed offset of the setup round, kept apart from every timed round.
WARMUP_SEED_OFFSET = 100_000
#: Share of ``--seconds`` spent in timed rounds (at least three rounds).
ROUNDS_SHARE = 0.55
#: Fresh ``repro optimize`` processes timed after each round.
COLD_PER_ROUND = 2
#: Fresh-interpreter set-ups timed, one after each of the first rounds.
SETUP_SAMPLES = 5
COLD_ARGV = (PYTHON, "-m", "repro", "optimize", "--n", "6400", "--top", "3")
#: Stage names whose artifacts are the pipeline's models, not measurements.
MODEL_STAGES = ("fit", "compose", "adjust", "estimator", "search")


def measurement_runs(pipeline, artifact_names) -> int:
    """Simulated runs held by the measurement artifacts ``artifact_names``."""
    runs = 0
    for name in artifact_names:
        artifact = pipeline.graph.get(name)  # already built: no new work
        dataset = getattr(artifact, "dataset", artifact)
        try:
            runs += len(dataset)
        except TypeError:
            pass
    return runs


def construct(spec, workload: str, protocol: str, seed: int, tracer: Tracer):
    """Campaign, fit, compose and adjust one pipeline, in production
    demand order, with a span around each stage pull."""
    from repro.core.pipeline import EstimationPipeline, PipelineConfig

    pipeline = EstimationPipeline(
        spec, PipelineConfig(protocol=protocol, seed=seed, workload=workload)
    )
    graph = pipeline.graph
    with tracer.span("measure.campaign"):
        campaign = graph.get("campaign")
    tracer.count("measure.runs", len(campaign.dataset))
    with tracer.span("core.fit"):
        graph.get("fit")
        graph.get("compose")
    before = {name: pipeline.perf.stage_calls(name) for name in pipeline.perf.stages()}
    with tracer.span("core.adjust"):
        graph.get("adjust")
    if tracer.enabled:
        caused = [
            name for name in pipeline.perf.stages()
            if name not in MODEL_STAGES
            and pipeline.perf.stage_calls(name) > before.get(name, 0)
        ]
        tracer.count("core.adjust.runs", measurement_runs(pipeline, caused))
    return pipeline


def save(pipeline, out: Path, tracer: Tracer) -> None:
    """``save_pipeline`` without the ground truth, which a served or
    optimized pipeline never needs (saving it would pull ``evaluation``)."""
    from repro.core.persistence import save_pipeline

    with tracer.span("core.persistence.save"):
        save_pipeline(pipeline, out, include_evaluation=False)


def build_one(spec, workload: str, protocol: str, seed: int, out: Path, tracer: Tracer):
    """Construct, search and save one pipeline; returns (pipeline, outcomes)."""
    pipeline = construct(spec, workload, protocol, seed, tracer)
    sizes = list(pipeline.plan.evaluation_sizes)
    with tracer.span("core.search"):
        pipeline.graph.get("search")
        outcomes = pipeline.optimize_many(sizes)
    if tracer.enabled:
        tracer.count(
            "core.search.evaluations",
            sum(o.stats.evaluations for o in outcomes if o.stats is not None),
        )
        grid = pipeline.perf.grid
        tracer.count("core.grid.cells", grid.cells if grid is not None else 0)
    save(pipeline, out, tracer)
    return pipeline, outcomes


def winners(pipeline, outcomes) -> List[Tuple[int, Tuple[int, ...], float]]:
    kinds = pipeline.plan.kinds
    return [
        (o.n, tuple(o.best.config.as_flat_tuple(kinds)), o.best.estimate_s)
        for o in outcomes
    ]


def accuracy(pipeline, outcomes) -> Tuple[float, float]:
    """(mean |estimate - measured| / measured over the evaluation grid,
    mean loss of the optimizer's pick against the actual best), both in %.
    Pulls the ground truth, so it only ever runs after timing."""
    configs = list(pipeline.plan.evaluation_configs)
    sizes = list(pipeline.plan.evaluation_sizes)
    grid = pipeline.estimate_grid(configs, sizes)
    errors = []
    for i, config in enumerate(configs):
        for j, n in enumerate(sizes):
            measured = pipeline.measured_time(config, n)
            errors.append(abs(float(grid[i, j]) - measured) / measured)
    losses = []
    for outcome in outcomes:
        _, best = pipeline.actual_best(outcome.n)
        losses.append(pipeline.measured_time(outcome.best.config, outcome.n) / best - 1)
    return 100 * statistics.fmean(errors), 100 * statistics.fmean(losses)


@dataclass
class RoundLog:
    #: Build time (s) of each round's six pipelines, as measured.
    round_s: List[float] = field(default_factory=list)
    #: Build time (ms) of each (workload, protocol) pipeline, per round,
    #: as (measured, at nominal host speed).
    pipeline_ms: Dict[Tuple[str, str], List[Tuple[float, float]]] = field(
        default_factory=dict)
    #: Per round: build ms until half its pipelines were saved, as
    #: (measured, at nominal host speed).
    half_done_ms: List[Tuple[float, float]] = field(default_factory=list)
    est_err: List[float] = field(default_factory=list)
    pick_loss: List[float] = field(default_factory=list)
    pipelines: int = 0
    failures: List[str] = field(default_factory=list)
    #: The latest round's pipelines (kept for the traced run's probes).
    last_round: list = field(default_factory=list)


def run_round(
    spec, seed: int, directory: Path, tracer: Tracer, speed: HostSpeed, log: RoundLog
) -> None:
    """One timed round, each pipeline timed between host-speed samples,
    then the round's untimed accuracy and reload checks."""
    from repro.core.persistence import load_pipeline

    built = []
    done = [(0.0, 0.0)]
    for workload in FAMILIES:
        for protocol in PROTOCOLS:
            out = directory / f"{workload}-{protocol}"

            def traced_build():
                with tracer.span("pipeline"):
                    return build_one(spec, workload, protocol, seed, out, tracer)

            (pipeline, outcomes), raw_s, nominal_s = speed.timed(traced_build)
            log.pipeline_ms.setdefault((workload, protocol), []).append(
                (raw_s * 1e3, nominal_s * 1e3))
            done.append((done[-1][0] + raw_s * 1e3, done[-1][1] + nominal_s * 1e3))
            built.append((workload, protocol, out, pipeline, outcomes))
    log.round_s.append(done[-1][0] / 1e3)
    log.half_done_ms.append((statistics.median(d[0] for d in done[1:]),
                             statistics.median(d[1] for d in done[1:])))
    log.pipelines += len(built)
    log.last_round = [pipeline for _, _, _, pipeline, _ in built]

    errs, losses = [], []
    for workload, protocol, out, pipeline, outcomes in built:
        with tracer.span("core.persistence.load"):
            reloaded = load_pipeline(out)
        expected = winners(pipeline, outcomes)
        again = winners(reloaded, reloaded.optimize_many([n for n, _, _ in expected]))
        if reloaded.estimate_cache.fingerprint != pipeline.estimate_cache.fingerprint:
            log.failures.append(f"{workload}/{protocol} seed {seed}: fingerprint changed on reload")
        elif again != expected:
            log.failures.append(f"{workload}/{protocol} seed {seed}: winners changed on reload")
        if protocol == "basic":
            err, loss = accuracy(pipeline, outcomes)
            errs.append(err)
            losses.append(loss)
    log.est_err.append(statistics.fmean(errs))
    log.pick_loss.append(statistics.fmean(losses))


def setup_round(spec, seed: int, directory: Path, speed: HostSpeed) -> Tuple[float, float]:
    """The untraced warm-up round that fills process-wide memos; returns
    its time (s) as measured and at nominal host speed, each pipeline
    timed between host-speed samples."""
    raw = nominal = 0.0
    for workload in FAMILIES:
        for protocol in PROTOCOLS:
            _, seconds, at_nominal = speed.timed(lambda: build_one(
                spec, workload, protocol, seed + WARMUP_SEED_OFFSET,
                directory / f"warmup-{workload}-{protocol}", Tracer(False),
            ))
            raw += seconds
            nominal += at_nominal
    return raw, nominal


def setup_child(seed: int) -> Tuple[float, float]:
    """Set-up in a fresh interpreter: ``import repro.cli`` plus the
    warm-up round, as measured and at nominal host speed (s).  The child
    times itself, piece by piece, so interpreter start-up and its
    host-speed samples are excluded."""
    import subprocess

    from common import ROOT, child_env

    completed = subprocess.run(
        [PYTHON, str(Path(__file__).resolve()), str(seed)],
        env=child_env(), cwd=ROOT, capture_output=True, timeout=120,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "set-up child failed: " + completed.stderr.decode(errors="replace")[-2000:]
        )
    raw, nominal = completed.stdout.decode().strip().splitlines()[-1].split()
    return float(raw), float(nominal)


def run(seed: int, seconds: float, tracer: Tracer, directory: Path):
    """Returns the workload's report (see ``run.py``)."""
    from repro.cluster.presets import kishimoto_cluster

    from common import peak_rss_mb
    import probes

    spec = kishimoto_cluster()
    # This process warms up too, but set-up is timed in fresh interpreters
    # only, one after each of the first rounds, so its samples spread over
    # the run like the cold starts.
    setup_round(spec, seed, directory, HostSpeed())
    log = RoundLog()
    speed = HostSpeed()
    timed_budget = ROUNDS_SHARE * seconds
    cold: List[Tuple[float, float]] = []
    setups: List[Tuple[float, float]] = []
    round_index = 0
    while (round_index < 3 or sum(log.round_s) < timed_budget
           or len(setups) < SETUP_SAMPLES):
        run_round(spec, seed + round_index, directory / f"r{round_index}", tracer,
                  speed, log)
        cold += [speed.around(lambda: timed_process(COLD_ARGV)) for _ in range(COLD_PER_ROUND)]
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_child(seed))
        round_index += 1
    rss = peak_rss_mb()

    rounds = len(log.round_s)
    kind_ms = log.pipeline_ms

    def figure(summarize, unit):
        """(as measured, at nominal speed, unit) from one summary of each."""
        return summarize(0), summarize(1), unit

    def per_kind(i):
        # Medians per pipeline kind, so that one slow round moves nothing.
        return [statistics.median(s[i] for s in v) for v in kind_ms.values()]

    e2e, speed_note = speed_figures({
        "setup_s": figure(lambda i: statistics.median(s[i] for s in setups), "s"),
        "throughput_per_s": figure(lambda i: 1e3 * len(kind_ms) / sum(per_kind(i)), "1/s"),
        "cold_start_s": figure(lambda i: statistics.median(c[i] for c in cold), "s"),
        # Every kind counts alike, whatever its size.
        "p50_ms.low": figure(lambda i: statistics.geometric_mean(per_kind(i)), "ms"),
        "p50_ms.burst": figure(
            lambda i: statistics.median(h[i] for h in log.half_done_ms), "ms"),
    }, speed)
    e2e["peak_rss_mb"] = (rss, "MB")
    layers: Dict[str, Tuple[float, str]] = {}
    if tracer.enabled:
        per_round = lambda name: tracer.total(name) / rounds  # noqa: E731
        layers.update({
            "measure.campaign_s": (per_round("measure.campaign"), "s"),
            "measure.runs": (tracer.counts.get("measure.runs", 0) / rounds, "count"),
            "core.adjust_s": (per_round("core.adjust"), "s"),
            "core.adjust.runs": (tracer.counts.get("core.adjust.runs", 0) / rounds, "count"),
            "core.fit_s": (per_round("core.fit"), "s"),
            "core.search_s": (per_round("core.search"), "s"),
            "core.search.evaluations": (
                tracer.counts.get("core.search.evaluations", 0) / rounds, "count"),
            "core.grid.cells": (tracer.counts.get("core.grid.cells", 0) / rounds, "count"),
            "core.persistence.save_s": (per_round("core.persistence.save"), "s"),
            "core.persistence.load_s": (per_round("core.persistence.load"), "s"),
            "pipeline.self_s": (tracer.self_times().get("pipeline", 0.0) / rounds, "s"),
        })
        basics = [p for p in log.last_round if p.config.protocol == "basic"]
        layers.update(probes.model_probes(
            basics, seed, len(basics[0].plan.evaluation_sizes),
            {n for p in basics for n in p.plan.evaluation_sizes}))
        layers["workloads.run_us"] = probes.run_us(spec, seed)
        layers["cli.import_s"] = probes.cli_import_s()
    layers["accuracy.est_err_pct"] = (statistics.fmean(log.est_err), "%")
    layers["accuracy.pick_loss_pct"] = (statistics.fmean(log.pick_loss), "%")
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": log.pipelines,
        "failed": len(log.failures),
        "failures": log.failures,
        "notes": [
            f"rounds: {rounds} x {len(FAMILIES) * len(PROTOCOLS)} pipelines, "
            f"{log.pipelines / sum(log.round_s):.4f} pipelines/s total over total, "
            "as measured",
            speed_note,
            "median build ms per pipeline, as measured / at nominal speed: " + ", ".join(
                f"{w}/{p} {statistics.median(s[0] for s in v):.1f}"
                f"/{statistics.median(s[1] for s in v):.1f}"
                for (w, p), v in kind_ms.items()),
            "cold_optimize_s samples, as measured: "
            + ", ".join(f"{c:.3f}" for c, _ in cold),
            "setup_s samples, as measured: " + ", ".join(f"{s:.3f}" for s, _ in setups),
            f"est_err_pct per round: {', '.join(f'{v:.3f}' for v in log.est_err)}",
            f"pick_loss_pct per round: {', '.join(f'{v:.3f}' for v in log.pick_loss)}",
        ],
    }


if __name__ == "__main__":
    # Set-up child (see ``setup_child``): python3 perfbench/build.py SEED
    import sys

    from common import work_dir

    def load_program():
        import repro.cli  # noqa: F401  (the import the user pays first)
        from repro.cluster.presets import kishimoto_cluster

        return kishimoto_cluster()

    child_speed = HostSpeed()
    cluster, import_s, import_nominal_s = child_speed.timed(load_program)
    with work_dir("setup-child") as scratch:
        round_s, round_nominal_s = setup_round(cluster, int(sys.argv[1]), scratch, child_speed)
    print(import_s + round_s, import_nominal_s + round_nominal_s)
