"""In-process probes for the traced run: one layer's call at a time,
timed around the program's public API with nothing else running."""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Optional, Sequence, Set, Tuple

from common import PYTHON


def _median_us(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e6


def _fresh_sizes(pipeline, taken: Set[int]):
    """Problem orders inside the pipeline's evaluation range that no
    earlier call asked for, so every probe misses its estimate cache."""
    sizes = list(pipeline.plan.evaluation_sizes)
    for n in range(min(sizes) + 1, max(sizes)):
        if n not in taken:
            taken.add(n)
            yield n


def model_probes(pipelines, seed: int, batch: int, taken: Set[int]):
    """Uncached single-cell ``estimate_totals`` and per-size
    ``optimize_many`` cost, single and at ``batch`` sizes per call.
    ``taken`` holds the orders already asked of these pipelines."""
    rng = random.Random(seed)
    fresh = {id(p): _fresh_sizes(p, set(taken)) for p in pipelines}
    estimate: List[float] = []
    for _ in range(300):
        pipeline = pipelines[rng.randrange(len(pipelines))]
        config = rng.choice(list(pipeline.plan.evaluation_configs))
        n = next(fresh[id(pipeline)])
        began = time.perf_counter()
        pipeline.estimate_totals(config, [n])
        estimate.append(time.perf_counter() - began)
    single: List[float] = []
    batched: List[float] = []
    for _ in range(10):
        for pipeline in pipelines:
            n = next(fresh[id(pipeline)])
            began = time.perf_counter()
            pipeline.optimize_many([n])
            single.append(time.perf_counter() - began)
            sizes = [next(fresh[id(pipeline)]) for _ in range(batch)]
            began = time.perf_counter()
            pipeline.optimize_many(sizes)
            batched.append((time.perf_counter() - began) / batch)
    return {
        "core.estimate_us": (_median_us(estimate), "us"),
        "core.optimize_us.single": (_median_us(single), "us"),
        "core.optimize_us.batched": (_median_us(batched), "us"),
    }


def codec_probes(replies: Sequence[Optional[bytes]], requests: Sequence[bytes]):
    """Wire decode of request lines and encode of reply bodies (µs/call)."""
    import json

    from repro.serve.protocol import encode_ok, parse_request

    bodies = [json.loads(line) for line in replies if line is not None][:2000]
    parse = []
    for line in [line.decode() for line in requests][:2000]:
        began = time.perf_counter()
        parse_request(line)
        parse.append(time.perf_counter() - began)
    encode = []
    for body in bodies:
        began = time.perf_counter()
        encode_ok(body["id"], body["result"])
        encode.append(time.perf_counter() - began)
    return {
        "serve.protocol.parse_us": (_median_us(parse), "us"),
        "serve.protocol.encode_us": (_median_us(encode), "us"),
    }


def run_us(spec, seed: int) -> Tuple[float, str]:
    """One simulated run per family's batch runner (µs per run)."""
    from repro.hpl.driver import NoiseSpec
    from repro.workloads import create_workload

    samples = []
    for family in ("hpl", "sorting", "montecarlo"):
        workload = create_workload(family)
        plan = workload.plan("basic")
        runner = workload.batch_runner()
        sizes = list(plan.evaluation_sizes)
        for config in list(plan.evaluation_configs)[:12]:
            began = time.perf_counter()
            runner(spec, config, sizes, noise=NoiseSpec(), seed=seed + 70_000)
            samples.append((time.perf_counter() - began) / len(sizes))
    return _median_us(samples), "us"


def cli_import_s(reps: int = 3) -> Tuple[float, str]:
    """``import repro.cli`` in a fresh interpreter (the child times itself,
    so interpreter start-up is excluded)."""
    import subprocess

    from common import ROOT, child_env

    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(reps):
        completed = subprocess.run(
            [PYTHON, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, timeout=60, check=True,
        )
        samples.append(float(completed.stdout.decode().strip()))
    return statistics.median(samples), "s"
