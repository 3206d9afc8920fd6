"""The repository benchmark: one command, every metric, checked answers.

    python3 perfbench/run.py --workload {build,serve_read,serve_observe} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer exits with status 1 (after
printing the result), a broken checkout with status 2 (printing none).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "serve_read", "serve_observe")


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import Tracer, host_stamp, work_dir

    manifest = load_manifest()
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    tracer = Tracer(enabled=bool(args.trace))
    started = time.perf_counter()
    with work_dir(args.workload) as directory:
        if args.workload == "build":
            import build

            report = build.run(args.seed, seconds, tracer, directory)
        else:
            import serve

            report = serve.run(args.workload, args.seed, seconds, tracer, directory)
    wall = time.perf_counter() - started

    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    produced = dict(report["layers"] if args.trace else report["e2e"])
    if args.trace:
        produced["trace_overhead_pct"] = (tracer.overhead_pct(wall), "%")
    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, {seconds:g} s, trace {args.trace}")
    print("host: " + json.dumps(host_stamp()))
    for note in report["notes"]:
        print("  " + note)
    for spec in wanted:
        name = spec["name"]
        if name in produced:
            value, unit = produced[name]
            comment = ""
        elif args.trace:
            value, unit, comment = 0.0, spec["unit"], "  (layer not exercised by this workload)"
        else:
            raise RuntimeError(f"workload {args.workload} did not measure {name}")
        if unit != spec["unit"]:
            raise RuntimeError(f"{name}: measured in {unit}, declared {spec['unit']}")
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"  {name:<30s} {float(value):>14.6g} {unit:<12s} "
              f"({spec['better']} is better){comment}")
    if args.trace:
        print("  span self time (s), whole run:")
        for name, self_s in sorted(tracer.self_times().items()):
            print(f"    {name:<28s} {self_s:10.4f}")
    for failure in report["failures"]:
        print("  FAILED: " + failure)
    correct = not report["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
