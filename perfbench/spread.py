"""Repeat mode: how steady is each metric?

    python3 perfbench/spread.py --workload serve_read --runs 10 [--sets 2]
        [--first-seed 0] [--trace 0] [--seconds S]

Runs ``run.py`` once per seed (one after another, never in parallel) and
prints, per metric, the median, the quartiles and the relative spread
``(Q3 - Q1) / median`` as ``statistics.quantiles(values, n=4)`` gives
them, next to the bound ``BENCHMARK.json`` allows, for the figures as
reported (CPU-bound ones at nominal host speed) and as measured.  With
``--sets 2`` or more, each further set runs the next ``--runs`` seeds
and the report ends with each set's medians and how much worse each is
than the first set's, against the bound.  Bounds are set from this
output.  Exits 1 if any run fails or answers wrongly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Note line of ``run.py`` output listing the CPU-bound figures as measured,
#: before they were scaled to nominal host speed.
RAW_MARK = "as measured: "


def raw_figures(lines):
    """Figures a run printed as measured, by name (scaled ones only)."""
    for line in lines:
        if "host speed factor" in line and RAW_MARK in line:
            pairs = line.split(RAW_MARK, 1)[1].split(", ")
            return {name: float(value) for name, value in (p.split(" ") for p in pairs)}
    return {}


def play_set(args, seeds):
    """Runs one seed each; returns ({metric: [reported]}, {metric: [raw]}, ok)."""
    reported: dict = {}
    raw: dict = {}
    ok = True
    for seed in seeds:
        argv_run = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            argv_run += ["--seconds", str(args.seconds)]
        began = time.perf_counter()
        completed = subprocess.run(argv_run, cwd=ROOT, capture_output=True, timeout=600)
        wall = time.perf_counter() - began
        lines = completed.stdout.decode().strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  + completed.stderr.decode(errors="replace")[-3000:])
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            ok = False
        unscaled = raw_figures(lines)
        for name, metric in result["metrics"].items():
            reported.setdefault(name, []).append(metric["value"])
            raw.setdefault(name, []).append(unscaled.get(name, metric["value"]))
        print(f"seed {seed} ({wall:.1f} s wall): " + ", ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ), flush=True)
    return reported, raw, ok


def spread_table(title, values, bounds):
    print(f"\n{title}")
    print(f"{'metric':<30s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, med, q3 = statistics.quantiles(series, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or rel < bound / 3 else "  <-- above a third of its bound"
        print(f"{name:<30s} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {rel:>8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")


def compare_sets(title, sets, specs):
    """Each set's median and its change against the first set's, in the
    metric's worse direction (positive is worse)."""
    print(f"\n{title}")
    header = "".join(f" {'set ' + str(k + 1):>12s}" for k in range(len(sets)))
    print(f"{'metric':<30s}{header} {'worse by':>9s} {'bound':>6s}")
    for name, spec in specs.items():
        medians = [statistics.median(s[name]) for s in sets if s.get(name)]
        if len(medians) != len(sets) or not medians[0]:
            continue
        sign = 1 if spec["better"] == "lower" else -1
        worst = max(sign * (m / medians[0] - 1) for m in medians[1:])
        bound = spec.get("bound")
        flag = "" if bound is None or worst <= bound else "  <-- beyond its bound"
        print(f"{name:<30s}" + "".join(f" {m:>12.5g}" for m in medians)
              + f" {worst:>+9.3f} {'' if bound is None else bound:>6}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark steadiness report")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in manifest["per_layer" if args.trace else "end_to_end"]}
    bounds = {name: spec.get("bound") for name, spec in specs.items()}
    status = 0
    reported_sets, raw_sets = [], []
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        print(f"set {k + 1}: seeds {first}..{first + args.runs - 1}", flush=True)
        reported, raw, ok = play_set(args, range(first, first + args.runs))
        status = status if ok else 1
        reported_sets.append(reported)
        raw_sets.append(raw)
        label = f"{args.workload} set {k + 1}: {args.runs} runs, trace {args.trace}"
        spread_table(label + ", as reported", reported, bounds)
        spread_table(label + ", as measured", raw, bounds)
    if args.sets > 1:
        compare_sets(f"{args.workload}: set medians as reported", reported_sets, specs)
        compare_sets(f"{args.workload}: set medians as measured", raw_sets, specs)
    return status


if __name__ == "__main__":
    sys.exit(main())
