#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised into a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent ../base --change . \\
        --workload solve_fresh --first-seed 21 --out BENCH_12.json

Each of the PAIRS pairs runs `perfbench/run.py --trace 0` once in each
checkout on the same seed (first_seed + pair index) for the run_seconds of
the change's BENCHMARK.json, one run at a time; the parent goes first in
even pairs and the change in odd ones.  The summary holds, per
end-to-end metric, the median and quartiles of each side, the relative
spread (q3 - q1) / median of each side, and in how many pairs the change
was better.  Then one `--trace 1` run per side on first_seed gives the
per-layer metrics, stored under "traced".  "rss_fit" is the least-squares
line of peak_rss_mb on the attempted op count over all untraced runs of
both sides (see rss_fit).  Runs of further workloads are
merged into an existing output file, so one file can hold every workload
of a comparison.  Once per output file, "tier1" records the wall seconds
and pass/fail of the tier-1 test command in each checkout, TIER1_RUNS
runs per side, the parent first in even runs (see tier1_summary), and
"size" the lines and ast node counts of each checkout's modules under
src/briodelta (see source_size).

The last line of every run's output must be a result: one JSON object
with a boolean `correct`, integer `attempted` and `failed`, and `metrics`
mapping each name to an object with a finite numeric `value`.  NaN and
Infinity are rejected, and any other last line stops the script (exit 1)
with the checkout, workload, seed and mode named.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
TIER1_RUNS = 3
# The tier-1 command of ROADMAP.md, run from a checkout's root with src on PYTHONPATH.
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def parse_result(stdout: str) -> dict:
    """The result on a run's last output line, each metric reduced to its value.

    Raises ValueError unless that line is a result (see the module docstring).
    """
    lines = stdout.strip().splitlines()
    line = lines[-1] if lines else ""
    try:
        result = json.loads(line, parse_constant=_reject_constant)
    except ValueError as e:
        raise ValueError(f"{e}: {line[:200]!r}") from None
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and _is_count(result["attempted"]) and _is_count(result["failed"])
            and isinstance(result["metrics"], dict) and result["metrics"]):
        raise ValueError(f"not a result: {line[:200]!r}")
    metrics = {}
    for name, entry in result["metrics"].items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)):
            raise ValueError(f"metric {name!r} has no finite value: {entry!r}")
        metrics[name] = value
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as e:
        sys.exit(f"bench_pairs: {checkout} {workload} seed {seed} --trace {trace}: "
                 f"last line is not a result: {e}")


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for metric, sense in better.items():
        side = {s: [r[s]["metrics"][metric] for r in runs] for s in ("parent", "change")}
        wins = sum((c < p) if sense == "lower" else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        entry = {}
        for s, xs in side.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            entry[s] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        entry["change_better_pairs"] = wins
        out[metric] = entry
    return out


def rss_fit(runs: list[dict]) -> dict | None:
    """peak_rss_mb = intercept + slope * attempted, fitted over every untraced run of both sides.

    The benchmark keeps per-op records in lists, so its peak RSS grows with
    the op count.  The slope (bytes per attempted op) is that growth, and the
    intercept (MiB) the memory of the program itself; the mean residual of
    each side is a difference in program memory that the op count does not
    explain.  None when the runs lack peak_rss_mb or all attempted the same
    number of ops.
    """
    points = [(r[s]["attempted"], r[s]["metrics"].get("peak_rss_mb"), s)
              for r in runs for s in ("parent", "change")]
    if any(y is None for _, y, _ in points) or len({x for x, _, _ in points}) < 2:
        return None
    slope, intercept = statistics.linear_regression([x for x, _, _ in points],
                                                    [y for _, y, _ in points])
    residual = {s: [y - intercept - slope * x for x, y, side in points if side == s]
                for s in ("parent", "change")}
    return {"intercept_mib": intercept, "slope_b_per_op": slope * 2.0 ** 20,
            "max_abs_residual_mib": max(abs(e) for es in residual.values() for e in es),
            "mean_residual_mib": {s: statistics.fmean(es) for s, es in residual.items()}}


def tier1_once(checkout: Path) -> dict:
    """Wall seconds and pass/fail (exit code 0) of one tier-1 run in a checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return {"seconds": time.perf_counter() - t0, "passed": proc.returncode == 0}


def tier1_summary(runs: list[dict]) -> dict:
    """Per side, its runs, their median wall seconds and whether every run passed."""
    return {s: {"runs": [r[s] for r in runs],
                "median_s": statistics.median(r[s]["seconds"] for r in runs),
                "all_passed": all(r[s]["passed"] for r in runs)}
            for s in ("parent", "change")}


def tier1_pairs(parent: Path, change: Path) -> dict:
    runs = []
    for i in range(TIER1_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({side: tier1_once(parent if side == "parent" else change)
                     for side in order})
    return tier1_summary(runs)


def source_size(checkout: Path) -> dict:
    """Lines and ast node count of each module under src/briodelta, and their totals."""
    package = checkout / "src" / "briodelta"
    modules = {}
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        modules[path.relative_to(package).as_posix()] = {
            "lines": len(text.splitlines()), "ast_nodes": sum(1 for _ in ast.walk(ast.parse(text)))}
    return {"modules": modules,
            "lines": sum(m["lines"] for m in modules.values()),
            "ast_nodes": sum(m["ast_nodes"] for m in modules.values())}


def merge(doc: dict, workload: str, entry: dict, tier1) -> dict:
    """doc with `entry` as the workload's; tier1() fills "tier1" only when doc has none."""
    doc.setdefault("workloads", {})[workload] = entry
    if "tier1" not in doc:
        doc["tier1"] = tier1()
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = []
    for i in range(PAIRS):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed, seconds)
        runs.append(pair)
        print(f"{args.workload} pair {i + 1}/{PAIRS} seed {seed}: " + ", ".join(
            f"{m} {pair['parent']['metrics'][m]:.4g} -> {pair['change']['metrics'][m]:.4g}"
            for m in better), file=sys.stderr)

    traced = {"seed": args.first_seed}
    for side in ("parent", "change"):
        traced[side] = run_once(getattr(args, side), args.workload,
                                args.first_seed, seconds, trace=1)
    print(f"{args.workload} traced seed {args.first_seed}: " + ", ".join(
        f"{m} {traced['parent']['metrics'].get(m, math.nan):.4g} -> {v:.4g}"
        for m, v in traced["change"]["metrics"].items()), file=sys.stderr)

    fit = rss_fit(runs)
    if fit is not None:
        print(f"{args.workload} peak_rss_mb fit: {fit['intercept_mib']:.2f} MiB + "
              f"{fit['slope_b_per_op']:.0f} B/op, largest residual "
              f"{fit['max_abs_residual_mib']:.2f} MiB", file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    entry = {
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "all_correct": all(r[s]["correct"] for r in runs + [traced]
                           for s in ("parent", "change")),
        "failed_ops": {s: sum(r[s]["failed"] for r in runs) for s in ("parent", "change")},
        "attempted_ops": {s: sum(r[s]["attempted"] for r in runs) for s in ("parent", "change")},
        "summary": summarise(runs, better),
        "rss_fit": fit,
        "runs": runs,
        "traced": traced,
    }
    merge(doc, args.workload, entry, lambda: tier1_pairs(args.parent, args.change))
    size = doc.setdefault("size", {s: source_size(getattr(args, s)) for s in ("parent", "change")})
    t1 = doc["tier1"]
    print("tier-1 wall s: " + ", ".join(
        f"{s} {t1[s]['median_s']:.1f} ({'pass' if t1[s]['all_passed'] else 'FAIL'})"
        for s in ("parent", "change")), file=sys.stderr)
    print("src/briodelta lines, ast nodes: " + ", ".join(
        f"{s} {size[s]['lines']}, {size[s]['ast_nodes']}" for s in ("parent", "change")),
        file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
