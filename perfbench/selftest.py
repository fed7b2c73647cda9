#!/usr/bin/env python3
"""Small self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json for one second, untraced and
traced, and fails (exit 1) if a run exits non-zero, its last line is not
the result object, it reports correct = false, or a metric or unit that
BENCHMARK.json names is missing or different.  Then checks that the
benchmark, copied without the program's source, exits non-zero without
printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["last line of stdout is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"correct = {result.get('correct')!r}: "
                        f"{proc.stderr.strip()[-500:]}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers")
    got = {m: v.get("unit") for m, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics {got} != {expected}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [
        (0, {m["name"]: m["unit"] for m in spec["end_to_end"]}),
        (1, {m["name"]: m["unit"] for m in spec["per_layer"]}),
    ]
    failures = 0
    for w in spec["workloads"]:
        for trace, expected in layers:
            problems = check_result(run(ROOT, w["name"], trace), expected)
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']} --trace {trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    refused = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
    print(f"without the program's source: {'refused' if refused else 'FAIL'}")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
