"""The paired-benchmark script accepts only a strict result on a run's last line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

GOOD = ('{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"ops_per_s": {"value": 1.5, "unit": "1/s"}}}')


def test_result_line_parses():
    out = bench_pairs.parse_result("workload verify_grid: ...\n" + GOOD + "\n")
    assert out == {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"ops_per_s": 1.5}}


@pytest.mark.parametrize("line", [
    GOOD.replace("1.5", "NaN"),
    GOOD.replace("1.5", "Infinity"),
    GOOD.replace("1.5", "-Infinity"),
    GOOD.replace("1.5", "1e999"),
    GOOD.replace("1.5", "true"),
    GOOD.replace("true", "1"),
    GOOD.replace('"failed": 0', '"failed": -1'),
    GOOD.replace('{"ops_per_s": {"value": 1.5, "unit": "1/s"}}', "{}"),
    '{"counts": {}, "calls": {}}',
    "failed op: DomainError",
])
def test_non_result_lines_are_rejected(line):
    with pytest.raises(ValueError):
        bench_pairs.parse_result(GOOD + "\n" + line)


def test_empty_output_is_rejected():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")
