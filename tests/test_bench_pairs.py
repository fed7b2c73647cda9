"""The paired-benchmark script: strict result lines, the peak-RSS fit and the tier-1 record."""

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


def _run(attempted: int, rss: float) -> dict:
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {"peak_rss_mb": rss}}


def test_rss_fit_separates_op_growth_from_program_memory():
    # 40 MiB of program plus 128 B per op on the parent; the change holds
    # 0.5 MiB more at any op count, and both sides see the same op counts.
    mib = 2.0 ** 20
    runs = [{"parent": _run(n, 40.0 + 128.0 * n / mib), "change": _run(m, 40.5 + 128.0 * m / mib)}
            for n, m in ((100000, 160000), (120000, 140000), (140000, 120000), (160000, 100000))]
    fit = bench_pairs.rss_fit(runs)
    assert fit["slope_b_per_op"] == pytest.approx(128.0)
    assert fit["intercept_mib"] == pytest.approx(40.25)
    assert fit["mean_residual_mib"]["parent"] == pytest.approx(-0.25)
    assert fit["mean_residual_mib"]["change"] == pytest.approx(0.25)
    assert fit["max_abs_residual_mib"] == pytest.approx(0.25)


def test_rss_fit_needs_the_metric_and_two_op_counts():
    same = [{"parent": _run(100, 40.0), "change": _run(100, 41.0)}] * 3
    assert bench_pairs.rss_fit(same) is None
    missing = [{"parent": _run(100, 40.0), "change": _run(200, 41.0)}]
    del missing[0]["change"]["metrics"]["peak_rss_mb"]
    assert bench_pairs.rss_fit(missing) is None


def _tier1_run(seconds: float, passed: bool = True) -> dict:
    return {"seconds": seconds, "passed": passed}


def test_tier1_summary_takes_each_sides_median_and_verdict():
    runs = [{"parent": _tier1_run(12.0), "change": _tier1_run(11.0)},
            {"change": _tier1_run(13.0, False), "parent": _tier1_run(10.0)},
            {"parent": _tier1_run(14.0), "change": _tier1_run(12.5)}]
    out = bench_pairs.tier1_summary(runs)
    assert out["parent"] == {"runs": [_tier1_run(12.0), _tier1_run(10.0), _tier1_run(14.0)],
                             "median_s": 12.0, "all_passed": True}
    assert out["change"]["median_s"] == 12.5 and out["change"]["all_passed"] is False


def test_merge_times_tier1_once_per_output_file():
    # The tier-1 timing is a callable here, so nothing runs pytest.
    calls = []

    def tier1():
        calls.append(1)
        return {"parent": {"median_s": 1.0}, "change": {"median_s": 2.0}}

    doc = bench_pairs.merge({"workloads": {}}, "solve_fresh", {"seeds": [1]}, tier1)
    doc = bench_pairs.merge(doc, "verify_grid", {"seeds": [2]}, tier1)
    doc = bench_pairs.merge(doc, "solve_fresh", {"seeds": [3]}, tier1)
    assert len(calls) == 1
    assert doc["workloads"] == {"solve_fresh": {"seeds": [3]}, "verify_grid": {"seeds": [2]}}
    assert doc["tier1"]["change"]["median_s"] == 2.0
    # A file written before the record existed gains it on its next merge.
    old = bench_pairs.merge({"workloads": {"interface_pool": {}}}, "verify_grid", {}, tier1)
    assert len(calls) == 2 and set(old["workloads"]) == {"interface_pool", "verify_grid"}
