"""Tests of the benchmark itself: inputs, output checks and emitted names.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, check_output, equal_margin_share  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _op(workload, kind):
    return next(op for op in WORKLOADS[workload](1) if op.kind == kind)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    first, again, other = WORKLOADS[name](7), WORKLOADS[name](7), WORKLOADS[name](8)
    assert [(op.instance, op.args) for op in first] == [(op.instance, op.args) for op in again]
    assert [op.instance for op in first] != [op.instance for op in other]
    # sizes are fixed by the workload, so the cost of a round hardly depends on the seed
    assert [op.sizes() for op in first] == [op.sizes() for op in other]


def test_oracles_agree_with_the_program():
    from procure import benchmarks
    from procure.model import instance_from_json_dict

    for op in WORKLOADS["exact-unit"](3) + WORKLOADS["mc-capacitated"](3):
        inst = instance_from_json_dict(op.instance)
        if "f2" in op.expect:
            assert op.expect["f2"] == pytest.approx(benchmarks.optimal_single_price_min2(inst).profit, rel=1e-12)
        else:
            assert op.expect["f"] == pytest.approx(benchmarks.optimal_single_price(inst).profit, rel=1e-12)


def _ratio_output(mean, bench, method="exhaustive", trials=0):
    return json.dumps({"trials": trials, "mean_profit": mean, "std_error": 0.0, "benchmark": bench,
                       "ratio_estimate": mean / bench, "method": method})


def test_checker_rejects_a_wrong_exact_profit():
    op = _op("exact-unit", "exact-em")
    f2 = op.expect["f2"]
    right = equal_margin_share(op.expect["k"]) * f2
    assert check_output(op, 0, _ratio_output(right, f2)) is None
    assert "closed form" in check_output(op, 0, _ratio_output(right * 1.001, f2))
    assert "exit code" in check_output(op, 2, "")


def test_checker_rejects_a_profit_below_the_quarter_bound():
    op = _op("exact-unit", "exact-random")
    f2 = op.expect["f2"]
    assert check_output(op, 0, _ratio_output(0.25 * f2, f2)) is None
    assert "quarter" in check_output(op, 0, _ratio_output(0.24 * f2, f2))
    assert "oracle" in check_output(op, 0, _ratio_output(0.3 * f2, 1.01 * f2))


def test_checker_rejects_a_monte_carlo_mean_above_f():
    op = _op("mc-capacitated", "mc")
    f = op.expect["f"]
    good = _ratio_output(0.4 * f, f, "monte-carlo", workloads.MC_TRIALS)
    assert check_output(op, 0, good) is None
    assert "outside" in check_output(op, 0, _ratio_output(1.1 * f, f, "monte-carlo", workloads.MC_TRIALS))
    assert "10k" in check_output(op, 0, _ratio_output(0.4 * f, f, "monte-carlo", 100))


def test_checker_audit_expectations():
    lin = _op("audit-capacitated", "audit-linear")
    lo, _ = workloads._audit_deviation_range(lin.instance, "valuation,capacity")
    clean = json.dumps({"deviations_tested": lo, "violations": []})
    assert check_output(lin, 0, clean) is None
    dirty = json.dumps({"deviations_tested": lo, "violations": [{"dim": "valuation", "gain": 1.0}]})
    assert "linear" in check_output(lin, 0, dirty)
    assert "deviations" in check_output(lin, 0, json.dumps({"deviations_tested": lo - 1, "violations": []}))
    kth = _op("audit-capacitated", "audit-kth")
    found = json.dumps({"deviations_tested": 12, "violations": [{"dim": "capacity", "gain": 140.0}]})
    assert check_output(kth, 1, found) is None
    assert "exit code" in check_output(kth, 0, found)
    assert "underreport" in check_output(kth, 1, json.dumps({"deviations_tested": 12, "violations": []}))


def test_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    traced = run.summarize([], {})
    assert set(run.PER_LAYER) - set(traced) == {"trace.overhead_frac"}


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-capacitated", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    report = json.loads(proc.stdout.splitlines()[-2])
    assert {"git_sha", "python", "nproc", "seed"} <= set(report["stamp"])
    assert report["loop"]["tail_ms"]["samples"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-unit", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
