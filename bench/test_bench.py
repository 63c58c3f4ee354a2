"""The benchmark's own test: traced runs repeat, every named layer is
exercised on its workload, and the stated predictions hold.

    python3 -m pytest bench/test_bench.py -q

It makes two traced runs per workload (about four minutes on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

SEED = 11
WORKLOADS = ("ladder", "ladder-contract", "search-miss")
ALL = WORKLOADS

# layer -> workloads where it must be called at least once
CALLED_ON = {
    "algebra.mul_weyl": ALL,
    "algebra.normalize": ("search-miss",),
    "algebra.mul_super": ("search-miss",),
    "differential.apply_d": ("search-miss", "ladder"),
    "differential.validate_structure": ALL,
    "differential.check_d_squared": ALL,
    "indexcalc.degree_drop_check": ALL,
    "vanishing.search_unit_primitive": ("search-miss",),
    "linsolve.solve_exact": ("search-miss",),
    "vanishing.formal_inverse": ("ladder", "ladder-contract"),
    "vanishing.lift_primitive": ("ladder", "ladder-contract"),
    "io.differential_from_data": ALL,
    "io.classify_report_to_data": ALL,
    "io.canonical_bytes": ALL,
}

TIMES = {name for name, unit, _ in spans.PER_LAYER if unit == "s"}
TIMES.add("trace.overhead_frac")


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def runs():
    return {w: (traced_run(w), traced_run(w)) for w in WORKLOADS}


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in spans.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]
    assert set(first) == {name for name, _, _ in spans.PER_LAYER}
    counts = sorted(set(first) - TIMES)
    assert [first[k] for k in counts] == [second[k] for k in counts]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_named_layers_are_called(runs, workload):
    metrics = runs[workload][0]
    for layer, where in CALLED_ON.items():
        if workload in where:
            assert metrics[layer + ".calls"] > 0, layer


def test_predictions(runs):
    miss = runs["search-miss"][0]
    assert miss["vanishing.formal_inverse.calls"] == 0
    assert miss["vanishing.search_unit_primitive.hit_frac"] == 0
    assert runs["ladder-contract"][0]["algebra.mul_weyl.contract_frac"] >= 0.3
    assert runs["ladder"][0]["algebra.mul_weyl.contract_frac"] <= 0.05
