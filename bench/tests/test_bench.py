"""Tests of the benchmark itself: its checks catch a wrong result, its inputs
follow the seed, and tracing leaves results and module names unchanged.

Run from the repository root:  python -m pytest -q bench/tests
"""

import array
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import grossone.core  # noqa: E402
import grossone.evaluator  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def scratch_out(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)


def fail_ratio(workload: str, seed: int) -> float:
    bench_run = run.Run(workload, seed)
    bench_run.timed(0)
    return bench_run.failed / bench_run.attempted


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_planted_wrong_multiply_raises_fail_ratio(workload, monkeypatch):
    real = grossone.core.multiply

    def drops_last_term(x, y):
        product = real(x, y)
        return grossone.core.GrossNumber(product.terms[:-1]) if len(product.terms) > 1 else product

    monkeypatch.setattr(grossone.core, "multiply", drops_last_term)
    assert fail_ratio(workload, 1) > 0


@pytest.mark.parametrize("workload", ["session", "nested"])
def test_unchanged_program_passes_every_check(workload):
    assert fail_ratio(workload, 2) == 0


@pytest.mark.parametrize("workload", ["session", "nested"])
def test_same_seed_same_inputs_and_results(workload):
    first, second = run.Run(workload, 3), run.Run(workload, 3)
    assert first.input_digest == second.input_digest
    assert first.result_digest == second.result_digest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(workload, tmp_path):
    def inputs(seed):
        items = workloads.WORKLOADS[workload](random.Random(seed), tmp_path / str(seed))
        return run.digest(item.text for item in items)

    assert inputs(4) == inputs(4)
    assert inputs(4) != inputs(5)


def test_tracing_keeps_results_and_restores_names():
    bench_run = run.Run("session", 6)
    add = grossone.core.GrossNumber.__add__
    tracer = spans.Tracer()
    tracer.install(workloads)
    try:
        results, _, _ = run.run_pass(bench_run.items, tracer.run_item)
    finally:
        tracer.uninstall()
    assert results == bench_run.reference
    assert grossone.evaluator.core is grossone.core
    assert workloads.core is grossone.core
    assert grossone.core.GrossNumber.__add__ is add
    metrics = spans.reduce_pass(*tracer.take_pass())
    assert metrics["cli.main.calls"] == len(bench_run.items)
    layers = sum(value for name, value in metrics.items() if name.endswith(".self_ms") and name != "bench.self_ms")
    assert layers + metrics["bench.self_ms"] == pytest.approx(metrics["trace.item_ms"])


def test_declared_workloads_exist_with_their_reasons():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for workload in declared["workloads"]:
        assert workloads.WHY[workload["name"]] == workload["why"]


def test_metric_names_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end, *_ = run.end_to_end("nested", 1, 0.1)
    per_layer, *_ = run.per_layer("nested", 1, 0.1)
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    for metrics, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_scale_follows_the_nearest_calibration_samples():
    speed = run.Speed()
    speed.ends = array.array("d", [1, 2, 3, 4, 5, 6])
    speed.times = array.array("d", [1e-4, 1e-4, 2e-4, 2e-4, 2e-4, 2e-4])
    assert speed.scale(0.5) == pytest.approx(1.0)  # the loop ran at the reference speed
    assert speed.scale(4.5) == pytest.approx(0.5)  # it ran twice as slow: halve the time
