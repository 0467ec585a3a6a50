"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Op  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_tiny(workload: str, seed: int, trace: int = 0) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def digests(lines: list[str]) -> dict:
    records = [json.loads(line[len("record: "):]) for line in lines if line.startswith("record: ")]
    return {r["workload"]: r["digests"] for r in records}


@pytest.fixture(scope="module")
def tiny_all():
    return run_tiny("all", seed=3)


def test_every_workload_prints_end_to_end_metrics_with_units(tiny_all):
    result, lines = tiny_all
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WHY)
    for name in names:
        summary = next(line for line in lines if line.startswith(name + " "))
        for metric in BENCH["end_to_end"]:
            got = result["metrics"][f"{name}/{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0
            assert f"{metric['name']} " in summary and f" {metric['unit']}" in summary
        assert "fail_ratio 0 1" in summary


def test_single_workload_result_has_exactly_the_declared_metrics():
    result, _ = run_tiny("rotation-scan", seed=5)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric():
    result, _ = run_tiny("crosscheck", seed=4, trace=1)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["dense.trotter_evolve.calls"] > 0
    assert metrics["circuit.run_circuit.calls"] > 0
    assert 0.95 < metrics["tracing.accounted_ratio"] <= 1.0 + 1e-9


def test_layer_self_times_account_for_traced_time():
    mods = {layer: types.ModuleType(f"fake.{layer}") for layer in tracing.LAYERS}
    for mod, attr in tracing.ENTRIES:
        setattr(mods[mod], attr, lambda *args, **kwargs: None)

    def expected_b(g, n):
        time.sleep(0.001)
        return 0.5

    def estimate_g():
        for _ in range(3):
            mods["ising"].expected_b(1.0, 4)
        return SimpleNamespace(clamped=True)

    def main():
        time.sleep(0.002)
        mods["metrology"].estimate_g()
        mods["metrology"].estimate_g()

    mods["ising"].expected_b, mods["metrology"].estimate_g, mods["cli"].main = \
        expected_b, estimate_g, main
    tracer = tracing.Tracer(mods)
    with tracer:
        start = time.perf_counter()
        mods["cli"].main()
        wall = time.perf_counter() - start
    assert mods["cli"].main is main  # unwrapped again on exit
    metrics = tracing.layer_metrics(tracer, wall, (64,))
    assert metrics["metrology.estimate_g.calls"] == 2
    assert metrics["ising.expected_b.calls"] == 6
    assert metrics["ising.expected_b.calls_per_estimate"] == 3
    assert metrics["metrology.clamped_ratio"] == 1.0
    self_total = metrics["cli.self_s"] + metrics["cli.estimation_run.self_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in tracing.LAYERS[1:])
    assert self_total == pytest.approx(wall, rel=0.01)
    assert metrics["tracing.accounted_ratio"] == pytest.approx(1.0, rel=0.01)


def test_times_are_scaled_by_each_workers_own_probe():
    ref = run.REFERENCE_PROBE_S
    workers = [{"wall_s": 1.0, "probe_s": ref}, {"wall_s": 2.0, "probe_s": 2 * ref},
               {"wall_s": 3.0, "probe_s": ref}]
    assert run.at_reference_speed(workers, "wall_s") == pytest.approx(1.0)


def test_same_seed_gives_identical_report_digests(tiny_all):
    _, lines = tiny_all
    _, again = run_tiny("all", seed=3)
    first = digests(lines)
    assert set(first) == set(workloads.WHY)
    assert all(d and None not in d for d in first.values())
    assert digests(again) == first


def test_inputs_come_from_the_seed_alone():
    for name in workloads.WHY:
        assert workloads.make_inputs(name, 11) == workloads.make_inputs(name, 11)
        assert workloads.make_inputs(name, 11) != workloads.make_inputs(name, 12)


def _ops_with(check) -> list[Op]:
    return [Op("good", lambda: 0.25, lambda out: "digest"), Op("perturbed", lambda: 0.25, check)]


def test_perturbed_b_counts_as_failed_operation():
    report = {"circuit_b": 0.4027358863961115, "passed": True, "failures": []}
    workloads.check_estimate_gate(0, report, report["circuit_b"], 1e-9)
    with pytest.raises(CheckFailed):
        workloads.check_estimate_gate(0, report, report["circuit_b"] + 1e-6, 1e-9)

    def check(_out):
        workloads.check_estimate_gate(0, report, report["circuit_b"] + 1e-6, 1e-9)
        return "digest"

    result = worker.run_ops(_ops_with(check))
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["digests"] == ["digest", None]


def test_other_checks_reject_perturbed_outputs():
    exact = lambda g, n: 0.25  # noqa: E731
    row = {"n": 4, "g": 1.0, "parity": 1.0, "expected_b": 0.25}
    workloads.check_oracle(0, {"rows": [row]}, exact, 1e-9)
    for bad in ({"parity": 1.0 - 1e-6}, {"expected_b": 0.25 + 1e-6}):
        with pytest.raises(CheckFailed):
            workloads.check_oracle(0, {"rows": [{**row, **bad}]}, exact, 1e-9)
    with pytest.raises(CheckFailed):
        workloads.check_rotation(lambda rot: None, None, 1.0 + 1e-6)
    with pytest.raises(CheckFailed):
        workloads.check_exit(1, {"passed": False, "failures": ["x"]})
    with pytest.raises(CheckFailed):
        workloads.check_estimate_reps(0, {"passed": True, "failures": []})


def test_operation_exception_counts_as_failed():
    def boom():
        raise ValueError("bad input")

    result = worker.run_ops([Op("boom", boom, lambda out: "digest")])
    assert result["failed"] == 1 and "ValueError" in result["errors"][0]


def test_exits_nonzero_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "crosscheck", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
