"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Kept out of ``tests/`` so the tier-1 suite does not grow.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# layers each workload runs, so its traced run must see them
LAYERS_RUN = {
    "grid": ("estimators.fd_oracle.calls", "estimators.oracle_primal_solve.calls",
             "estimators.dual_oracle.s", "linalg.spectral_bounds.calls",
             "estimators.sensitivity_step.calls", "problems.primal_value.calls",
             "harness.csv_bytes", "harness.svg_bytes"),
    "sensitivity": ("estimators.run_primal.s", "estimators.run_primal_bare.s",
                    "estimators.sensitivity_step.calls", "estimators.jacobian_mb",
                    "solvers.conjugate_gradient.iters", "rates.rate_report.s",
                    "linalg.seeded_problem_data.s"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    for name in LAYERS_RUN[workload] if trace else ():
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, "grid", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_skips_a_missing_target_and_restores_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import valgrad.estimators as E
    import valgrad.problems as P
    from tracer import Tracer
    from valgrad.linalg import seeded_problem_data

    monkeypatch.delattr(E, "fd_oracle")  # as if a later version removed it
    run_primal, primal_value = E.run_primal, P.StructuredProblem.primal_value
    a, u = seeded_problem_data(6, 4, 0)
    tracer = Tracer()
    tracer.install()
    try:
        E.run_primal(P.make_experiment_problem(1, a), u, "gd", iterations=3)
    finally:
        tracer.uninstall()
    assert E.run_primal is run_primal
    assert P.StructuredProblem.primal_value is primal_value
    metrics = tracer.layer_metrics(0.0)
    assert metrics["estimators.fd_oracle.calls"]["value"] == 0
    assert metrics["estimators.sensitivity_step.calls"]["value"] == 3
