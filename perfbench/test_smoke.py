"""Smoke test of the benchmark: every named metric is emitted with a unit
and a finite value, on every workload, with tracing off and on.

    python3 -m pytest perfbench/test_smoke.py

Runs `run.py --smoke` (tiny sizes, statistical output checks skipped) in a
subprocess per case; about a minute in all.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "chain-long": ["simulate_s", "estimate_s", "chain_steps_per_s"],
    "kernel-replicas": ["chain_steps_per_s", "nscan_s"],
    "oracles": ["constants_quadratic_s", "constants_parametrized_s", "constants_kernel_s",
                "verify_s"],
}
COMMON = ["setup_s", "setup_wall_s", "norm_wall_s", "wall_s", "peak_rss_mb", "failed_ratio"]
PER_LAYER = [
    "energies.eval.calls", "energies.eval.busy_s", "energies.grad.calls",
    "energies.grad.busy_s", "energies.pair_bytes", "energies.flat.calls",
    "energies.flat.busy_s", "energies.hess.calls", "energies.hess.busy_s",
    "dynamics.chain.busy_s", "dynamics.chain.self_s", "dynamics.steps",
    "dynamics.us_per_step", "dynamics.accept_ratio", "dynamics.observable.calls",
    "dynamics.observable.busy_s", "estimators.autocorr.busy_s",
    "estimators.variance_decay.self_s", "estimators.conditional_gap.self_s",
    "estimators.entropy_decay.self_s", "spectral1d.fixed_point.calls",
    "spectral1d.fixed_point.busy_s", "spectral1d.fixed_point.iterations",
    "spectral1d.conditional_potential.calls", "spectral1d.conditional_potential.busy_s",
    "spectral1d.grid_gap.calls", "spectral1d.grid_gap.busy_s",
    "spectral1d.gaussian_exact.busy_s", "bounds.hessian_block_bound.busy_s",
    "bounds.semi_convexity.calls", "bounds.semi_convexity.busy_s", "bounds.report.busy_s",
    "measures.w2.calls", "measures.w2.busy_s", "measures.mix.calls", "config.load_s",
    "cli.csv_s", "cli.csv_bytes", "cli.csv_bytes_per_s", "cli.json_s", "cli.json_bytes",
    "verify.sharpness.busy_s", "verify.curvature.busy_s", "verify.hessian.busy_s",
    "verify.conditional.busy_s", "verify.entropy.busy_s", "trace.overhead_s",
]


def run_smoke(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        kind, name, value, unit, count = line.split()[:5]
        if kind in ("end_to_end", "per_layer"):
            printed[name] = (float(value), unit, int(count.removeprefix("n=")))
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(END_TO_END))
def test_every_metric_is_emitted(workload, trace):
    printed, result = run_smoke(workload, trace)
    expected = COMMON + END_TO_END[workload] if trace == 0 else PER_LAYER + ["failed_ratio"]
    assert sorted(printed) == sorted(expected)
    for name, (value, unit, count) in printed.items():
        assert unit and math.isfinite(value) and count >= 1, name

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = spec["end_to_end" if trace == 0 else "per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in gated)
    for m in gated:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"] and math.isfinite(emitted["value"]), m["name"]
        if trace == 0:
            assert emitted["value"] > 0, m["name"]
