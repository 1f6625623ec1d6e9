"""Smoke self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

1. every operation of one batch of each batch workload meets its oracle,
   and that each oracle rejects the same result perturbed by a relative
   1e-6 (more than every tolerance);
2. every workload prints every metric of BENCHMARK.json, with its unit,
   with ``--trace 0`` and ``--trace 1``, and no operation fails;
3. in a directory holding only BENCHMARK.json and the benchmark, with no
   sources, the benchmark exits with an error and prints no result.

It takes two to three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import _run_batch  # noqa: E402

PERTURBATION = 1e-6


def perturbed(value):
    if isinstance(value, float):
        return value * (1.0 + PERTURBATION)
    out = np.array(value, dtype=np.complex128)
    flat = out.reshape(-1)
    k = int(np.argmax(np.abs(flat)))
    flat[k] += PERTURBATION * max(abs(flat[k]), 1.0)
    return out


def check_oracles() -> list[str]:
    problems = []
    for workload in workloads.BATCH_WORKLOADS:
        ops, _ = workloads.build(workload, seed=11)
        _, values = _run_batch(ops)
        for op, value in zip(ops, values):
            if isinstance(value, Exception):
                problems.append(f"{op.label}: raised {value!r}")
                continue
            tol = oracles.TOLERANCES[op.kind]
            reference = op.reference()
            if not oracles.miss(value, reference) <= tol:
                problems.append(f"{op.label}: misses its oracle unperturbed")
            if oracles.miss(perturbed(value), reference) <= tol:
                problems.append(f"{op.label}: oracle accepts a result perturbed by {PERTURBATION:g}")
            if oracles.miss(np.full_like(np.asarray(value), np.nan), reference) <= tol:
                problems.append(f"{op.label}: oracle accepts a non-finite result")
        print(f"oracles: {workload}: {len(ops)} operations checked", flush=True)
    return problems


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_benchmark(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} operations failed")
            names = {m["name"]: m["unit"] for m in wanted}
            if set(result["metrics"]) != set(names):
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            for name, unit in names.items():
                got = result["metrics"].get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), float):
                    problems.append(f"{workload} trace {trace}: {name} printed as {got}")
                if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]):
                    problems.append(f"{workload} trace {trace}: no '{name} ... {unit}' line")
            print(f"metrics: {workload} trace {trace}: {len(names)} metrics printed", flush=True)
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "amalgam", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with_parent = bare.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            os.rmdir(with_parent)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["without sources the benchmark still printed a result"]
    print("bare directory: refused with exit code", proc.returncode, flush=True)
    return []


def main() -> int:
    problems = check_oracles() + check_refuses_without_sources() + check_metrics()
    for line in problems:
        print("PROBLEM", line)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
