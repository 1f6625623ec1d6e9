"""katokit benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

- ``verify-all``: ``katokit verify all --seed S`` in a fresh process, as
  users run it, repeated while time remains.
- ``amalgam``: batches of windowed (amalgam) norms at p = 1, 2 and inf
  over a fixed size mix, plus the lattice route.
- ``operators``: batches of quantize plus the SVD and Schatten norms, and
  of the contour calculus with invert and divide.

Every workload is a closed loop: one caller, one operation at a time,
``KATOKIT_THREADS`` unset. The program is imported from ``src/`` of the
checkout. With ``--trace 0`` the last line of output holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` a separate traced process
adds the per-layer metrics. Lines before it record the machine, every
metric with its unit, the failure fraction and any failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference" / "seed7"
REFERENCE_SEED = 7
WORKLOADS = ("verify-all", "amalgam", "operators")
# Set-up repeats per run; set-up time is the median. Heavier set-ups repeat less.
SETUP_REPEATS = {"verify-all": 5, "amalgam": 5, "operators": 3}
# Timing groups of the batch workloads, reported as per-layer metrics.
GROUP_METRICS = ("kato_p1", "kato_p2", "kato_pinf", "schatten", "calderon")


@dataclass
class Child:
    wall_s: float
    setup_s: float | None
    rss_mb: float
    returncode: int
    last_line: str


def run_child(cmd: list[str], env: dict) -> Child:
    """Run a process to its end; time it from start to the SETUP_DONE line
    and to exit, and take its own peak resident memory from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    setup_s = None
    last = ""
    for line in proc.stdout:
        if setup_s is None and line.startswith("SETUP_DONE"):
            setup_s = time.perf_counter() - start
        if line.strip():
            last = line.strip()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, setup_s, usage.ru_maxrss / 1024.0, proc.returncode, last)


def child_json(child: Child, what: str) -> dict:
    if child.returncode != 0:
        raise RuntimeError(f"{what} exited with code {child.returncode}")
    return json.loads(child.last_line)


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), workload, "--seed", str(seed), *extra]


def setup_times(workload: str, seed: int, env: dict, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        child = run_child(worker_cmd(workload, seed, "--setup-only"), env)
        child_json(child, "set-up")
        times.append(child.setup_s)
    return times


# ---------------------------------------------------------------------------
# verify-all


def report_digests(out: Path) -> dict[str, str]:
    """sha256 per report file; JSON reports without their `environment` key."""
    digests = {}
    if not out.is_dir():
        return digests
    for path in sorted(out.iterdir()):
        if path.name == "summary.json":
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            report.pop("environment", None)
            data = json.dumps(report, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def changed_reports(first: dict[str, str], other: dict[str, str]) -> list[str]:
    return sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))


def reference_verdicts() -> dict[str, str]:
    return json.loads((REFERENCE_DIR / "summary.json").read_text())["verdicts"]


def check_suites(out: Path, suites: list[str], seed: int) -> list[str]:
    """Failures: a missing report, a FAIL verdict, or at the reference seed a
    verdict that differs from the one recorded at the seed commit."""
    expected = reference_verdicts()
    failures = []
    for sid in suites:
        path = out / f"{sid}.json"
        if not path.is_file():
            failures.append(f"{sid}: report missing")
            continue
        verdict = json.loads(path.read_text()).get("verdict")
        if verdict == "FAIL":
            failures.append(f"{sid}: verdict FAIL")
        elif seed == REFERENCE_SEED and sid in expected and verdict != expected[sid]:
            failures.append(f"{sid}: verdict {verdict}, seed commit had {expected[sid]}")
    return failures


def suite_ids(out: Path) -> list[str]:
    ids = list(reference_verdicts())
    summary = out / "summary.json"
    if summary.is_file():
        ids += [sid for sid in json.loads(summary.read_text())["verdicts"] if sid not in ids]
    return ids


def rel_drift(value, reference) -> float:
    """Largest relative difference of any numeric leaf; 1 for a changed
    structure or a changed non-numeric leaf."""
    if isinstance(value, dict) and isinstance(reference, dict):
        if value.keys() != reference.keys():
            return 1.0
        return max((rel_drift(value[k], reference[k]) for k in value), default=0.0)
    if isinstance(value, list) and isinstance(reference, list):
        if len(value) != len(reference):
            return 1.0
        return max((rel_drift(a, b) for a, b in zip(value, reference)), default=0.0)
    numeric = (int, float)
    if isinstance(value, numeric) and isinstance(reference, numeric) and not isinstance(value, bool):
        if value == reference:
            return 0.0
        return abs(value - reference) / max(abs(value), abs(reference))
    return 0.0 if value == reference else 1.0


def max_rel_drift(out: Path, suites: list[str]) -> float:
    worst = 0.0
    for sid in suites:
        ref_path = REFERENCE_DIR / f"{sid}.json"
        path = out / f"{sid}.json"
        if not ref_path.is_file() or not path.is_file():
            worst = max(worst, 1.0)
            continue
        report = json.loads(path.read_text())
        report.pop("environment", None)
        worst = max(worst, rel_drift(report, json.loads(ref_path.read_text())))
    return worst


def verify_all_once(seed: int, out: Path, env: dict) -> tuple[Child, list[str], list[str]]:
    cmd = [sys.executable, "-m", "katokit.cli", "verify", "all", "--seed", str(seed), "--out", str(out)]
    child = run_child(cmd, env)
    suites = suite_ids(out)
    return child, suites, check_suites(out, suites, seed)


def run_verify_all(args, env: dict, scratch: Path, notes: list[str]) -> tuple[dict, int, int, list[str]]:
    metrics: dict[str, float] = {}
    failures: list[str] = []
    attempted = 0
    if not args.trace:
        setups = setup_times("verify-all", args.seed, env, SETUP_REPEATS["verify-all"])
    walls, rss, digests = [], [], []
    started = time.perf_counter()
    while True:
        out = scratch / f"verify-{len(walls)}"
        child, suites, bad = verify_all_once(args.seed, out, env)
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        attempted += len(suites)
        failures += bad
        digests.append(report_digests(out))
        if digests[-1] != digests[0]:
            failures.append(f"report digests differ between iterations: {changed_reports(digests[0], digests[-1])}")
        if args.trace or time.perf_counter() - started + statistics.median(walls) > args.seconds:
            break
    combined = hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode()).hexdigest()
    notes.append(f"verify-all report digest {combined} (seed {args.seed})")
    if not args.trace:
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(rss)
        return metrics, attempted, len(failures), failures

    traced_out = scratch / "traced"
    cmd = worker_cmd("verify-all", args.seed, "--traced", "--out", str(traced_out), "--suites", ",".join(suites))
    traced = run_child(cmd, env)
    result = child_json(traced, "traced verify-all")
    attempted += len(suites)
    bad = check_suites(traced_out, suites, args.seed)
    changed = changed_reports(digests[0], report_digests(traced_out))
    if changed:
        bad.append(f"traced reports differ from untraced ones: {changed}")
    failures += bad
    if args.seed == REFERENCE_SEED:
        reference_out = scratch / "verify-0"
    else:
        reference_out = scratch / "reference-seed"
        child, ref_suites, ref_bad = verify_all_once(REFERENCE_SEED, reference_out, env)
        attempted += len(ref_suites)
        failures += ref_bad
    metrics.update(layer_metrics(result["trace"]))
    notes += span_table(result["trace"])
    metrics.update({f"{group}_s": 0.0 for group in GROUP_METRICS})
    for sid, seconds in result["suite_s"].items():
        metrics[f"cli.suite.{sid}.s"] = seconds
    metrics["cli.max_rel_drift"] = max_rel_drift(reference_out, suites)
    metrics["trace_overhead_s"] = traced.wall_s - walls[0]
    return metrics, attempted, len(failures), failures


# ---------------------------------------------------------------------------
# batch workloads


def batch_walls(result: dict, group: str | None = None) -> list[float]:
    """Per-batch seconds, of every operation or of one timing group's."""
    return [
        sum(t for t, g in zip(times, result["groups"]) if group is None or g == group)
        for times in result["batches"]
    ]


def run_batch_workload(args, env: dict, notes: list[str]) -> tuple[dict, int, int, list[str]]:
    metrics: dict[str, float] = {}
    if not args.trace:
        setups = setup_times(args.workload, args.seed, env, SETUP_REPEATS[args.workload] - 1)
    child = run_child(worker_cmd(args.workload, args.seed, "--seconds", str(args.seconds)), env)
    result = child_json(child, args.workload)
    attempted, failed, failures = result["attempted"], result["failed"], result["failures"]
    walls = batch_walls(result)
    if not args.trace:
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setups + [child.setup_s])
        metrics["peak_rss_mb"] = result["rss_mb"]
        return metrics, attempted, failed, failures

    traced = child_json(run_child(worker_cmd(args.workload, args.seed, "--traced"), env), "traced run")
    attempted += traced["attempted"]
    failed += traced["failed"]
    failures += traced["failures"]
    metrics.update(layer_metrics(traced["trace"]))
    notes += span_table(traced["trace"])
    for group in GROUP_METRICS:
        metrics[f"{group}_s"] = statistics.median(batch_walls(result, group))
    # Batch workloads do not run the command line.
    metrics.update({f"cli.suite.{sid}.s": 0.0 for sid in reference_verdicts()})
    metrics["cli.max_rel_drift"] = 0.0
    metrics["trace_overhead_s"] = batch_walls(traced)[0] - statistics.median(walls)
    return metrics, attempted, failed, failures


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(trace: dict) -> dict[str, float]:
    functions, layers, counts, caches = trace["functions"], trace["layers"], trace["counts"], trace["caches"]

    def fn(name: str, field: str) -> float:
        return functions.get(name, {}).get(field, 0)

    def hit_ratio(name: str) -> float:
        total = caches[name]["hits"] + caches[name]["misses"]
        return caches[name]["hits"] / total if total else 0.0

    m = {f"{layer}.self_s": seconds for layer, seconds in layers.items()}
    for name in ("kato.kato_norm", "sobolev.h_norm", "sobolev.build_partition", "grid.mollify", "psido.quantize",
                 "calculus.calderon_apply"):
        m[f"{name}.calls"] = fn(name, "calls")
    for name in ("kato.kato_norm", "kato.windowed_spectra", "kato.mollifier_rate_check", "sobolev.h_norm",
                 "sobolev.build_partition", "sobolev.lattice_decomposition_ratio", "grid.mollify", "psido.quantize",
                 "psido.sw_norm", "calculus.calderon_apply"):
        m[f"{name}.s"] = fn(name, "s")
    m["grid.to_spectrum.calls"] = fn("grid.to_spectrum", "calls")
    m["sobolev.weight_mesh.hit_ratio"] = hit_ratio("sobolev.weight_mesh")
    m["sobolev.weight_mesh.misses"] = caches["sobolev.weight_mesh"]["misses"]
    m["grid.frequency_mesh.hit_ratio"] = hit_ratio("grid.frequency_mesh")
    for name in ("kato.translations", "kato.elements", "kato.bytes_computed", "kato.stack_mb_max",
                 "psido.svd.calls", "psido.svd.s", "psido.svd.max_dim", "psido.svd.elements",
                 "calculus.contour_evals", "calculus.halvings"):
        m[name] = counts[name]
    evals = counts["calculus.contour_evals"]
    m["calculus.contour_useful_frac"] = counts["calculus.contour_useful"] / evals if evals else 0.0
    return m


def span_table(trace: dict, rows: int = 15) -> list[str]:
    """The traced functions with the most self time."""
    top = sorted(trace["functions"].items(), key=lambda item: -item[1]["self_s"])[:rows]
    lines = [f"  {'traced function':40s} {'calls':>9s} {'total s':>10s} {'self s':>10s}"]
    lines += [f"  {name:40s} {f['calls']:9d} {f['s']:10.4f} {f['self_s']:10.4f}" for name, f in top]
    return lines


# ---------------------------------------------------------------------------
# machine record and output


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine() -> dict:
    import numpy as np

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = _read(f"{index}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except Exception:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KATOKIT_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "katokit" / "__init__.py").is_file():
        print(f"error: no katokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    notes: list[str] = []
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.workload == "verify-all":
            values, attempted, failed, failures = run_verify_all(args, env, scratch, notes)
        else:
            values, attempted, failed, failures = run_batch_workload(args, env, notes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:40s} {value:.6g} {entry['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for line in notes:
        print(line)
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
