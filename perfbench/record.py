"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/record.py [--workloads a,b] [--seeds 1-10] [--seconds T]
                                [--label TEXT --append perfbench/baseline.json]

For every workload it prints, per metric, the median, the quartiles of
`statistics.quantiles(values, n=4)` and their distance as a share of the
median (the spread the bound must cover). With ``--append`` it adds one
entry, with the machine record, to a results file such as
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[len("machine "):])
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label")
    parser.add_argument("--append", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.label, "run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, entry["machine"] = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            runs.append(result)
        summary = {}
        for name in bounds:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            print(f"{workload:20s} {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
        summary["failed"] = sum(r["failed"] for r in runs)
        summary["attempted"] = sum(r["attempted"] for r in runs)
        entry["workloads"][workload] = summary
    if args.append:
        entries = json.loads(args.append.read_text())["entries"] if args.append.is_file() else []
        entries.append(entry)
        args.append.write_text(json.dumps({"entries": entries}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
