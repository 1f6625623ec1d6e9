"""One fresh benchmark process, started by `run.py`.

    worker.py WORKLOAD --seed S [--seconds T] [--setup-only] [--traced]
              [--out DIR --suites a,b,...]   (verify-all, traced only)

It prints ``SETUP_DONE`` once the inputs are built and warmed up, so the
parent can time set-up from process start, and ends with one JSON line.

Batch workloads repeat their batch until the next one would end past
``--seconds`` (at least two batches); a traced process runs set-up and one
batch. For verify-all, set-up is the import of the command line; the
untraced timed phase is the ``katokit verify all`` process that `run.py`
starts itself, and the traced process runs ``katokit verify <id>`` for
each suite in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import oracles
import workloads
from tracer import Tracer


def _run_batch(ops) -> tuple[list[float], list[object]]:
    times, values = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - start)
            values.append(exc)
            continue
        times.append(time.perf_counter() - start)
        values.append(op.extract(result))
    return times, values


def _check(ops, batches_values) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures: list[str] = []
    references: dict[int, object] = {}
    for values in batches_values:
        for i, (op, value) in enumerate(zip(ops, values)):
            attempted += 1
            if isinstance(value, Exception):
                failed += 1
                failures.append(f"{op.label}: raised {type(value).__name__}: {value}")
                continue
            if i not in references:
                references[i] = op.reference()
            gap = oracles.miss(value, references[i])
            if not gap <= oracles.TOLERANCES[op.kind]:
                failed += 1
                failures.append(f"{op.label}: misses its oracle by {gap:.3g}")
    return attempted, failed, failures


def batch_workload(args) -> dict:
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    ops, warmups = workloads.build(args.workload, args.seed)
    for warm in warmups:
        warm()
    print("SETUP_DONE", flush=True)
    if args.setup_only:
        return {}
    batches_times, batches_values = [], []
    started = time.perf_counter()
    while True:
        times, values = _run_batch(ops)
        batches_times.append(times)
        batches_values.append(values)
        if tracer is not None:
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(sum(t) for t in batches_times)
        if len(batches_times) >= 2 and elapsed + typical > args.seconds:
            break
    # Peak memory of set-up and the timed phase, before the oracles allocate.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.reduce()
    attempted, failed, failures = _check(ops, batches_values)
    return {
        "labels": [op.label for op in ops],
        "groups": [op.group for op in ops],
        "batches": batches_times,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "trace": trace,
    }


def verify_all(args) -> dict:
    from katokit import cli

    print("SETUP_DONE", flush=True)
    if args.setup_only:
        return {}
    tracer = Tracer()
    tracer.install()
    suite_s = {}
    for sid in args.suites.split(","):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", sid, "--seed", str(args.seed), "--out", args.out])
        suite_s[sid] = time.perf_counter() - start
    tracer.uninstall()
    # Verdicts and reports are checked by run.py from the files written.
    return {"suite_s": suite_s, "trace": tracer.reduce()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("verify-all", *workloads.BATCH_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--suites")
    args = parser.parse_args(argv)
    run = verify_all if args.workload == "verify-all" else batch_workload
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result, default=_jsonable))
    return 0


def _jsonable(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
