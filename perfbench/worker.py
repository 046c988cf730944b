"""Benchmark child: set up one workload, then run its job list in passes.

Run by ``run.py`` in a fresh process, with ``src`` on ``PYTHONPATH`` and the
working directory set to a scratch directory of the run.  Each job calls
``chainedbell.cli.main(argv)`` in-process with stdout captured, one job
after the other on a single thread.  The last line of stdout is a JSON
record of the set-up time, every pass and the process's peak RSS.

Passes repeat the same job list until ``--seconds`` is spent, at least
``MIN_PASSES`` times.  With ``--trace 1`` the run starts with a memory
pass (tracemalloc peaks of the designated spans), then alternates plain
and timed-trace passes, so that the tracing overhead is the difference
between the two.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from tracer import Tracer
from workloads import WORKLOADS, check_job, make_workload

# Passes per mode: a job's median of three rejects one disturbed run; a
# traced run has two modes and settles for two of each.
MIN_PASSES = {False: 3, True: 2}
# Stop starting passes after this much measuring, whatever --seconds says,
# so that a slowed machine still ends the run in time.
MAX_MEASURE_S = 75.0
# A speed probe runs between jobs at least this often; see ``probe``.
PROBE_EVERY_S = 0.25


@dataclass(slots=True)
class _Row:
    a: int
    b: int
    x: int
    y: int


def probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch
    chainedbell: Python object churn, a NumPy pairwise reduction and a JSON
    round trip, the three kinds of work the jobs do.  The probe's time
    tracks the speed the machine gives this process at the moment."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(8_000):
        row = _Row(i, i >> 1, i & 1, (i >> 2) & 1)
        acc += row.x != row.y
    a = np.arange(30_000, dtype=float).reshape(30, 20, 50)
    acc += int((0.5 * np.abs(a[:, None] - a[None, :]).sum(axis=-1)).max() > 0)
    acc += len(json.loads(json.dumps([i * 0.1 for i in range(6_000)])))
    return time.perf_counter() - t0 + 0.0 * acc  # acc: every result is used


def set_up(workload: str, seed: int):
    """Import chainedbell and write the workload's input files; returns
    ``(cli.main, jobs, seconds taken)``."""
    jobs, files = make_workload(workload, seed)
    t0 = time.perf_counter()
    cli = importlib.import_module("chainedbell.cli")
    for path, doc in files.items():
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return cli.main, jobs, time.perf_counter() - t0


def run_pass(main, jobs, tracer: Tracer | None = None) -> dict:
    latencies, failures, probes = [], [], []
    residual = 0.0
    last_probe = -math.inf
    if tracer is not None:
        tracer.patch()
    try:
        for i, job in enumerate(jobs):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            out = io.StringIO()
            code, error = None, None
            if tracer is None:
                t0 = time.perf_counter()
                try:
                    with redirect_stdout(out):
                        code = main(list(job.argv))
                except Exception as exc:  # a traceback is a failed job
                    error = repr(exc)
                dt = time.perf_counter() - t0
            else:
                before_total = tracer.stats["cli"].total_s
                before_self = tracer.self_sum
                try:
                    with redirect_stdout(out):
                        code = tracer.call("cli", main, (list(job.argv),))
                except Exception as exc:
                    error = repr(exc)
                dt = tracer.stats["cli"].total_s - before_total
                residual = max(residual, abs(tracer.self_sum - before_self - dt))
                tracer.counters["cli.stdout_bytes"] += len(out.getvalue().encode())
            latencies.append(dt)
            reason = error or check_job(job, code, out.getvalue())
            if reason:
                failures.append([i, " ".join(job.argv), reason])
    finally:
        if tracer is not None:
            tracer.unpatch()
    probes.append(probe())
    record = {"latencies": latencies, "failures": failures, "probes": probes}
    if tracer is not None:
        record["self_sum_residual_s"] = residual
        record["counter_misses"] = tracer.counter_misses
        record["spans"] = {
            name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                   "errors": st.errors, "peak_mb": st.peak_mb}
            for name, st in tracer.stats.items()
        }
        record["counters"] = dict(tracer.counters)
    return record


def run_passes(main, jobs, seconds: float, trace: bool) -> list[dict]:
    """Repeat the job list at least ``MIN_PASSES`` times per mode, and
    again while another pass fits in ``seconds``."""
    passes = []
    if trace:
        memory = run_pass(main, jobs, Tracer(memory=True))
        memory["mode"] = "memory"
        passes.append(memory)
    modes = ["plain", "traced"] if trace else ["plain"]
    start = time.perf_counter()
    walls = []
    while True:
        mode = modes[len(walls) % len(modes)]
        t0 = time.perf_counter()
        record = run_pass(main, jobs, Tracer() if mode == "traced" else None)
        walls.append(time.perf_counter() - t0)
        record["mode"] = mode
        passes.append(record)
        elapsed = time.perf_counter() - start
        if len(walls) % len(modes) == 0 and (
                elapsed > MAX_MEASURE_S
                or len(walls) >= MIN_PASSES[trace] * len(modes)
                and elapsed + len(modes) * statistics.median(walls) > seconds):
            return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory chainedbell must load from")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli_main, jobs, setup_s = set_up(args.workload, args.seed)
    loaded = os.path.realpath(sys.modules["chainedbell"].__file__)
    if not loaded.startswith(os.path.realpath(args.src) + os.sep):
        print(f"chainedbell loaded from {loaded}, not from {args.src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result["jobs"] = len(jobs)
        result["passes"] = run_passes(cli_main, jobs, args.seconds, bool(args.trace))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
