"""chainedbell benchmark: three CLI workloads timed end to end, and a traced
run that splits their time by module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {shots,tables,verdicts} --seed N \
        --seconds S --trace {0,1}

Each run starts fresh child processes with ``src`` on ``PYTHONPATH`` and
the BLAS thread pool capped at the number of usable cores.  Several
children only set up (import chainedbell and write the workload's input
files), which gives the median set-up time; one more sets up and then runs
the workload's job list in passes for ``--seconds`` (see ``worker.py``).
Every job's output is checked against references computed here.  Job
times are scaled by a speed probe run between jobs (see ``PROBE_REF_S``).

Every metric is printed as ``name value unit``; the last line is one JSON
object with the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or
its per-layer metrics (``--trace 1``).  Scratch files live under
``.perfbench-work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7  # set-up samples per run, the measured child's included
RUN_BUDGET_S = 170  # the whole run, set-up children included
# Job times are reported for a machine on which worker.probe takes 10 ms.  The
# probe runs between jobs and tracks the speed that other tenants leave a
# shared VM: over ten seeds per workload, scaled job times spread 2
# to 9 % (quartile distance over median) where unscaled ones spread 5 to
# 32 %.
PROBE_REF_S = 0.010


def _child(args: list[str], cwd: Path, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten jobs beyond it,
    with that percentile and the job count."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def scale(probe_s: float) -> float:
    """Factor that takes a time measured while the speed probe took
    ``probe_s`` to a machine on which it takes ``PROBE_REF_S``."""
    return PROBE_REF_S / probe_s


def typical_latencies(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each job's median latency over the passes, each pass scaled by the
    median of the probes run between its jobs."""
    rows = ([t * (scale(statistics.median(p["probes"])) if scaled else 1.0)
             for t in p["latencies"]] for p in passes)
    return [statistics.median(times) for times in zip(*rows)]


def end_to_end(setups: list[dict], result: dict) -> dict[str, float]:
    plain = [p for p in result["passes"] if p["mode"] == "plain"]
    latencies = typical_latencies(plain)
    tail_s, percentile, jobs = tail(latencies)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sum(latencies),
        "wall_unscaled_s": sum(typical_latencies(plain, scaled=False)),
        "probe_ms": 1e3 * statistics.median(x for p in plain for x in p["probes"]),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * tail_s,
        "job_tail_percentile": percentile,
        "jobs_per_pass": jobs,
        "passes": len(plain),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict[str, float]:
    """Span statistics and counters, keyed ``<span>.<stat>`` and
    ``<counter>``.  Times are scaled medians over the traced passes; calls,
    errors and counters repeat exactly from pass to pass; peaks come from
    the memory pass."""
    traced = [p for p in result["passes"] if p["mode"] == "traced"]
    plain = [p for p in result["passes"] if p["mode"] == "plain"]
    memory = next(p for p in result["passes"] if p["mode"] == "memory")
    last = traced[-1]
    values: dict[str, float] = {}
    for name in sorted(set().union(*(p["spans"] for p in traced))):
        for stat in ("total_s", "self_s"):
            values[f"{name}.{stat}"] = statistics.median(
                p["spans"].get(name, {}).get(stat, 0.0) * scale(statistics.median(p["probes"]))
                for p in traced)
        for stat in ("calls", "errors"):
            values[f"{name}.{stat}"] = last["spans"].get(name, {}).get(stat, 0)
    for name, st in memory["spans"].items():
        if st["peak_mb"]:
            values[f"{name}.peak_mb"] = st["peak_mb"]
    values.update(last["counters"])
    values["trace.overhead_s"] = sum(typical_latencies(traced)) - sum(typical_latencies(plain))
    values["trace.self_sum_residual_s"] = max(p["self_sum_residual_s"] for p in traced)
    values["trace.counter_misses"] = max(p["counter_misses"] for p in traced)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "chainedbell" / "cli.py").is_file():
        print(f"no chainedbell sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(src)]

    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    env["TMPDIR"] = str(run_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        for i in range(SETUP_RUNS - 1):
            cwd = run_dir / f"setup{i}"
            cwd.mkdir()
            setups.append(_child(common + ["--setup-only"], cwd, env, 20))
        cwd = run_dir / "run"
        cwd.mkdir()
        result = _child(common, cwd, env, deadline - time.monotonic())
        setups.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(len(p["latencies"]) for p in result["passes"])
    failures = [f for p in result["passes"] for f in p["failures"]]
    for index, argv, reason in failures[:20]:
        print(f"FAILED job {index} `{argv}`: {reason}")
    values = end_to_end(setups, result)
    values["error_rate"] = len(failures) / attempted
    values["blas_thread_cap"] = int(threads)
    correct = not failures
    if args.trace:
        values.update(per_layer(result))
        correct = correct and values["trace.self_sum_residual_s"] < 1e-6
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"threads {threads} jobs_per_pass {result['jobs']} attempted {attempted}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name, _unit(name))}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_percentile", "%"), ("_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
