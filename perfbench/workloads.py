"""Job lists for the three workloads, their input files, and the output
checks.

Every job is one ``chainedbell`` command line.  A workload seed fixes the
job parameters, the model files and each job's ``--seed``.  Parameters
that set the cost of a job (chain length N, shot count, grid size) come
from fixed tiers, some with a small seeded jitter, so that two seeds give
job lists of nearly equal total work; parameters that do not set the cost
(visibility, LP bias, model contents, per-job seeds, job order) vary
freely.

The checks compute their references here, from the closed forms of the
physics, and never call the library under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("shots", "tables", "verdicts")


@dataclass
class Job:
    kind: str
    argv: list[str]
    expect: dict


# -- independent references ----------------------------------------------


def term_probability(n: int, v: float = 1.0) -> float:
    """Probability of each of the 2N chain terms for the visibility-v
    quantum table: adjacent settings are pi/2N apart on the Bloch circle,
    so a term is sin^2(pi/4N), and uniform noise makes it 1/2."""
    return v * math.sin(math.pi / (4.0 * n)) ** 2 + (1.0 - v) * 0.5


def chain_reference(n: int, v: float = 1.0) -> float:
    """v * 2N sin^2(pi/4N) + (1 - v) * N."""
    return 2.0 * n * term_probability(n, v)


def qm_table(n: int, v: float) -> list[float]:
    """Flat P(x, y | a, b) of the visibility-v chained quantum table.

    Alice's setting a sits at angle 2a*pi/2N and Bob's b at (2b+1)*pi/2N;
    on (|00> + |11>)/sqrt(2) equal outcomes have probability
    cos^2(delta/2)/2 each and unequal ones sin^2(delta/2)/2.
    """
    step = math.pi / (2.0 * n)
    flat = []
    for a in range(n):
        for b in range(n):
            half = 0.5 * ((2 * b + 1) * step - 2 * a * step)
            same = 0.5 * math.cos(half) ** 2
            diff = 0.5 * math.sin(half) ** 2
            for x in (0, 1):
                for y in (0, 1):
                    q = same if x == y else diff
                    flat.append(v * q + (1.0 - v) * 0.25)
    return flat


def _close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


# -- job lists ------------------------------------------------------------


def _strata(values, count: int) -> list:
    return [values[i % len(values)] for i in range(count)]


def _visibility(rng: random.Random) -> float:
    return round(rng.uniform(0.85, 1.0), 6)


def _job_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _experiment(rng, source: str, n: int, shots: int, v: float | None,
                out: str | None = None) -> Job:
    """``v`` is the visibility: a flag for the ``qm`` source, already in
    the model file otherwise, and None for the ideal ``qm`` table."""
    argv = ["experiment", "--source", source, "--n", str(n), "--shots", str(shots),
            "--seed", _job_seed(rng)]
    if source == "qm" and v is not None:
        argv += ["--visibility", repr(v)]
    if out:
        argv += ["--out", out]
    return Job("experiment", argv, {"n": n, "v": 1.0 if v is None else v, "shots": shots,
                                    "out": out, "annotated": source != "qm"})


def _falsify(rng, model: str, n: int, verdict: int, shots: int | None = None) -> Job:
    """``verdict`` is the exact verdict's exit code (1 = falsified)."""
    argv = ["falsify", model, "--n", str(n)]
    if shots is not None:
        argv += ["--shots", str(shots), "--seed", _job_seed(rng)]
    return Job("falsify", argv, {"n": n, "verdict": verdict, "shots": shots})


def _nonlocal_model(files: dict, rng, n: int, k: int) -> tuple[str, float]:
    v = _visibility(rng)
    path = f"nonlocal{len(files)}.json"
    files[path] = {"type": "nonlocal_qm", "n": n, "visibility": v, "n_u": k, "n_v": k}
    return path, v


def _deterministic_model(files: dict, rng, n: int) -> str:
    path = f"deterministic{len(files)}.json"
    files[path] = {
        "type": "local_deterministic",
        "n": n,
        "alice_tables": [[rng.randint(0, 1) for _ in range(n)]
                         for _ in range(rng.randint(1, 3))],
        "bob_tables": [[rng.randint(0, 1) for _ in range(n)]
                       for _ in range(rng.randint(1, 3))],
    }
    return path


def _leggett_model(files: dict, n: int, grid: int) -> str:
    path = f"leggett{len(files)}.json"
    files[path] = {"type": "leggett", "n": n, "grid": grid}
    return path


# The tiers of each workload are sized so that the median job and the tail
# job (the eleventh slowest) fall inside a block of jobs of like cost, not
# on the edge between two blocks: that keeps both latencies steady from
# seed to seed.


def _shots(rng: random.Random, files: dict) -> list[list[Job]]:
    groups = []
    # Below the median: Monte-Carlo verdicts on small models.
    for i, n in enumerate(_strata((2, 3), 18)):
        if i % 3 == 2:
            model, verdict = _deterministic_model(files, rng, n), 1
        else:
            model, verdict = _nonlocal_model(files, rng, n, 2 + i % 3)[0], 0
        groups.append([_falsify(rng, model, n, verdict, 20_000)])
    # Median block: small in-memory experiments on the quantum table.
    for n in _strata((2, 3, 4, 5, 6, 7, 8), 20):
        v = _visibility(rng) if rng.random() < 0.5 else None
        groups.append([_experiment(rng, "qm", n, 20_000, v)])
    # Annotated u,v records from model sources, two with a CSV round trip.
    for i, (n, k) in enumerate(zip(_strata((2, 3, 4), 8), _strata((4, 2, 3), 8))):
        model, v = _nonlocal_model(files, rng, n, k)
        out = f"model_shots{i}.csv" if i < 2 else None
        groups.append([_experiment(rng, model, n, 50_000, v, out)])
    # Tail block: 7e4-shot experiments; one 1e5-shot job goes through CSV.
    for n in _strata((2, 4, 6, 8, 10, 12), 10):
        groups.append([_experiment(rng, "qm", n, 70_000, _visibility(rng))])
    groups.append([_experiment(rng, "qm", rng.choice((2, 12)), 100_000, _visibility(rng),
                               "qm_shots.csv")])
    model = _leggett_model(files, 2, 360)
    groups.append([_falsify(rng, model, 2, 1, 3_000)])
    groups.append([_experiment(rng, "qm", 2, 1_000_000, _visibility(rng))])
    return groups


def _qm(n: int, v: float, out: str | None) -> Job:
    argv = ["qm", str(n), "--visibility", repr(v)]
    if out:
        argv += ["--out", out]
    return Job("qm", argv, {"n": n, "v": v, "out": out})


def _check(path: str, n: int, v: float, locality: bool) -> Job:
    argv = ["check", path] + (["--locality-bound"] if locality else [])
    return Job("check", argv, {"n": n, "v": v, "locality": locality})


def _tables(rng: random.Random, files: dict) -> list[list[Job]]:
    groups = []
    # (count, N range, --locality-bound) of the write-then-check pairs.  The
    # locality bound stops at N=100: its non-signaling check holds all pairs
    # over N^2 contexts at once, 1.6 GB of RSS at N=100.
    strata = [(2, (200, 200), False), (2, (150, 150), False), (1, (100, 100), True),
              (10, (100, 102), False), (8, (20, 26), True)]
    for count, (lo, hi), locality in strata:
        for _ in range(count):
            n, v = rng.randint(lo, hi), _visibility(rng)
            path = f"table{len(groups)}.json"
            groups.append([_qm(n, v, path), _check(path, n, v, locality)])
    # Median block.
    for _ in range(20):
        n_max, v = rng.randint(4_900, 5_100), _visibility(rng)
        out = f"scan{len(groups)}.csv"
        groups.append([Job("scan", ["scan", "--n-max", str(n_max), "--visibility", repr(v),
                                    "--out", out],
                           {"n_max": n_max, "v": v, "out": out})])
    for _ in range(12):
        groups.append([_qm(rng.randint(10, 30), _visibility(rng), None)])
    return groups


def _verdicts(rng: random.Random, files: dict) -> list[list[Job]]:
    groups = [[_falsify(rng, _leggett_model(files, 50, 3600), 50, 1)]]
    # In-plane grids with N x grid near 36000, above the tail block.
    for grid, n in ((720, 50), (1200, 30), (1800, 20), (2400, 15), (3000, 12), (3600, 10)):
        groups.append([_falsify(rng, _leggett_model(files, n, grid), n, 1)])
    for _ in range(4):
        n = rng.randint(2, 10)
        path = f"orthogonal{len(files)}.json"
        files[path] = {"type": "leggett", "n": n, "vectors": [[0, 1, 0], [0, -1, 0]]}
        groups.append([_falsify(rng, path, n, 0)])
    for n in _strata((2, 3, 4, 5, 6, 7, 8), 12):
        model, _ = _nonlocal_model(files, rng, n, rng.randint(1, 4))
        groups.append([_falsify(rng, model, n, 0)])
    for n in _strata((2, 3, 4, 5, 6, 7, 8), 12):
        groups.append([_falsify(rng, _deterministic_model(files, rng, n), n, 1)])
    for n in _strata((2, 3, 4, 5, 6, 7, 8), 8):
        path = f"custom{len(files)}.json"
        table = qm_table(n, _visibility(rng))
        files[path] = {"type": "custom_table", "distribution": {
            "parties": 2, "outputs": [2, 2], "inputs": [n, n], "table": table}}
        groups.append([_falsify(rng, path, n, 0)])
    # N=3 programs form the median block.
    for i, n in enumerate([2] * 16 + [3] * 40 + [4] * 24):
        delta = round(rng.uniform(0.0, 0.5), 6)
        out = f"lp{i}.json" if i % 6 == 0 else None
        argv = ["lp", "--n", str(n), "--delta", repr(delta)] + (["--out", out] if out else [])
        groups.append([Job("lp", argv, {"n": n, "delta": delta, "out": out})])
    # N=10 brute force forms the tail block.
    for n in [6, 7, 8, 6, 7, 8, 9, 9, 9] + [10] * 9:
        groups.append([Job("bruteforce", ["bruteforce", "--n", str(n)], {"n": n})])
    return groups


_JOB_LISTS = {"shots": _shots, "tables": _tables, "verdicts": _verdicts}


def make_workload(name: str, seed: int) -> tuple[list[Job], dict[str, dict]]:
    """The job list and the input files (relative path -> JSON document)
    of one workload at one seed."""
    rng = random.Random(f"{name}/{seed}")
    files: dict[str, dict] = {}
    groups = _JOB_LISTS[name](rng, files)
    rng.shuffle(groups)  # a group keeps its write-then-read order
    return [job for group in groups for job in group], files


# -- output checks --------------------------------------------------------


def _check_qm(e: dict, code: int, p: dict) -> str | None:
    n = e["n"]
    if not _close(p["chain_value"], chain_reference(n, e["v"]), 1e-9):
        return f"chain value {p['chain_value']} != {chain_reference(n, e['v'])}"
    if e["out"]:
        if not os.path.isfile(e["out"]):
            return "table file not written"
    elif len(p["distribution"]["table"]) != 4 * n * n:
        return "table has the wrong size"
    return None


def _check_check(e: dict, code: int, p: dict) -> str | None:
    if p["nonsignaling"]["passed"] is not True:
        return "non-signaling check failed"
    if e["locality"]:
        lb = p["locality_bound"]
        if lb["passed"] is not True:
            return "locality bound failed"
        if not _close(lb["bound"], 0.5 * chain_reference(e["n"], e["v"]), 1e-9):
            return f"locality cap {lb['bound']} is not half the chain value"
    return None


def _check_scan(e: dict, code: int, p: dict) -> str | None:
    if p["rows"] != e["n_max"] - 1:
        return "wrong row count"
    with open(e["out"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["n", "chain_value", "locality_bound", "qm_asymptote"]:
        return "unexpected scan header"
    if len(rows) != e["n_max"]:
        return "scan file has the wrong row count"
    for row in (rows[1], rows[len(rows) // 2], rows[-1]):
        n, value, cap, asym = int(row[0]), *map(float, row[1:])
        ref = chain_reference(n, e["v"])
        if not (_close(value, ref, 1e-9) and _close(cap, 0.5 * ref, 1e-9)
                and _close(asym, math.pi**2 / (8.0 * n), 1e-12)):
            return f"scan row for N={n} is wrong"
    return None


def _check_experiment(e: dict, code: int, p: dict) -> str | None:
    n, v, shots = e["n"], e["v"], e["shots"]
    r = p["report"]
    ref = chain_reference(n, v)
    if p["shots"] != shots or r["n_settings"] != n:
        return "payload does not echo the job"
    if not _close(p["reference_chain_value"], ref, 1e-9):
        return f"reference chain value {p['reference_chain_value']} != {ref}"
    point, upper, m = r["point_estimate"], r["upper_bound"], r["shots_per_pair"]
    if not upper >= point:
        return "upper bound below the point estimate"
    if not _close(p["max_locality_bound"], 0.5 * upper, 1e-12):
        return "locality cap is not half the upper bound"
    # The point estimate sums 2N independent binomial frequencies; six
    # standard deviations (from the smallest per-pair count) lie well
    # inside the Hoeffding radius for every N.
    q = term_probability(n, v)
    sigma = math.sqrt(2 * n * q * (1.0 - q) / m)
    if abs(point - ref) > min(6.0 * sigma, upper - point):
        return f"point estimate {point} is {abs(point - ref) / sigma:.1f} sigma off {ref}"
    if e["out"]:
        with open(e["out"], "rb") as fh:
            header = fh.readline()
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        expected = b"a,b,x,y,u,v\r\n" if e["annotated"] else b"a,b,x,y\r\n"
        if header != expected or rows != shots:
            return "shot file has the wrong header or row count"
    return None


def _check_falsify(e: dict, code: int, p: dict) -> str | None:
    n = e["n"]
    if not _close(p["bound"], 0.5 * chain_reference(n), 1e-12):
        return f"locality cap {p['bound']} != N sin^2(pi/4N)"
    if code != (1 if p["falsified"] else 0):
        return "exit code does not match the verdict"
    if e["shots"] is None:
        if p["mode"] != "exact" or code != e["verdict"]:
            return f"exact verdict exit {code}, expected {e['verdict']}"
    else:
        if p["mode"] != "monte_carlo" or p["shots_per_pair"] != e["shots"]:
            return "payload does not echo the job"
        if p["falsified"] and e["verdict"] == 0:
            return "Monte-Carlo run falsified a model the exact test does not"
    return None


def _check_lp(e: dict, code: int, p: dict) -> str | None:
    b0, b1 = p["branch_values"]
    if abs(p["gap"]) > 1e-7 or abs(b0 - b1) > 1e-9:
        return f"gap {p['gap']}, branches {b0} vs {b1}"
    if not _close(p["min_value"], 2.0 * e["delta"], 1e-7):
        return "optimum is not 2*delta"
    if e["out"] and not os.path.isfile(e["out"]):
        return "argmin file not written"
    return None


def _check_bruteforce(e: dict, code: int, p: dict) -> str | None:
    n = e["n"]
    f, g = p["witness"]["alice_map"], p["witness"]["bob_map"]
    value = (sum(f[i] != g[i] for i in range(n))
             + sum(f[i + 1] != g[i] for i in range(n - 1))
             + (f[0] == g[n - 1]))
    if p["min_value"] != 1.0 or value != 1:
        return f"classical minimum {p['min_value']}, witness scores {value}"
    return None


_CHECKS = {
    "qm": _check_qm,
    "check": _check_check,
    "scan": _check_scan,
    "experiment": _check_experiment,
    "falsify": _check_falsify,
    "lp": _check_lp,
    "bruteforce": _check_bruteforce,
}


def check_job(job: Job, code: int, stdout: str) -> str | None:
    """None if the job succeeded and its output is right, else the reason.

    Exit 2 (usage) and 3 (numerical) always fail; exit 1 passes only where
    the check expects a negative verdict.
    """
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"exit {code}; stdout is not one JSON document"
    if code not in (0, 1) or (code == 1 and job.kind != "falsify"):
        return f"exit {code}: {payload.get('error', '')}"
    try:
        return _CHECKS[job.kind](job.expect, code, payload)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return f"malformed output: {exc!r}"
