"""The golden set as a file: a digest of every benchmark job's outputs.

``golden_digest.json`` holds one record for every job of the ``shots``,
``tables`` and ``verdicts`` workloads at seeds 5 and 7: its argv, its exit
code, the sha256 of its stdout and, for a job with ``--out``, the sha256 of
the file it wrote.  The job lists and input files come from
``perfbench/workloads.py``, compiled from its source so that nothing is
written under ``perfbench/``.  Each workload runs once per seed, in
job-list order, in a fresh directory, through ``cli.main`` in-process.

A change that moves an output rewrites the file and names the moved jobs.
To rewrite it, from the root of a checkout:

    PYTHONPATH=src python tests/test_golden_digest.py

The digest pins this platform's floating-point results; the file records
the Python and NumPy versions it was taken on.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from chainedbell import cli

ROOT = Path(__file__).resolve().parents[1]
DIGEST = Path(__file__).with_name("golden_digest.json")
WORKLOADS = ("shots", "tables", "verdicts")
SEEDS = (5, 7)


@functools.cache
def load_workloads() -> types.ModuleType:
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # where @dataclass looks its module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files into ``workdir``, run its jobs
    there and return one record per job."""
    jobs, files = load_workloads().make_workload(workload, seed)
    for path, doc in files.items():
        (workdir / path).write_text(json.dumps(doc))
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for job in jobs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(job.argv))
            record = {"argv": job.argv, "exit": code, "stdout": sha256(stdout.getvalue().encode())}
            if "--out" in job.argv:
                out = Path(job.argv[job.argv.index("--out") + 1])
                record["out"] = sha256(out.read_bytes()) if out.exists() else None
            records.append(record)
    finally:
        os.chdir(cwd)
    return records


def moved_jobs(pinned: list[dict], got: list[dict]) -> list[str]:
    """One line per job whose record differs, naming the fields that moved."""
    moved = []
    for i in range(max(len(pinned), len(got))):
        old = pinned[i] if i < len(pinned) else {}
        new = got[i] if i < len(got) else {}
        fields = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        if fields:
            argv = " ".join(new.get("argv") or old["argv"])
            moved.append(f"job {i} `{argv}`: {', '.join(fields)}")
    return moved


def write_digest(path: Path) -> None:
    """Run every workload at every seed and write the digest, one job per
    line."""
    taken_on = {"python": platform.python_version(), "numpy": np.__version__}
    lines = ["{", f'  "taken_on": {json.dumps(taken_on)},', '  "runs": {']
    keys = [(w, s) for w in WORKLOADS for s in SEEDS]
    for k, (workload, seed) in enumerate(keys):
        with tempfile.TemporaryDirectory() as tmp:
            records = digest_run(workload, seed, Path(tmp))
        lines.append(f'    "{workload}/{seed}": [')
        lines += [f"      {json.dumps(r)}," for r in records]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("    ]" + ("," if k < len(keys) - 1 else ""))
    lines += ["  }", "}"]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_output_matches_the_digest(tmp_path, workload, seed):
    digest = json.loads(DIGEST.read_text())
    moved = moved_jobs(digest["runs"][f"{workload}/{seed}"], digest_run(workload, seed, tmp_path))
    assert not moved, (
        f"{len(moved)} {workload}/{seed} job(s) moved against a digest taken on "
        f"{digest['taken_on']}:\n" + "\n".join(moved)
    )


if __name__ == "__main__":
    write_digest(DIGEST)
