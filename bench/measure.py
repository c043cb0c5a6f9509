"""Closed-loop runner, percentile selection and the environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path


@dataclass
class OpRecord:
    index: int
    seconds: float
    ok: bool


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def run_closed_loop(workload, seconds: float, min_ops: int = 1, around=None) -> list[OpRecord]:
    """Run ``workload`` operations back to back, starting them for ``seconds``.

    One client: each operation starts when the previous one has returned, and
    the last one started before the deadline runs to its end. At least
    ``min_ops`` operations run. Inputs are drawn and outputs checked outside
    the timed interval. An operation that raises, or whose check fails or
    raises, is recorded as failed and the loop goes on. ``around(i)`` gives a
    context manager entered around the timed call.
    """
    records: list[OpRecord] = []
    shown = 0

    def report(stage):
        nonlocal shown
        if shown < 3:  # the first few failures in full; later ones are counted
            shown += 1
            print(f"operation {i} failed in {stage}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if i >= min_ops and time.perf_counter() >= deadline:
            break
        args = workload.inputs(i)
        out, raised = None, False
        with around(i) if around else nullcontext():
            t0 = time.perf_counter()
            try:
                out = workload.run(args)
            except Exception:
                raised = True
                report("run")
            dt = time.perf_counter() - t0
        ok = False
        if not raised:
            try:
                ok = bool(workload.check(i, args, out))
            except Exception:
                report("check")
        records.append(OpRecord(i, dt, ok))
        i += 1
    return records


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(root: Path, args, threads: int) -> dict:
    """What a result depends on besides the code: versions, threads, inputs."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
