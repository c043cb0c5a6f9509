"""tpir benchmark: one workload, measured for a fixed time, checked, reported.

    python3 bench/run.py --workload retrieve-L625 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree that holds ``src/tpir``. With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run,
and every span is written to ``.bench_out/``. The line before it records the
environment. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from measure import environment, peak_rss_mb, percentile, run_closed_loop

WORKLOAD_NAMES = ("retrieve-L625", "serve-L625", "audit")
EXIT_NO_SOURCE = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up, print it and exit")
    return ap.parse_args(argv)


def limit_threads() -> int:
    """Cap BLAS and OpenMP pools at the cores this process may use; call before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_tpir(root: Path):
    """Import tpir from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "tpir" / "__init__.py").is_file():
        raise ImportError(f"no tpir package under {src}")
    sys.path.insert(0, str(src))
    import tpir

    if Path(tpir.__file__).resolve().parent != (src / "tpir").resolve():
        raise ImportError(f"tpir imported from {tpir.__file__}, not {src}")


def cold_setup_s(args) -> float:
    """Set-up time of a fresh process, so imports and lazy caches start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def setup_seconds(args, workload, own_s: float) -> float:
    """Median set-up time of ``workload.setup_runs`` fresh processes.

    Set-up is a cold, once-per-process cost, so repeating it in this process
    would time warm caches. This process's own set-up is left out: it may be
    the first to read the source files and libraries from disk.
    """
    if workload.setup_runs == 1:
        return own_s
    return statistics.median([cold_setup_s(args) for _ in range(workload.setup_runs)])


def end_to_end(workload, records, setup_s: float) -> dict:
    seconds = [r.seconds for r in records]
    ok = sum(r.ok for r in records)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(seconds),
        "op_p90_s": percentile(seconds, 90),
        "ops_per_s": ok / sum(seconds),
        "upload_bytes": workload.upload_bytes,
        "download_bytes": workload.download_bytes,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok / len(records),
    }


def metric_units(root: Path, kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    started = time.perf_counter()  # set-up time counts from here, imports included
    args = parse_args(argv)
    threads = limit_threads()
    os.environ.pop("TPIR_LOG_DIR", None)  # session logs would add file writes to each op
    root = Path(__file__).resolve().parent.parent
    try:
        import_tpir(root)
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_SOURCE

    from workloads import WORKLOADS

    units = metric_units(root, "per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload](args.seed)
    traced = None
    if args.trace:
        from layers import TracedRun

        traced = TracedRun()
    with traced.setup() if traced else nullcontext():
        workload.setup()
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if traced:  # operations 2j (traced) and 2j+1 (untraced) both run inputs j
        workload.inputs = traced.paired(workload.inputs)
        records = run_closed_loop(workload, args.seconds, 2 * workload.min_ops, traced.around)
    else:
        records = run_closed_loop(workload, args.seconds, workload.min_ops)
    for i in workload.verify():
        records[i].ok = False
    failed = sum(not r.ok for r in records)

    env = environment(root, args, threads)
    if traced:
        values, missing = traced.summary(args.workload, records, units)
        for name in missing:
            print(f"error: traced layer {name} has no calls on {args.workload}", file=sys.stderr)
        for site in traced.missing_sites:
            print(f"warning: {site} does not exist and is not wrapped", file=sys.stderr)
        write_spans(root, args, env, traced.recorder.spans)
    else:
        values = end_to_end(workload, records, setup_seconds(args, workload, setup_s))

    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


def write_spans(root: Path, args, env: dict, spans):
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for s in spans:
            fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.op, s.attrs]) + "\n")
    print(f"spans: {path.relative_to(root)} ({len(spans)} spans)", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
