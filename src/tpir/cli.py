"""Command-line surface: capacity tables, layout dumps, demos, audits, simulations.

Exit codes: 0 success, 1 check failure, 2 usage error. demo, audit and
simulate draw everything from one generator seeded by --seed; without --seed
a seed is generated and printed to stderr, so the run can be repeated and
standard output stays line-delimited JSON under --format records.
"""

from __future__ import annotations

import argparse
import json
import secrets as _secrets
import sys

import numpy as np

from . import audit, scheme, simnet
from .layout import SchemeParams, build_layout, total_download

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_DEMO_GUARD = 4096
RECORD_SCHEMA = 1


def _add_param_flags(sub, with_m=True):
    sub.add_argument("-K", type=int, required=True, help="number of messages")
    sub.add_argument("-N", type=int, required=True, help="answers needed to decode")
    sub.add_argument("-T", type=int, required=True, help="max colluding databases")
    if with_m:
        sub.add_argument("-M", type=int, default=None,
                         help="databases deployed (default N)")
        sub.add_argument("--q", type=int, default=None,
                         help="field modulus override (prime)")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="RNG seed")
    sub.add_argument("--format", choices=("table", "records"), default="table",
                     help="human table or line-delimited JSON records")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tpir",
        description="Robust T-private information retrieval at capacity.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    p_cap = sp.add_parser("capacity", help="capacity and download cost")
    _add_param_flags(p_cap, with_m=False)
    p_cap.add_argument("--format", choices=("table", "records"), default="table")

    p_lay = sp.add_parser("layout", help="block layout dump")
    _add_param_flags(p_lay)
    p_lay.add_argument("--desired", type=int, default=0)
    p_lay.add_argument("--format", choices=("table", "records"), default="table")

    p_demo = sp.add_parser("demo", help="end-to-end retrieval walkthrough")
    _add_param_flags(p_demo)
    _add_common(p_demo)

    p_aud = sp.add_parser("audit", help="run the verification suite")
    _add_param_flags(p_aud)
    _add_common(p_aud)
    p_aud.add_argument("--trials", type=int, default=10)
    p_aud.add_argument("-R", type=int, default=None, metavar="SAMPLES",
                       help="also run empirical privacy with this many samples")
    p_aud.add_argument("--break-alignment", action="store_true",
                       help="inject the no-MDS fault (checks must catch it)")
    p_aud.add_argument("--lemma1", type=str, default=None, metavar="alpha=A,beta=B,q=Q",
                       help="also run the exhaustive secret-row invariance check")

    p_sim = sp.add_parser("simulate", help="simulated multi-database session")
    _add_param_flags(p_sim)
    _add_common(p_sim)
    p_sim.add_argument("--desired", type=int, default=0)
    p_sim.add_argument("--drop", type=str, default="",
                       help="comma-separated silent node ids")
    p_sim.add_argument("--log-dir", type=str, default=None,
                       help="session log directory (or env TPIR_LOG_DIR)")

    return ap


def _params_from(args) -> SchemeParams:
    """M defaults to N."""
    M = args.N if args.M is None else args.M
    return SchemeParams(args.K, args.N, args.T, M, q=args.q)


def _seed_from(args) -> int:
    """--seed, or a fresh seed, printed to stderr so the run can be repeated."""
    if args.seed is not None:
        return args.seed
    seed = _secrets.randbelow(2**31)
    print(f"seed: {seed} (generated; pass --seed to reproduce)", file=sys.stderr)
    return seed


def _emit(rows: list[dict], fmt: str, headers: list[str] | None = None):
    if fmt == "records":
        for r in rows:
            print(json.dumps({"schema": RECORD_SCHEMA, **r}, default=str))
        return
    if not rows:
        return
    headers = headers or list(rows[0])
    widths = [max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in headers]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(str(r.get(h, "")).ljust(w) for h, w in zip(headers, widths)))


def cmd_capacity(args) -> int:
    cap = audit.capacity(args.K, args.N, args.T)
    _emit(
        [{
            "K": args.K, "N": args.N, "T": args.T,
            "capacity": str(cap), "capacity_decimal": f"{float(cap):.6f}",
            "download_cost_per_bit": str(1 / cap),
        }],
        args.format,
    )
    return EXIT_OK


def cmd_layout(args) -> int:
    params = _params_from(args)
    lay = build_layout(params, args.desired)
    rows = [
        {
            "block": "{" + ",".join(map(str, b.subset)) + "}",
            "mixes_desired": b.contains_desired,
            "alpha": b.alpha,
            "rows_total": b.block_len,
            "rows_per_db": b.per_db_len,
            "code": f"({b.code.n},{b.code.k})" if b.code is not None else "-",
        }
        for b in lay.blocks
    ]
    _emit(rows, args.format)
    if args.format == "table":
        print(f"q={params.q}  rows/db={lay.per_db}  total={total_download(params)}  "
              f"rate={scheme.achieved_rate(params)}")
    return EXIT_OK


def cmd_demo(args) -> int:
    params = _params_from(args)
    if params.L > _DEMO_GUARD:
        print(f"N^K = {params.L} exceeds the demo guard ({_DEMO_GUARD}); "
              "run `tpir audit` for large parameters instead.", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(_seed_from(args))
    store = scheme.MessageStore.random(params, rng)
    desired = int(rng.integers(params.K))
    out = simnet.run_session(params, desired, store, rng=rng)
    session = out["session"]
    print(f"# Retrieval demo: K={params.K} messages of L={params.L} symbols, "
          f"N={params.N} of M={params.M} databases answer, "
          f"T={params.T}-collusion privacy, GF({params.q})")
    print(f"\n## Layout (desired message: {desired})")
    lay = session.plan.layout
    for b in lay.blocks:
        kind = "desired+side-info" if b.contains_desired and len(b.subset) > 1 else (
            "desired" if b.contains_desired else "side information")
        print(f"  block {{{','.join(map(str, b.subset))}}}: {b.per_db_len} rows/db "
              f"({kind}, alpha={b.alpha})")
    print(f"  => {lay.per_db} rows per database, {total_download(params)} total")

    print("\n## Per-database answers")
    for m, buf in session.transcript["answer_bytes"].items():
        values = simnet.decode_answer(buf)[0].values
        shown = ", ".join(map(str, values[:8])) + (", ..." if len(values) > 8 else "")
        print(f"  db {m}: [{shown}] ({len(values)} symbols)")

    ok = np.array_equal(out["decoded"], store.data[desired])
    print(f"\n## Decode from databases {session.transcript['used_responders']}")
    print(f"  recovered message {desired} exactly: {ok}")
    rate = scheme.achieved_rate(params)
    cap = audit.capacity(params.K, params.N, params.T)
    print(f"  rate {params.L}/{total_download(params)} = {rate}, capacity = {cap}, "
          f"equal: {rate == cap}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_lemma1(text: str) -> tuple[int, int, int]:
    kv = dict(part.split("=") for part in text.replace(" ", "").split(","))
    alpha = int(kv["alpha"])
    beta = int(kv.get("beta", alpha))
    return alpha, beta, int(kv["q"])


def cmd_audit(args) -> int:
    params = _params_from(args)
    seed = _seed_from(args)
    try:
        lemma1 = _parse_lemma1(args.lemma1) if args.lemma1 else None
    except (KeyError, ValueError):
        print("bad --lemma1 spec; want alpha=A,beta=B,q=Q", file=sys.stderr)
        return EXIT_USAGE
    report = audit.run_audit(
        params,
        trials=args.trials,
        seed=seed,
        empirical_samples=args.R,
        break_alignment=args.break_alignment,
        lemma1=lemma1,
    )
    if args.format == "records":
        _emit([{"check": c.name, "passed": c.passed, "details": c.details}
               for c in report.checks], args.format)
    else:
        print(f"audit K={params.K} N={params.N} T={params.T} M={params.M} "
              f"q={params.q} seed={seed}")
        for line in report.lines():
            print(" ", line)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    params = _params_from(args)
    rng = np.random.default_rng(_seed_from(args))
    store = scheme.MessageStore.random(params, rng)
    drop = {int(x) for x in args.drop.split(",") if x.strip()}
    try:
        out = simnet.run_session(params, args.desired, store, drop_set=drop,
                                 rng=rng, log_dir=args.log_dir)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    ok = np.array_equal(out["decoded"], store.data[args.desired])
    m = out["metrics"]
    row = {
        "responders": ",".join(map(str, out["session"].transcript["used_responders"])),
        "dropped": ",".join(map(str, sorted(drop))) or "-",
        "downloaded_symbols": m["downloaded_symbols"],
        "upload_bytes": m["upload_bytes"],
        "download_bytes": m["download_bytes"],
        "decoded_ok": ok,
    }
    _emit([row], args.format)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_DISPATCH = {
    "capacity": cmd_capacity,
    "layout": cmd_layout,
    "demo": cmd_demo,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
