"""Verification suite: capacity oracle, privacy checks, correctness sweeps.

Three layers of assurance, strongest first: an exhaustive distributional
check of the secret-submatrix invariance at enumerable sizes, structural
checks over every collusion subset (coordinate counts per code plus
invertibility of every selected code submatrix, certified by
``mds.first_singular``), and an
empirical chi-square comparison of query distributions across desired
indices. Correctness is checked by brute-force execution over responder
subsets, and the achieved rate is compared to the capacity formula as exact
rationals.

The negative control lives only here: ``without_alignment`` breaks an
honest plan, and the checks run with ``break_alignment`` must reject it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import linalg, mds, scheme
from .field import elements_to_bytes, is_prime
from .layout import SchemeParams, build_layout

__all__ = [
    "CheckResult",
    "AuditReport",
    "capacity",
    "structural_privacy_check",
    "without_alignment",
    "empirical_privacy_check",
    "lemma1_exhaustive_check",
    "correctness_sweep",
    "capacity_shape_check",
    "run_audit",
]

# Bounds that keep one pass of each check small: the collusion subsets the
# structural check and the responder subsets the correctness sweep visit
# (above these, that many are drawn from the caller's generator), the
# empirical check's chi-square buckets and their least expected count, the
# matrices the lemma-1 check compares (|GL(beta, q)| * alpha!/(alpha - beta)!
# cases of |GL(alpha, q)| each), and the capacity shape grid's K and N.
_STRUCTURAL_SUBSETS = 500
_SWEEP_SUBSETS = 200
_MAX_BUCKETS = 200
_MIN_EXPECTED = 5.0
_LEMMA1_WORK = 2**26
_SHAPE_MAX_K = 12
_SHAPE_MAX_N = 6


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = dc_field(default_factory=dict)


@dataclass
class AuditReport:
    params: SchemeParams
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = " ".join(f"{k}={v}" for k, v in c.details.items())
            out.append(f"[{status}] {c.name}  {extra}".rstrip())
        return out


def capacity(K: int, N: int, T: int) -> Fraction:
    """Download capacity: (1 + T/N + ... + (T/N)^(K-1))^(-1), exactly."""
    if K < 1 or not 1 <= T <= N:
        raise ValueError(f"need K >= 1 and 1 <= T <= N, got K={K} N={N} T={T}")
    if T == N:
        return Fraction(1, K)
    r = Fraction(T, N)
    return (1 - r) / (1 - r**K)


def _t_subsets(M: int, T: int, cap: int, rng: np.random.Generator | None):
    """Every T-subset of the M databases, or ``cap`` of them drawn from ``rng``."""
    if math.comb(M, T) <= cap:
        return list(itertools.combinations(range(M), T))
    if rng is None:
        raise ValueError(
            f"C({M}, {T}) = {math.comb(M, T)} subsets exceed the cap of {cap}; "
            "drawing some of them needs a generator (rng)"
        )
    seen = set()
    while len(seen) < cap:
        seen.add(tuple(sorted(rng.choice(M, size=T, replace=False).tolist())))
    return sorted(seen)


def structural_privacy_check(
    plan: scheme.QueryPlan, rng: np.random.Generator | None = None
) -> CheckResult:
    """Over every collusion subset: variable counts and code-submatrix invertibility.

    For every T-subset of databases the variables it sees from each message
    must number exactly T * N^(K-1), the rows of each interference code it
    sees must form an invertible alpha x alpha submatrix, and the desired-code
    rows it sees must have full row rank. Each code is checked once for all
    T-subsets: the counts are read from the shape of its stacked view of the
    coordinates they hold, and invertibility is certified by
    ``mds.first_singular``. The params and desired index are those of the
    plan's layout, and the plan's row-support pattern and alignment are
    validated against it; each of its matrices must be one 2-d (D, K*L)
    query, not a stack. When there are more T-subsets than
    ``_STRUCTURAL_SUBSETS`` (500), that many are drawn from ``rng``, which is
    then required.
    """
    layout = plan.layout
    p, desired = layout.params, layout.desired
    name = "structural_privacy"
    if any(m.shape != (layout.per_db, p.K * p.L) for m in plan.matrices):
        raise ValueError(
            f"plan matrices of shapes {sorted({m.shape for m in plan.matrices})}, not "
            f"({layout.per_db}, {p.K * p.L}); check a stacked plan one slice at a time"
        )
    expected_per_msg = p.undesired_secret_rows

    bad = _plan_support_mismatch(plan)
    if bad is not None:
        return CheckResult(name, False, {"support_violation": bad})
    bad = _plan_alignment_mismatch(plan)
    if bad is not None:
        return CheckResult(name, False, {"alignment_violation": bad})

    subsets = _t_subsets(p.M, p.T, _STRUCTURAL_SUBSETS, rng)
    # one view per pair code: a row per T-subset of the codeword coordinates
    # it holds, all of one length by construction, so each count is read once
    views = [(b, layout.codeword_coords(b, subsets)) for b in layout.blocks if b.code is not None]
    for b, coords in views:
        if coords.shape[-1] != b.code.k:
            return CheckResult(
                name, False, {"block": b.subset, "count": coords.shape[-1], "expected": b.code.k}
            )
    nodes = layout.desired_coords(subsets)
    per_msg = {k: sum(b.code.k for b, _ in views if k in b.subset) for k in range(p.K)}
    per_msg[desired] = nodes.shape[-1]
    if any(v != expected_per_msg for v in per_msg.values()):
        return CheckResult(
            name, False, {"per_message_counts": per_msg, "expected": expected_per_msg}
        )
    for b, coords in views:
        i = mds.first_singular(b.code, coords)
        if i is not None:
            return CheckResult(
                name, False,
                {"subset": subsets[i], "block": b.subset, "reason": "singular MDS submatrix"},
            )
    # the desired-code rows have full row rank: the leading square Vandermonde
    # on their nodes, the generator of the (n_d, T * N^(K-1)) code, is invertible
    i = mds.first_singular(mds.MdsSpec(layout.desired_code_len, expected_per_msg, p.q), nodes)
    if i is not None:
        return CheckResult(
            name, False, {"subset": subsets[i], "reason": "desired code rows rank-deficient"}
        )
    return CheckResult(
        name, True,
        {"subsets_checked": len(subsets), "per_message_variables": expected_per_msg},
    )


def _plan_support_mismatch(plan: scheme.QueryPlan):
    """Rows of block B may touch only the message segments of B's members."""
    layout = plan.layout
    p = layout.params
    L = p.L
    for m, qm in enumerate(plan.matrices):
        for b in layout.blocks:
            allowed = np.zeros(p.K * L, dtype=bool)
            for k in b.subset:
                allowed[k * L : (k + 1) * L] = True
            if qm[b.rows][:, ~allowed].any():
                return {"db": m, "block": b.subset}
    return None


def _plan_alignment_mismatch(plan: scheme.QueryPlan):
    """Every side-information coefficient block must be a valid codeword.

    For a pair block B and member message k, the plan's coefficient rows on
    k's segment — the info rows placed in block B together with the parity
    rows placed in block B + {desired} — must form codewords of B's MDS code
    (one per coefficient column). Zeroed or otherwise inconsistent parity
    breaks this and is how the deliberately broken variant is caught.
    """
    layout = plan.layout
    p = layout.params
    L, q = p.L, p.q
    for b in layout.blocks:
        if b.code is None:
            continue
        # info chunks in b, then parity chunks in the aligned block, by database
        parity = layout.by_subset[b.aligned]
        gen = mds.generator(b.code)
        head_inv = mds.submatrix_inverse(b.code, np.arange(b.alpha))
        for k in b.subset:
            cw = np.concatenate(
                [qm[blk.rows, k * L : (k + 1) * L] for blk in (b, parity) for qm in plan.matrices]
            )
            info = linalg.mat_mul(head_inv, cw[: b.alpha], q)
            if not np.array_equal(linalg.mat_mul(gen, info, q), cw):
                return {"block": b.subset, "message": k}
    return None


def without_alignment(plan: scheme.QueryPlan) -> None:
    """Break an honest plan in place, as the privacy checks' negative control.

    Zeroes the parity of every side-information code (the pair's message
    segments on the rows of the block that also holds the desired index) in
    every matrix and stack slice. With no such parity (K = 1 or T = N) it
    raises ``ValueError``.
    """
    L = plan.layout.params.L
    blocks = [b for b in plan.layout.blocks if b.contains_desired and b.aligned and b.per_db_len]
    if not blocks:
        raise ValueError(
            "fault injection needs K > 1 and T < N; otherwise there is no "
            "side-information coding to break"
        )
    for qm in plan.matrices:
        for b in blocks:
            for k in b.aligned:
                qm[..., b.rows, k * L : (k + 1) * L] = 0


def _chunk_keys(matrices, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's canonical bytes and support mask, one row per sample.

    ``matrices`` are the colluding databases' (samples, D, K*L) plan stacks,
    in database order. Row s of the first array is sample s's matrices one
    after another, each as its row and column counts in 4-byte little-endian
    (``<II``) and then its elements in wire-dtype bytes; row s of the second
    is their zero/nonzero patterns, each packed into whole bytes.
    """
    count = matrices[0].shape[0]
    values, masks = [], []
    for a in matrices:
        header = np.frombuffer(struct.pack("<II", *a.shape[1:]), dtype=np.uint8)
        values.append(np.broadcast_to(header, (count, header.size)))
        values.append(np.frombuffer(elements_to_bytes(a, q), dtype=np.uint8).reshape(count, -1))
        masks.append(np.packbits(a.reshape(count, -1) != 0, axis=1))
    return np.concatenate(values, axis=1), np.concatenate(masks, axis=1)


# The most plan entries (samples x M x D x K*L) that ``empirical_privacy_check``
# builds in one stacked draw, so its memory stays bounded for any sample count.
_CHUNK_ENTRIES = 2**22


def empirical_privacy_check(
    params: SchemeParams,
    t_subset,
    sample_count: int,
    rng: np.random.Generator,
    break_alignment: bool = False,
    significance: float = 0.001,
) -> CheckResult:
    """Chi-square comparison of query distributions across desired indices.

    For each desired index, draws ``sample_count`` independent plans (fresh
    secrets each, drawn for that index and built as stacks of at most
    ``_CHUNK_ENTRIES`` plan entries) and records the colluding subset's
    coefficient matrices as a canonical byte string. The per-index
    empirical distributions are compared pairwise with Pearson's statistic
    (no Yates correction) on the 2 x C table and dof C - 1; the p-value is
    the closed-form chi-square tail ``_chi2_sf``. Bonferroni-corrected rejection at ``significance``
    fails the check. ``break_alignment`` checks plans broken by
    ``without_alignment`` instead (expected to be rejected).

    Bucketing (``_bucket_counts``): each sample is keyed by an 8-byte digest
    of its values while those take at most ``_MAX_BUCKETS`` (200) digests.
    Above that, value keys would spread the samples so thinly that the test
    has no power, so the digests of the zero/nonzero support pattern are the
    keys — still a function of the query, so identically distributed across
    desired indices whenever the queries are. A pair of indices whose
    samples all share one key is identically distributed: p = 1.0.
    """
    p = params
    t_subset = tuple(sorted(t_subset))
    bad = sorted({m for m in t_subset if not 0 <= m < p.M or t_subset.count(m) > 1})
    if bad:
        raise ValueError(
            f"collusion subset needs distinct ids in 0..{p.M - 1}, bad ids {bad}"
        )
    if len(t_subset) != p.T:
        raise ValueError(f"collusion subset must have size T={p.T}")
    _check_counts(p, sample_count=sample_count)
    name = "empirical_privacy" + ("_broken" if break_alignment else "")

    layouts = [build_layout(p, ell) for ell in range(p.K)]
    chunk = max(1, _CHUNK_ENTRIES // (p.M * layouts[0].per_db * p.K * p.L))
    # candidate bucketings, most specific first, each a digest list per index
    keyings = {"value": [[] for _ in range(p.K)], "support_mask": [[] for _ in range(p.K)]}
    for ell in range(p.K):
        for start in range(0, sample_count, chunk):
            secrets = scheme.sample_secrets(
                p, rng, min(chunk, sample_count - start), desired=ell
            )
            plan = scheme.build_queries(p, ell, secrets, layout=layouts[ell])
            if break_alignment:
                without_alignment(plan)
            keys = _chunk_keys([plan.matrices[m] for m in t_subset], p.q)
            for digests, rows in zip(keyings.values(), keys):
                digests[ell] += [hashlib.blake2b(row, digest_size=8).digest() for row in rows]

    *specific, fallback = keyings
    bucketing = next(
        (k for k in specific if len(set().union(*keyings[k])) <= _MAX_BUCKETS), fallback
    )
    tables = _bucket_counts(keyings[bucketing])

    pairs = list(itertools.combinations(range(p.K), 2))
    threshold = significance / len(pairs)
    results = {}
    for i, j in pairs:
        table = tables[[i, j]]
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] == 1:  # one key for every plan of both indices
            results[f"p_{i}_{j}"] = 1.0
            continue
        table, expected = _merge_sparse_buckets(table)
        if expected.min() < _MIN_EXPECTED:
            raise ValueError(
                f"sample_count={sample_count} is too small for the chi-square "
                "minimum expected bucket count; increase the sample count"
            )
        stat = float(((table - expected) ** 2 / expected).sum())
        results[f"p_{i}_{j}"] = _chi2_sf(stat, table.shape[1] - 1)
    worst_p = min(results.values())
    passed = worst_p > threshold
    return CheckResult(
        name,
        passed if not break_alignment else not passed,
        {"min_p": worst_p, "threshold": threshold, "buckets": tables.shape[1],
         "bucketing": bucketing, "samples_per_index": sample_count, **results},
    )


def _bucket_counts(digests: list[list[bytes]]) -> np.ndarray:
    """Counts of the 8-byte ``digests`` per index (row) and bucket (column): a digest's
    bucket is its index in sorted order among at most ``_MAX_BUCKETS`` distinct
    digests, else its little-endian value mod ``_MAX_BUCKETS``."""
    blob = b"".join(itertools.chain.from_iterable(digests))
    # read big-endian, the integers sort as the byte strings do
    support, buckets = np.unique(np.frombuffer(blob, dtype=">u8"), return_inverse=True)
    if len(support) > _MAX_BUCKETS:
        buckets = np.frombuffer(blob, dtype="<u8") % _MAX_BUCKETS
    tables = np.zeros((len(digests), min(len(support), _MAX_BUCKETS)), dtype=np.int64)
    rows = np.repeat(np.arange(len(digests)), [len(d) for d in digests])
    np.add.at(tables, (rows, buckets), 1)
    return tables


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P[chi2_dof > x] for integer dof, in closed form.

    With h = x/2 and a = k + (dof mod 2)/2, this is erfc(sqrt(h)) for odd dof
    (0 for even) plus the sum over k < dof // 2 of h^a exp(-h) / Gamma(a + 1),
    each term formed in log space.
    """
    if x <= 0:
        return 1.0
    h, half = x / 2, (dof % 2) / 2
    head = math.erfc(math.sqrt(h)) if half else 0.0
    log_h = math.log(h)
    return head + math.fsum(
        math.exp((k + half) * log_h - h - math.lgamma(k + half + 1)) for k in range(dof // 2)
    )


def _merge_sparse_buckets(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold low-count buckets together until every expected count is adequate
    or two buckets are left; returns the folded table and its expected counts."""
    table = table[:, np.argsort(table.sum(axis=0))[::-1]]
    while True:
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        if table.shape[1] <= 2 or expected.min() >= _MIN_EXPECTED:
            return table, expected
        table = np.concatenate([table[:, :-2], table[:, -2:].sum(axis=1, keepdims=True)], axis=1)


def lemma1_exhaustive_check(alpha: int, beta: int, q: int) -> CheckResult:
    """Exact distributional invariance of secret-matrix row selections.

    Over all S in GL(alpha, q), the multiset {G @ S[I, :]} must equal the
    multiset {S[:beta, :]} for every invertible beta x beta G and every
    vector I of beta distinct row indices, exhaustively over (G, I). Both
    groups come from ``linalg.enumerate_full_rank``, and a multiset is
    compared as its matrices, flattened to rows, in lexicographic order.
    """
    name = f"lemma1_alpha{alpha}_beta{beta}_q{q}"
    _check_lemma1_args(alpha, beta, q)
    s_all = linalg.enumerate_full_rank(alpha, q)
    reference = _sorted_rows(s_all[:, :beta, :])

    g_all = linalg.enumerate_full_rank(beta, q)
    index_vectors = [list(v) for v in itertools.permutations(range(alpha), beta)]
    for (gi, g), ivec in itertools.product(enumerate(g_all), index_vectors):
        transformed = linalg.mat_mul(g, s_all[:, ivec, :], q)
        if not np.array_equal(_sorted_rows(transformed), reference):
            return CheckResult(
                name, False, {"G_index": gi, "index_vector": ivec}
            )
    return CheckResult(
        name, True,
        {"gl_size": s_all.shape[0], "cases": len(g_all) * len(index_vectors)},
    )


def _check_lemma1_args(alpha: int, beta: int, q: int) -> None:
    """Raise ``ValueError`` for arguments ``lemma1_exhaustive_check`` cannot take,
    the work bound ``_LEMMA1_WORK`` included, before anything is enumerated."""
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    gl_size = linalg.check_enumerable(alpha, q)
    if not 1 <= beta <= alpha:
        raise ValueError(f"need 1 <= beta <= alpha, got beta={beta}")
    work = linalg.check_enumerable(beta, q) * math.perm(alpha, beta) * gl_size
    if work > _LEMMA1_WORK:
        raise ValueError(
            f"lemma-1 check at alpha={alpha}, beta={beta}, q={q} too long: "
            f"it compares {work} matrices > 2^26"
        )


def _sorted_rows(stack: np.ndarray) -> np.ndarray:
    """The stack's matrices, each flattened to one row, in lexicographic order."""
    rows = stack.reshape(len(stack), -1)
    return rows[np.lexsort(rows.T[::-1])]


def _check_counts(p: SchemeParams, trials: int = 1, sample_count: int | None = None) -> None:
    """Raise ``ValueError`` for a sweep of no ``trials`` or an empirical check
    (``sample_count`` given) of no samples or with K < 2: the one statement
    of each rule, for the checks and for ``run_audit`` before any check runs."""
    if trials < 1:
        raise ValueError(f"trials={trials}; the sweep needs at least one store to decode")
    if sample_count is None:
        return
    if p.K < 2:
        raise ValueError("empirical privacy compares desired indices; it needs K >= 2")
    if sample_count < 1:
        raise ValueError(f"sample_count={sample_count}; increase the sample count")


def correctness_sweep(
    params: SchemeParams,
    trials: int = 10,
    *,
    rng: np.random.Generator,
) -> CheckResult:
    """Brute-force execution: decode must return the desired message exactly,
    for every desired index and every N-subset of responders (at most
    ``_SWEEP_SUBSETS``, 200, drawn from ``rng`` when there are more).

    The subsets' tables are computed once, and each desired index decodes
    every subset and store in one stacked pass. A failure names the first
    wrong desired index, then subset, then store. ``trials`` < 1 raises
    ``ValueError`` before anything is drawn."""
    p = params
    name = "correctness_sweep"
    _check_counts(p, trials)
    secrets = scheme.sample_secrets(p, rng)
    subsets = _t_subsets(p.M, p.N, _SWEEP_SUBSETS, rng)
    stores = [scheme.MessageStore.random(p, rng) for _ in range(trials)]
    # columns are independent stores; one decode per subset covers all trials
    stacked = np.stack([s.stacked for s in stores], axis=1)
    tables = scheme.subset_tables(build_layout(p, 0), subsets)
    for ell in range(p.K):
        plan = scheme.build_queries(p, ell, secrets)
        answers = np.stack([linalg.mat_mul(m, stacked, p.q) for m in plan.matrices])
        got = scheme.Decoder(p, ell, secrets, plan.layout).decode_subsets(
            tables, answers[tables.responders]
        )
        wrong = (got != stacked[ell * p.L : (ell + 1) * p.L]).any(axis=1)
        if wrong.any():
            sub, bad = np.argwhere(wrong)[0]
            return CheckResult(
                name, False,
                {"desired": ell, "store": int(bad), "responders": subsets[sub]},
            )
    return CheckResult(
        name, True,
        {"trials": trials, "subsets": len(subsets), "decodes": p.K * len(subsets) * trials},
    )


def capacity_shape_check() -> CheckResult:
    """Capacity is decreasing in T and K, increasing in N, with limit 1 - T/N.

    Each capacity of the grid is computed once, into a table the comparisons read.
    """
    name = "capacity_shape"
    grid_n = range(2, _SHAPE_MAX_N + 1)
    cap = {(K, N, T): capacity(K, N, T)
           for N in grid_n for T in range(1, N + 1) for K in range(1, _SHAPE_MAX_K + 1)}
    for N in grid_n:
        for T in range(1, N + 1):
            for K in range(1, _SHAPE_MAX_K):
                if cap[K + 1, N, T] >= cap[K, N, T]:
                    return CheckResult(name, False, {"axis": "K", "K": K, "N": N, "T": T})
            if T < N and cap[3, N, T + 1] >= cap[3, N, T]:
                return CheckResult(name, False, {"axis": "T", "N": N, "T": T})
        if N > 2:
            for T in range(1, N):
                if cap[3, N, T] <= cap[3, N - 1, T]:
                    return CheckResult(name, False, {"axis": "N", "N": N, "T": T})
    # gap to the K -> infinity limit shrinks monotonically to 0
    for N in grid_n:
        for T in range(1, N):
            limit = Fraction(N - T, N)
            gaps = [cap[K, N, T] - limit for K in range(1, _SHAPE_MAX_K + 1)]
            if any(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:])) or gaps[-1] < 0:
                return CheckResult(name, False, {"axis": "limit", "N": N, "T": T})
    return CheckResult(name, True, {"max_K": _SHAPE_MAX_K, "max_N": _SHAPE_MAX_N})


def run_audit(
    params: SchemeParams,
    trials: int = 10,
    *,
    seed: int,
    empirical_samples: int | None = None,
    break_alignment: bool = False,
    lemma1: tuple[int, int, int] | None = None,
) -> AuditReport:
    """Full audit of one parameter point; drives the CLI ``audit`` command.

    ``break_alignment`` checks plans broken by ``without_alignment`` instead.
    Counts (``_check_counts``) and ``lemma1`` arguments the checks cannot
    take raise ``ValueError`` before any check runs.
    """
    _check_counts(params, trials, empirical_samples)
    if lemma1 is not None:
        _check_lemma1_args(*lemma1)
    p = params
    rng = np.random.default_rng(seed)
    checks = []

    rate = scheme.achieved_rate(p)
    cap = capacity(p.K, p.N, p.T)
    checks.append(
        CheckResult("rate_equals_capacity", rate == cap,
                    {"rate": str(rate), "capacity": str(cap)})
    )
    checks.append(capacity_shape_check())

    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, 0, secrets)
    if break_alignment:
        without_alignment(plan)
    res = structural_privacy_check(plan, rng=rng)
    if break_alignment:
        # the broken variant must be caught by the structural check
        res = CheckResult("structural_privacy_detects_broken", not res.passed, res.details)
    checks.append(res)
    checks.append(correctness_sweep(p, trials=trials, rng=rng))

    if empirical_samples is not None:
        checks.append(empirical_privacy_check(
            p, tuple(range(p.T)), empirical_samples, rng=rng, break_alignment=break_alignment
        ))
    if lemma1 is not None:
        checks.append(lemma1_exhaustive_check(*lemma1))
    return AuditReport(params=p, checks=checks)
