"""Acceptance gate: the eight end-to-end criteria with runtime budgets.

Each test prints one summary line; budgets are asserted with headroom-free
wall-clock checks so a performance regression fails loudly.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from tpir import audit, linalg, mds, scheme, simnet
from tpir.layout import SchemeParams, build_layout, total_download

from mds_helpers import is_mds
from query_helpers import decode_dense

SEED = 20260826


def grid_params():
    for K in range(1, 5):
        for N in range(2, 6):
            for T in range(1, N + 1):
                for M in (N, N + 1, N + 2):
                    yield SchemeParams(K, N, T, M)


def report(name, detail, elapsed, budget=None):
    status = "PASS"
    line = f"[{status}] {name}: {detail} ({elapsed:.2f}s"
    line += f" / budget {budget:.0f}s)" if budget else ")"
    print(line)


def test_1_golden_rates():
    """Worked-example rates and download lengths, exactly."""
    t0 = time.perf_counter()
    golden = [
        (2, 3, 2, Fraction(3, 5), 15),
        (2, 4, 2, Fraction(2, 3), 24),
        (2, 4, 3, Fraction(4, 7), 28),
        (3, 3, 2, Fraction(9, 19), 57),
    ]
    for K, N, T, rate, download in golden:
        p = SchemeParams(K, N, T, N)
        assert scheme.achieved_rate(p) == rate == audit.capacity(K, N, T)
        assert total_download(p) == download
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 1 golden rates", f"{len(golden)} cases exact", elapsed, 1)


def test_2_general_grid_rate_equals_capacity():
    t0 = time.perf_counter()
    points = list(grid_params())
    per_knt = {}
    for p in points:
        # the download the layout plans, against the closed form of its
        # blocks: C(K, j) blocks of size j, (N-T)^(j-1) T^(K-j) rows each per database
        per_db = sum(
            math.comb(p.K, j) * (p.N - p.T) ** (j - 1) * p.T ** (p.K - j)
            for j in range(1, p.K + 1)
        )
        assert total_download(p) == p.N * per_db, p
        rate = scheme.achieved_rate(p)
        assert rate == Fraction(p.L, p.N * per_db) == audit.capacity(p.K, p.N, p.T), p
        per_knt.setdefault((p.K, p.N, p.T), set()).add(rate)
    # M-independence: one rate per (K, N, T) regardless of M
    assert all(len(v) == 1 for v in per_knt.values())
    # closed forms
    for (K, N, T), rates in per_knt.items():
        rate = rates.pop()
        if T == N:
            assert rate == Fraction(1, K)
        else:
            r = Fraction(T, N)
            assert rate == (1 - r) / (1 - r**K)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 2 grid rates", f"{len(points)} points exact", elapsed, 30)


def test_3_correctness_sweep():
    t0 = time.perf_counter()
    points = skipped = decodes = 0
    for p in grid_params():
        if p.L > 1024:
            skipped += 1
            continue
        res = audit.correctness_sweep(p, trials=10, rng=np.random.default_rng(SEED))
        assert res.passed, (p, res.details)
        points += 1
        decodes += res.details["decodes"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        "criterion 3 correctness",
        f"{points} points, {decodes} decodes exact ({skipped} over size cap)",
        elapsed, 600,
    )


def test_4_structural_privacy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    points = 0
    for p in grid_params():
        res = audit.structural_privacy_check(p, 0, rng=rng)
        assert res.passed, (p, res.details)
        expected = p.T * p.N ** (p.K - 1)
        assert res.details["per_message_variables"] == expected
        points += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("criterion 4 structural privacy", f"{points} points, zero failures",
           elapsed, 300)


def test_5_exhaustive_secret_invariance():
    t0 = time.perf_counter()
    cases = 0
    for alpha, q in [(2, 2), (3, 2), (2, 3)]:
        for beta in range(1, alpha + 1):
            res = audit.lemma1_exhaustive_check(alpha, beta, q)
            assert res.passed, (alpha, beta, q, res.details)
            cases += res.details["cases"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 5 secret invariance",
           f"{cases} (G, index-vector) cases, multisets equal exactly",
           elapsed, 60)


def test_6_empirical_privacy():
    t0 = time.perf_counter()
    p = SchemeParams(2, 2, 1, 2)
    honest = audit.empirical_privacy_check(
        p, (0,), 20_000, rng=np.random.default_rng(SEED)
    )
    assert honest.passed, honest.details
    assert honest.details["min_p"] > 0.001
    broken = audit.empirical_privacy_check(
        p, (0,), 20_000, rng=np.random.default_rng(SEED), break_alignment=True
    )
    assert broken.passed, broken.details  # i.e. the broken variant was rejected
    assert broken.details["min_p"] < 0.001
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        "criterion 6 empirical privacy",
        f"honest p={honest.details['min_p']:.3f} accepted, "
        f"broken p={broken.details['min_p']:.2e} rejected",
        elapsed, 120,
    )


def _grid_mds_specs():
    specs = set()
    for p in grid_params():
        lay = build_layout(p, 0)
        specs.add(mds.MdsSpec(lay.desired_code_len, p.L, p.q))
        for b in lay.blocks:
            if not b.contains_desired and b.alpha:
                specs.add(mds.MdsSpec(b.code_len, b.alpha, p.q))
    return sorted(specs, key=lambda s: (s.n, s.k, s.q))


def test_7_mds_property_everywhere():
    t0 = time.perf_counter()
    specs = _grid_mds_specs()
    rng = np.random.default_rng(SEED)
    exhaustive = sampled = 0
    for spec in specs:
        if spec.n <= 12:
            assert is_mds(spec), spec
            exhaustive += 1
            continue
        gen = mds.generator(spec)
        # the generator is exactly the power matrix on distinct nodes
        nodes = np.arange(spec.n, dtype=np.int64)
        col = np.ones(spec.n, dtype=np.int64)
        for j in range(spec.k):
            assert np.array_equal(gen[:, j], col), spec
            col = col * nodes % spec.q
        # 1,000 random k-subsets: explicit inverse, probe-verified; the
        # inverses and probe products are stacked in chunks of at most about
        # 2^22 entries
        chunk = max(1, 2**22 // spec.k**2)
        for start in range(0, 1000, chunk):
            draws = [
                (np.sort(rng.choice(spec.n, size=spec.k, replace=False)),
                 rng.integers(0, spec.q, size=(spec.k, 1)))
                for _ in range(min(chunk, 1000 - start))
            ]
            coords = np.stack([c for c, _ in draws])
            probes = np.stack([p for _, p in draws])[..., 0]
            invs = mds.submatrix_inverse(spec, coords)
            # subset s's probe back through the generator: one product of the
            # whole generator with every subset's column, then each subset's
            # own rows of its own column, with no gathered gen[coords] stack
            cols = linalg.mat_mul(invs, probes[..., None], spec.q)[..., 0]
            full = linalg.mat_mul(gen, cols.T, spec.q)
            back = full[coords, np.arange(len(draws))[:, None]]
            bad = np.flatnonzero((back != probes).any(axis=1))
            assert bad.size == 0, (spec, coords[bad[0]][:5])
        sampled += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 7 MDS property",
        f"{exhaustive} generators exhaustive, {sampled} x 1000 sampled subsets",
        elapsed,
    )


def test_8_wire_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    qs = [2, 3, 11, 257, 65537]
    for i in range(500):
        q = qs[i % len(qs)]
        K, L, D = rng.integers(1, 5), int(rng.integers(1, 20)), int(rng.integers(1, 20))
        mat = rng.integers(0, q, size=(D, K * L))
        buf = simnet.encode_query(mat, q, int(K), L)
        mat2, q2, K2, L2 = decode_dense(buf)
        assert np.array_equal(mat2, mat) and (q2, K2, L2) == (q, K, L)
        assert simnet.encode_query(mat2, q2, K2, L2) == buf
    for i in range(500):
        q = qs[i % len(qs)]
        ans = scheme.Answer(int(rng.integers(0, 50)),
                            rng.integers(0, q, size=int(rng.integers(1, 40))))
        buf = simnet.encode_answer(ans, q)
        ans2, q2 = simnet.decode_answer(buf)
        assert np.array_equal(ans2.values, ans.values) and ans2.db_id == ans.db_id
        assert simnet.encode_answer(ans2, q2) == buf
    # corruption classes: magic, truncation, version
    sample = simnet.encode_query(np.zeros((2, 4), dtype=np.int64), 11, 2, 2)
    with pytest.raises(simnet.ParseError) as e1:
        simnet.decode_query(b"XXXX" + sample[4:])
    assert e1.value.offset == 0
    with pytest.raises(simnet.ParseError) as e2:
        simnet.decode_query(sample[:-1])
    assert str(len(sample)) in str(e2.value)
    with pytest.raises(simnet.ParseError) as e3:
        simnet.decode_query(sample[:4] + bytes([99]) + sample[5:])
    assert "version" in str(e3.value)
    elapsed = time.perf_counter() - t0
    report("criterion 8 wire round-trip",
           "1000 round-trips byte-exact, 3 corruption classes rejected",
           elapsed)
