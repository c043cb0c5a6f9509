import hashlib
import itertools
import os
import struct
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import tpir
from tpir import audit, field, layout, linalg, mds, scheme
from tpir.layout import SchemeParams

from mds_helpers import is_mds


@pytest.mark.parametrize(
    "K,N,T,expected",
    [
        (2, 4, 2, Fraction(2, 3)),
        (2, 3, 2, Fraction(3, 5)),
        (2, 4, 3, Fraction(4, 7)),
        (3, 3, 2, Fraction(9, 19)),
        (1, 4, 2, Fraction(1)),
        (5, 3, 3, Fraction(1, 5)),
        (4, 2, 2, Fraction(1, 4)),
    ],
)
def test_capacity_values(K, N, T, expected):
    assert audit.capacity(K, N, T) == expected


def test_capacity_validation():
    with pytest.raises(ValueError):
        audit.capacity(0, 3, 2)
    with pytest.raises(ValueError):
        audit.capacity(2, 3, 4)
    with pytest.raises(ValueError):
        audit.capacity(2, 3, 0)


def test_capacity_shape():
    assert audit.capacity_shape_check().passed


def make_plan(p, desired=0, seed=0, break_alignment=False):
    rng = np.random.default_rng(seed)
    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, desired, secrets)
    if break_alignment:
        audit.without_alignment(plan)
    return plan


@pytest.mark.parametrize("K,N,T,M", [(2, 3, 2, 3), (3, 3, 2, 3), (2, 4, 3, 6), (1, 3, 2, 4)])
def test_structural_privacy_passes(K, N, T, M):
    p = SchemeParams(K, N, T, M)
    for desired in range(K):
        plan = make_plan(p, desired)
        res = audit.structural_privacy_check(p, desired, plan)
        assert res.passed, res.details


def test_structural_privacy_catches_broken_plan():
    p = SchemeParams(2, 3, 2, 3)
    plan = make_plan(p, 0, break_alignment=True)
    res = audit.structural_privacy_check(p, 0, plan)
    assert not res.passed
    assert "alignment_violation" in res.details


# sha256 prefixes of the plans that ``build_queries(..., break_alignment=True)``
# gave before the fault moved out of the builder, one per desired index, from
# secrets drawn with default_rng(100 K + 10 N + M)
BROKEN_PLAN_DIGESTS = {
    (2, 3, 2, 4, None): ("a0a6c220b8945053", "28f1940aa18f7221"),
    (2, 3, 2, 4, 3): ("7b5d1d75306b0b27", "4fcfd8379cea69a4"),
    (3, 2, 1, 3, None): ("3228a6c2401d8efd", "d570bcc426a63ca6", "8ad15c54eb389d1b"),
    (3, 2, 1, 3, 3): ("64374706fd0479c2", "cfdc582a312eec68", "f846cc878cbd1806"),
    (3, 3, 2, 4, None): ("e24dbc441f8b4e7a", "11184f4c1925296c", "8818df6bdb200824"),
    (3, 3, 2, 4, 3): ("0096319df414041a", "eea73c8425b6c67f", "0ae3ea8d4c0164e4"),
}


@pytest.mark.parametrize("K,N,T,M,count", list(BROKEN_PLAN_DIGESTS))
def test_without_alignment_reproduces_pinned_plans(K, N, T, M, count):
    p = SchemeParams(K, N, T, M)
    secrets = scheme.sample_secrets(p, np.random.default_rng(K * 100 + N * 10 + M), count)
    got = []
    for desired in range(K):
        plan = scheme.build_queries(p, desired, secrets)
        audit.without_alignment(plan)
        # hashed as int64, the dtype the flagged plans were held in when pinned
        data = b"".join(m.astype(np.int64).tobytes() for m in plan.matrices)
        got.append(hashlib.sha256(data).hexdigest()[:16])
    assert tuple(got) == BROKEN_PLAN_DIGESTS[K, N, T, M, count]


def test_without_alignment_zeroes_only_aligned_parity():
    """The fault zeroes the parity of each pair code, and nothing else."""
    p = SchemeParams(2, 3, 2, 3)
    good = make_plan(p, 0)
    bad = make_plan(p, 0, break_alignment=True)
    # parity of pair block B rides in B + {desired}, on the segments of B's messages
    parity = np.zeros((good.layout.per_db, p.K * p.L), dtype=bool)
    for b in good.layout.blocks:
        if not b.contains_desired and b.alpha > 0:
            for k in b.subset:
                parity[good.layout.by_subset[b.aligned].rows, k * p.L : (k + 1) * p.L] = True
    assert parity.any()
    for g, b in zip(good.matrices, bad.matrices):
        assert np.array_equal(g[~parity], b[~parity])
        assert not b[parity].any()
    assert any(g[parity].any() for g in good.matrices)


@pytest.mark.parametrize("K,N,T,M", [(1, 3, 2, 4), (2, 2, 2, 2), (3, 3, 3, 4)])
def test_without_alignment_needs_parity_to_break(K, N, T, M):
    plan = make_plan(SchemeParams(K, N, T, M))
    before = [m.copy() for m in plan.matrices]
    with pytest.raises(ValueError, match="K > 1 and T < N"):
        audit.without_alignment(plan)
    assert all(np.array_equal(a, b) for a, b in zip(before, plan.matrices))


def test_structural_privacy_rejects_stacked_plan():
    # a stack of plans used to escape as a bare IndexError from the support check
    p = SchemeParams(2, 3, 2, 3)
    secrets = scheme.sample_secrets(p, np.random.default_rng(0), count=4)
    plan = scheme.build_queries(p, 0, secrets)
    with pytest.raises(ValueError, match="one slice at a time"):
        audit.structural_privacy_check(p, 0, plan)


def test_structural_privacy_sampling_needs_generator():
    # C(12, 5) = 792 collusion subsets exceed the cap of 500, so some are drawn
    p = SchemeParams(1, 5, 5, 12)
    with pytest.raises(ValueError, match="needs a generator"):
        audit.structural_privacy_check(p, 0)
    res = audit.structural_privacy_check(p, 0, rng=np.random.default_rng(2))
    assert res.passed and res.details["subsets_checked"] == 500


def test_structural_privacy_catches_tampered_support():
    p = SchemeParams(2, 3, 2, 3)
    plan = make_plan(p, 0)
    tampered = [m.copy() for m in plan.matrices]
    tampered[0][0, p.L + 1] = 1  # block {0} row leaking into message 1's segment
    bad = scheme.QueryPlan(desired=0, layout=plan.layout, matrices=tuple(tampered))
    res = audit.structural_privacy_check(p, 0, bad)
    assert not res.passed
    assert "support_violation" in res.details


def test_structural_counts_match_worked_example():
    """(2,3,2) on 3 databases: every 2-subset sees 6 variables per message."""
    p = SchemeParams(2, 3, 2, 3)
    plan = make_plan(p, 0)
    res = audit.structural_privacy_check(p, 0, plan)
    assert res.passed
    assert res.details["per_message_variables"] == 6
    assert res.details["subsets_checked"] == 3


def test_structural_privacy_rejects_plan_for_other_arguments():
    # a plan checked against other arguments would report a privacy failure
    # (or a coordinate error) that the plan does not have
    p = SchemeParams(3, 3, 1, 4)
    plan = make_plan(p, 0)
    with pytest.raises(ValueError, match="desired=0"):
        audit.structural_privacy_check(p, 1, plan)
    with pytest.raises(ValueError, match="M=5"):
        audit.structural_privacy_check(p, 0, make_plan(SchemeParams(3, 3, 1, 5), 0))
    assert audit.structural_privacy_check(SchemeParams(3, 3, 1, 4), 0, plan).passed


def corrupt_one_inverse(monkeypatch, spec, bad):
    """Make ``mds.submatrix_inverse`` wrong for ``spec``'s coordinate set ``bad`` in a stack."""
    real = mds.submatrix_inverse

    def submatrix_inverse(s, coords):
        out = real(s, coords)
        if s == spec and np.ndim(coords) == 2:
            hit = (np.asarray(coords) == np.asarray(bad)).all(axis=1)
            out[hit, 0, 0] = (out[hit, 0, 0] + 1) % s.q
        return out

    monkeypatch.setattr(mds, "submatrix_inverse", submatrix_inverse)


def test_certification_catches_one_wrong_inverse(monkeypatch):
    # negative control: the product with the rows must expose one wrong inverse
    spec = mds.MdsSpec(9, 6, 11)
    sets = list(itertools.combinations(range(9), 6))
    corrupt_one_inverse(monkeypatch, spec, sets[40])
    assert mds.first_singular(spec, sets) == 40
    assert mds.first_singular(spec, sets[41:]) is None
    assert not is_mds(spec)
    assert is_mds(mds.MdsSpec(9, 5, 11))


@pytest.mark.parametrize("view", ["pair", "desired"])
def test_structural_privacy_names_the_subset_of_a_wrong_inverse(monkeypatch, view):
    p = SchemeParams(3, 3, 2, 4)
    plan = make_plan(p, 1)
    assert audit.structural_privacy_check(p, 1, plan).passed
    lay = plan.layout
    subsets = list(itertools.combinations(range(p.M), p.T))
    bad = subsets[4]
    if view == "pair":
        block = lay.by_subset[(0, 2)]
        spec, coords = block.code, lay.codeword_coords(block, bad)
        # the only pair block with this (12, 6) code
        expected = {"subset": bad, "block": (0, 2), "reason": "singular MDS submatrix"}
    else:
        spec = mds.MdsSpec(lay.desired_code_len, p.T * p.N ** (p.K - 1), p.q)
        coords = lay.desired_coords(bad)
        expected = {"subset": bad, "reason": "desired code rows rank-deficient"}
    corrupt_one_inverse(monkeypatch, spec, coords)
    res = audit.structural_privacy_check(p, 1, plan)
    assert not res.passed
    assert res.details == expected


def test_lemma1_small_exhaustive():
    points = [
        (2, 1, 2, 6), (2, 2, 2, 6), (3, 2, 2, 168), (3, 3, 2, 168), (2, 2, 3, 48),
        (4, 2, 2, 20160), (3, 2, 3, 11232),
        # products of residues near 17 overflow a uint8 enumeration
        (2, 1, 17, 78336),
    ]
    for alpha, beta, q, gl_size in points:
        res = audit.lemma1_exhaustive_check(alpha, beta, q)
        assert res.passed, (alpha, beta, q, res.details)
        assert res.details["gl_size"] == gl_size


@pytest.mark.parametrize("alpha,beta,q", [(2, 1, 3), (3, 2, 2), (2, 2, 3)])
def test_lemma1_rejects_a_group_missing_one_element(monkeypatch, alpha, beta, q):
    full = linalg.enumerate_full_rank
    monkeypatch.setattr(linalg, "enumerate_full_rank", lambda n, q: full(n, q)[:-1])
    res = audit.lemma1_exhaustive_check(alpha, beta, q)
    assert not res.passed
    assert set(res.details) == {"G_index", "index_vector"}


def test_lemma1_guard():
    with pytest.raises(ValueError):
        audit.lemma1_exhaustive_check(4, 2, 7)
    with pytest.raises(ValueError):
        audit.lemma1_exhaustive_check(2, 3, 2)
    # q^(n^2) = 61^4 < 2^24, but |GL(2, 61)| * 4 entries are not
    with pytest.raises(ValueError, match="too large"):
        audit.lemma1_exhaustive_check(2, 1, 61)


def test_lemma1_work_bound(monkeypatch):
    # every point the tests and CI run is admitted, and so is (2, 1, 31):
    # 60 cases of |GL(2, 31)| = 892800 matrices, 5.4e7 in all, about 8 s
    for alpha, beta, q in [(3, 2, 3), (4, 2, 2), (2, 1, 17), (2, 1, 31)]:
        audit._check_lemma1_args(alpha, beta, q)

    # 1.8 million cases of 892800 matrices each: rejected before any enumeration
    def enumerate_nothing(n, q):
        raise AssertionError("enumerated before the work bound")

    monkeypatch.setattr(linalg, "enumerate_full_rank", enumerate_nothing)
    with pytest.raises(ValueError, match="1594183680000 matrices > 2"):
        audit.lemma1_exhaustive_check(2, 2, 31)


@pytest.mark.parametrize(
    "point,factor,details",
    [
        ((5, 4, 3), 2, {"axis": "K", "K": 4, "N": 4, "T": 3}),
        ((3, 5, 3), 2, {"axis": "T", "N": 5, "T": 2}),
        ((12, 2, 1), None, {"axis": "limit", "N": 2, "T": 1}),
    ],
    ids=["K", "T", "limit"],
)
def test_capacity_shape_check_names_the_point_that_breaks(monkeypatch, point, factor, details):
    """One capacity patched out of shape fails the check at that point, and
    each capacity of the grid is computed once."""
    honest = audit.capacity
    calls = Counter()

    def patched(K, N, T):
        calls[K, N, T] += 1
        if (K, N, T) != point:
            return honest(K, N, T)
        # doubled, or just below the K -> infinity limit
        return honest(K, N, T) * factor if factor else Fraction(N - T, N) - Fraction(1, 10**6)

    monkeypatch.setattr(audit, "capacity", patched)
    res = audit.capacity_shape_check()
    assert not res.passed and res.details == details
    assert len(calls) == 240 and set(calls.values()) == {1}
    monkeypatch.setattr(audit, "capacity", honest)
    assert audit.capacity_shape_check().passed


@pytest.mark.parametrize("lemma1", [(2, 1, 4), (4, 2, 7), (2, 3, 2)])
def test_run_audit_checks_lemma1_args_before_any_check(monkeypatch, lemma1):
    def no_secrets(*args, **kwargs):
        raise AssertionError("the audit ran before its lemma-1 arguments were checked")

    monkeypatch.setattr(scheme, "sample_secrets", no_secrets)
    with pytest.raises(ValueError, match="not prime|too large|beta"):
        audit.run_audit(SchemeParams(4, 5, 2, 7, q=2**31 - 1), trials=1, seed=1, lemma1=lemma1)


def test_correctness_sweep_examples():
    rng = np.random.default_rng
    assert audit.correctness_sweep(SchemeParams(2, 3, 2, 3), trials=5, rng=rng(0)).passed
    res = audit.correctness_sweep(SchemeParams(2, 3, 2, 5), trials=2, rng=rng(0))
    assert res.passed and res.details["subsets"] == 10
    assert audit.correctness_sweep(SchemeParams(1, 2, 1, 2), trials=2, rng=rng(0)).passed


@pytest.mark.parametrize("desired,store", [(0, 1), (1, 0)])
def test_correctness_sweep_catches_one_wrong_secret_inverse(monkeypatch, desired, store):
    # negative control: one entry of one desired index's secret inverse is off
    # by one. The expected failures are those of the per-subset loop the sweep
    # had before it stacked its subsets: first desired, then subset, then store.
    p = SchemeParams(2, 4, 3, 6)
    honest = audit.correctness_sweep(p, trials=3, rng=np.random.default_rng(2))
    assert honest.passed
    assert honest.details == {"trials": 3, "subsets": 15, "decodes": 90}
    real, calls = linalg.solve, []

    def solve(secret, y, q):
        x = real(secret, y, q)
        if len(calls) == desired:  # the sweep solves once per desired index, in order
            # as if entry (0, 0) of secret^-1 were one more: row 0 gains y's row 0
            x = x.copy()
            x[0] = (x[0] + y[0]) % q
        calls.append(q)
        return x

    monkeypatch.setattr(linalg, "solve", solve)
    res = audit.correctness_sweep(p, trials=3, rng=np.random.default_rng(2))
    assert not res.passed
    assert res.details == {"desired": desired, "store": store, "responders": (0, 1, 2, 3)}
    assert len(calls) == desired + 1


def test_randomised_checks_require_generator():
    # the secrets come from the caller's generator only, never a fixed seed
    p = SchemeParams(2, 2, 1, 2)
    with pytest.raises(TypeError):
        audit.correctness_sweep(p, trials=2)
    with pytest.raises(TypeError):
        audit.correctness_sweep(p, 2, np.random.default_rng(0))  # keyword only
    with pytest.raises(TypeError):
        audit.empirical_privacy_check(p, (0,), 50)
    with pytest.raises(TypeError):
        audit.run_audit(p, trials=2)


def test_rate_vs_capacity_m_independence():
    for M in (3, 4, 5):
        p = SchemeParams(2, 3, 2, M)
        assert scheme.achieved_rate(p) == audit.capacity(2, 3, 2) == Fraction(3, 5)
        assert layout.total_download(p) == 15


def test_empirical_privacy_small():
    p = SchemeParams(2, 2, 1, 2)
    res = audit.empirical_privacy_check(p, (0,), 1500, rng=np.random.default_rng(11))
    assert res.passed, res.details


def test_empirical_privacy_rejects_broken():
    p = SchemeParams(2, 2, 1, 2)
    res = audit.empirical_privacy_check(
        p, (1,), 1500, rng=np.random.default_rng(12), break_alignment=True
    )
    assert res.passed  # for the broken variant, "passed" means it was rejected
    assert res.details["min_p"] < 0.001


def test_empirical_privacy_t_equals_n():
    p = SchemeParams(2, 2, 2, 2)
    res = audit.empirical_privacy_check(p, (0, 1), 800, rng=np.random.default_rng(13))
    assert res.passed, res.details
    # with no parity to zero there is no broken variant to reject
    with pytest.raises(ValueError, match="K > 1 and T < N"):
        audit.empirical_privacy_check(
            p, (0, 1), 800, rng=np.random.default_rng(13), break_alignment=True
        )


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("samples", [200, 5000])
def test_empirical_privacy_one_shared_key_is_a_pass(K, samples):
    # at q = 2 every plan a coalition sees is the same, so the index
    # distributions agree exactly: p = 1.0, not a sample count error
    p = SchemeParams(K, 1, 1, 2)
    res = audit.empirical_privacy_check(p, (1,), samples, rng=np.random.default_rng(K))
    assert res.passed
    assert res.details["min_p"] == 1.0
    assert (res.details["bucketing"], res.details["buckets"]) == ("value", 1)


def test_empirical_privacy_too_few_samples():
    p = SchemeParams(2, 2, 1, 2)
    for samples in (3, 0, -5):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="[Ii]ncrease"):
            audit.empirical_privacy_check(p, (0,), samples, rng=rng)
        if samples < 1:  # rejected before any draw
            assert rng.bit_generator.state == np.random.default_rng(14).bit_generator.state


def test_empirical_privacy_draws_in_bounded_chunks(monkeypatch):
    p = SchemeParams(2, 2, 1, 2)
    entries = p.M * layout.build_layout(p, 0).per_db * p.K * p.L  # one plan's entries
    monkeypatch.setattr(audit, "_CHUNK_ENTRIES", 7 * entries + 3)
    counts = []
    draw = scheme.sample_secrets

    def spy(params, rng, count=None, desired=None):
        counts.append((count, desired))
        return draw(params, rng, count, desired)

    monkeypatch.setattr(scheme, "sample_secrets", spy)
    res = audit.empirical_privacy_check(p, (0,), 1500, rng=np.random.default_rng(16))
    assert res.passed, res.details
    # each index's plans come from secrets drawn for that index
    assert counts == [(c, ell) for ell in range(p.K) for c in [7] * 214 + [2]]


@pytest.mark.parametrize("K,N,T,M,t_subset", [(2, 2, 1, 2, (1,)), (3, 3, 2, 4, (0, 3))])
def test_chunk_keys_match_per_sample_bytes(K, N, T, M, t_subset):
    p = SchemeParams(K, N, T, M)
    secrets = scheme.sample_secrets(p, np.random.default_rng(K + M), count=5, desired=1)
    plan = scheme.build_queries(p, 1, secrets)
    seen = [plan.matrices[m] for m in t_subset]
    values, masks = audit._chunk_keys(seen, p.q)
    for s in range(5):
        assert values[s].tobytes() == b"".join(
            struct.pack("<II", *a[s].shape) + field.elements_to_bytes(a[s], p.q) for a in seen
        )
        assert masks[s].tobytes() == b"".join(
            np.packbits(a[s].reshape(-1) != 0).tobytes() for a in seen
        )


@pytest.mark.parametrize(
    "t_subset,seed,broken,min_p",
    [((0,), 11, False, 0.6783709335456621), ((1,), 12, True, 6.780697253216704e-142)],
    ids=["honest", "broken"],
)
def test_empirical_privacy_one_plan_chunks_reproduce_pinned_p(
    monkeypatch, t_subset, seed, broken, min_p
):
    # With one plan per chunk the check draws exactly as it did when it drew
    # one plan at a time; these p-values were recorded then, so the bytes
    # hashed and the buckets they fall in are unchanged.
    monkeypatch.setattr(audit, "_CHUNK_ENTRIES", 1)
    p = SchemeParams(2, 2, 1, 2)
    res = audit.empirical_privacy_check(
        p, t_subset, 1500, rng=np.random.default_rng(seed), break_alignment=broken
    )
    assert res.passed and res.details["bucketing"] == "support_mask"
    assert res.details["min_p"] == pytest.approx(min_p, rel=1e-9)


def test_empirical_privacy_value_bucketing_reproduces_pinned_p():
    # At q = 3 a single database's plans take few values, so they are
    # bucketed by value, each distinct value its own bucket in sorted order;
    # the two pins above take the hashed support-mask buckets.
    p = SchemeParams(2, 1, 1, 3)
    res = audit.empirical_privacy_check(p, (0,), 200, rng=np.random.default_rng(1))
    assert res.passed
    assert (res.details["bucketing"], res.details["buckets"]) == ("value", 4)
    assert res.details["min_p"] == pytest.approx(0.21095047241378395, rel=1e-9)


@pytest.mark.parametrize(
    "K,N,T,M,t_subset,bad",
    [(2, 2, 1, 2, (-1,), -1), (2, 2, 1, 2, (5,), 5), (2, 3, 2, 3, (1, 1), 1)],
    ids=["negative", "id-above-M", "repeated"],
)
def test_empirical_privacy_rejects_bad_database_ids(K, N, T, M, t_subset, bad):
    p = SchemeParams(K, N, T, M)
    with pytest.raises(ValueError, match=rf"bad ids \[{bad}\]"):
        audit.empirical_privacy_check(p, t_subset, 50, rng=np.random.default_rng(15))


def test_empirical_privacy_needs_two_indices():
    # with K = 1 there is no pair of desired indices to compare
    p = SchemeParams(1, 2, 1, 2)
    with pytest.raises(ValueError, match="K >= 2"):
        audit.empirical_privacy_check(p, (0,), 200, rng=np.random.default_rng(1))


@pytest.mark.parametrize("dof", [*range(1, 30), 50, 100, 199])
def test_chi2_sf_matches_scipy(dof):
    # from the lower bulk out to tails near 1e-200
    xs = [dof * f for f in (0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)] + [100.0, 400.0, 900.0]
    got = [audit._chi2_sf(x, dof) for x in xs]
    np.testing.assert_allclose(got, stats.chi2.sf(xs, dof), rtol=1e-9, atol=0)
    assert audit._chi2_sf(0.0, dof) == 1.0


def test_chi2_statistic_p_matches_contingency():
    rng = np.random.default_rng(6)
    for _ in range(300):
        C = int(rng.integers(2, 60))
        probs = rng.dirichlet(np.ones(C), size=2).mean(axis=0)
        table = np.stack([rng.multinomial(int(rng.integers(400, 4000)), probs) for _ in range(2)])
        table = table[:, table.sum(axis=0) > 0]
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        stat = float(((table - expected) ** 2 / expected).sum())
        want = stats.chi2_contingency(table, correction=False)[1]
        assert audit._chi2_sf(stat, table.shape[1] - 1) == pytest.approx(want, rel=1e-9)


def test_tpir_runs_without_scipy():
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
import tpir
from tpir import audit
p = tpir.SchemeParams(2, 2, 1, 2)
res = audit.empirical_privacy_check(p, (0,), 500, rng=np.random.default_rng(11))
assert res.passed, res.details
assert sys.modules["scipy"] is None
assert not [m for m in sys.modules if m.startswith("scipy.")]
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tpir.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_run_audit_assembles_report():
    report = audit.run_audit(SchemeParams(2, 3, 2, 4), trials=3, seed=5)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names.count("structural_privacy") == 1
    assert names.count("correctness_sweep") == 1
    assert names.count("rate_equals_capacity") == 1
    assert len(names) == len(set(names))
    assert all(isinstance(line, str) for line in report.lines())


@pytest.mark.parametrize("broken", [False, True])
def test_run_audit_at_the_benchmark_session_point(broken):
    report = audit.run_audit(SchemeParams(4, 5, 2, 7), trials=2, seed=3, break_alignment=broken)
    assert report.passed, report.lines()
    checks = {c.name: c for c in report.checks}
    assert checks["correctness_sweep"].details == {"trials": 2, "subsets": 21, "decodes": 168}
    if broken:
        # caught by the plan's alignment check, before any count or inverse
        detected = checks["structural_privacy_detects_broken"]
        assert detected.passed and "alignment_violation" in detected.details
        assert "structural_privacy" not in checks
    else:
        # C(7, 2) = 21 coalitions, each seeing T * N^(K-1) = 250 variables per message
        assert checks["structural_privacy"].details == {
            "subsets_checked": 21, "per_message_variables": 250,
        }


def test_run_audit_fault_injection_guard():
    with pytest.raises(ValueError, match="K > 1 and T < N"):
        audit.run_audit(SchemeParams(1, 2, 1, 2), seed=0, break_alignment=True)
    with pytest.raises(ValueError, match="K > 1 and T < N"):
        audit.run_audit(SchemeParams(2, 2, 2, 2), seed=0, break_alignment=True)
