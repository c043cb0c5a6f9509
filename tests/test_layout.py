from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tpir import layout, scheme
from tpir.layout import SchemeParams, build_layout
from tpir.mds import MdsSpec

from linalg_helpers import BOUND


def params_grid(max_K=4, max_N=5, extra_M=(0, 1, 2)):
    for K in range(1, max_K + 1):
        for N in range(2, max_N + 1):
            for T in range(1, N + 1):
                for dm in extra_M:
                    yield SchemeParams(K, N, T, N + dm)


def test_golden_two_messages_three_dbs():
    """K=2, N=3, T=2 replicated on 3 databases: 5 rows per database."""
    p = SchemeParams(2, 3, 2, 3)
    lay = build_layout(p, 0)
    shapes = {b.subset: (b.alpha, b.per_db_len) for b in lay.blocks}
    assert shapes == {(0,): (6, 2), (1,): (6, 2), (0, 1): (3, 1)}
    assert lay.per_db == 5
    assert layout.total_download(p) == 15
    assert p.q == 11  # smallest prime covering the longest code


def test_golden_three_messages():
    p = SchemeParams(3, 3, 2, 3)
    lay = build_layout(p, 0)
    assert lay.per_db == 19
    assert layout.total_download(p) == 57
    # layer variable totals: 12 per singleton, 6 per pair block, 3 mixed-all
    alphas = {b.subset: b.alpha for b in lay.blocks}
    assert alphas[(0,)] == alphas[(1,)] == alphas[(2,)] == 12
    assert alphas[(0, 1)] == alphas[(1, 2)] == 6
    assert alphas[(0, 1, 2)] == 3


@pytest.mark.parametrize(
    "K,N,T,M,total",
    [(2, 3, 2, 3, 15), (2, 4, 2, 4, 24), (2, 4, 3, 4, 28), (3, 3, 2, 3, 57)],
)
def test_golden_downloads(K, N, T, M, total):
    assert layout.total_download(SchemeParams(K, N, T, M)) == total


def test_per_layer_counts_golden():
    """Rows per database of the blocks of each size, and of those holding the desired index."""
    by_layer = {}
    for b in build_layout(SchemeParams(2, 3, 2, 3), 0).blocks:
        row = by_layer.setdefault(len(b.subset), {"total": 0, "desired_touching": 0})
        row["total"] += b.per_db_len
        row["desired_touching"] += b.per_db_len if b.contains_desired else 0
    assert by_layer[1] == {"total": 4, "desired_touching": 2}
    assert by_layer[2] == {"total": 1, "desired_touching": 1}
    assert build_layout(SchemeParams(2, 3, 2, 3), 0).per_db == 5


def test_canonical_subset_order():
    subsets = layout.canonical_subsets(3)
    assert subsets == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
    ]


@pytest.mark.parametrize("p", list(params_grid(3, 4, (0, 1))))
def test_row_budget_identity(p):
    """Total rows per database times N equals the download over N responders."""
    lay = build_layout(p, 0)
    assert lay.per_db * p.N == layout.total_download(p)
    assert sum(b.per_db_len for b in lay.blocks) == lay.per_db
    assert sum(b.block_len for b in lay.blocks) == p.M * lay.per_db


@pytest.mark.parametrize("p", list(params_grid(3, 4, (0, 2))))
def test_secret_row_budget(p):
    """Every message's secret rows across blocks cover exactly its first T*N^(K-1) rows."""
    for desired in range(p.K):
        lay = build_layout(p, desired)
        for k in range(p.K):
            if k == desired:
                continue
            used = sorted(
                b.secret_rows[k] for b in lay.blocks
                if not b.contains_desired and k in b.subset and b.alpha
            )
            total = sum(hi - lo for lo, hi in used)
            assert total == p.T * p.N ** (p.K - 1) == p.undesired_secret_rows
            # the first rows, which are all a secret drawn for ``desired`` holds
            assert used[0][0] == 0
            # contiguous, non-overlapping
            for (lo1, hi1), (lo2, hi2) in zip(used, used[1:]):
                assert hi1 == lo2


def test_desired_code_length():
    p = SchemeParams(2, 4, 3, 6)
    lay = build_layout(p, 1)
    assert lay.desired_code_len == p.M * p.N ** (p.K - 1)
    covered = sum(b.block_len for b in lay.blocks if b.contains_desired)
    assert covered == lay.desired_code_len


def test_rate_is_m_independent():
    rates = {
        scheme.achieved_rate(SchemeParams(2, 3, 2, M)) for M in (3, 4, 5, 7)
    }
    assert rates == {Fraction(3, 5)}


def test_t_equals_n_downloads_everything():
    p = SchemeParams(3, 2, 2, 2)
    assert layout.total_download(p) == p.K * p.L
    assert scheme.achieved_rate(p) == Fraction(1, p.K)


def test_param_validation():
    with pytest.raises(ValueError):
        SchemeParams(0, 2, 1, 2)
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 4, 3)  # T > N
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 2, 2)  # M < N
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 2, 3, q=7)  # q below the longest code length


def test_q_override_accepted():
    p = SchemeParams(2, 3, 2, 3, q=13)
    assert p.q == 13
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 2, 3, q=12)  # not prime
    with pytest.raises(ValueError, match=str(2**61 - 1)):
        SchemeParams(2, 3, 2, 3, q=2**61 - 1)  # prime, but elimination overflows int64


@pytest.mark.parametrize("point", [(10, 10, 1, 10), (3, 2, 1, 3, 2**31 - 1)])
def test_params_refuse_a_modulus_beyond_the_bound_chosen_or_passed(point):
    # K * L * (q-1)^2 must stay below 2^53: the default q of (10, 10, 1, 10)
    # is 10000000019 with L = 10^10, and 2^31 - 1 is refused at every L
    with pytest.raises(ValueError, match=BOUND):
        SchemeParams(*point)


@given(st.integers(1, 4), st.integers(2, 5), st.data())
def test_block_slices_partition(K, N, data):
    T = data.draw(st.integers(1, N))
    M = data.draw(st.integers(N, N + 2))
    p = SchemeParams(K, N, T, M)
    desired = data.draw(st.integers(0, K - 1))
    lay = build_layout(p, desired)
    dbs = data.draw(st.permutations(range(M)))[: data.draw(st.integers(1, M))]
    colluders = data.draw(st.permutations(range(M)))[:T]
    row = 0
    for b in lay.blocks:
        # rows tile one database's [0, per_db) in canonical order
        assert b.rows == slice(row, row + b.per_db_len)
        row += b.per_db_len
        assert np.array_equal(b.coords(range(p.M)), np.arange(b.block_len))
        # coords keep the order of dbs: database m holds [m * per_db, (m+1) * per_db)
        pdl = b.per_db_len
        expected = np.concatenate([np.arange(m * pdl, (m + 1) * pdl) for m in dbs])
        assert np.array_equal(b.coords(dbs), expected)
        if b.subset == (desired,):
            assert b.aligned is None
        else:
            other = lay.by_subset[b.aligned]
            assert other.aligned == b.subset
            assert set(b.subset) ^ set(other.subset) == {desired}
            # a pair code's parity exactly fills the block aligned with it
            pair, child = (other, b) if b.contains_desired else (b, other)
            assert pair.parity_len == child.block_len
            # the pair code, None without a core; T databases hold alpha coordinates
            if b is pair and b.alpha == 0:
                assert b.code is None and b.code_len == 0
            elif b is pair:
                assert b.code == MdsSpec(M * b.alpha // T, b.alpha, p.q)
                assert np.array_equal(lay.codeword_coords(b, range(M)), np.arange(b.code_len))
                held = lay.codeword_coords(b, colluders)
                assert held.size == len(set(held.tolist())) == b.alpha
            else:
                assert b.code is None and b.code_len is None
    assert lay.desired_code == MdsSpec(lay.desired_code_len, p.L, p.q)
    assert row == lay.per_db
