import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpir import linalg, mds


def test_generator_shape_and_determinism():
    spec = mds.MdsSpec(9, 6, 11)
    g = mds.generator(spec)
    assert g.shape == (9, 6)
    assert np.array_equal(g, mds.generator(mds.MdsSpec(9, 6, 11)))
    # Vandermonde rows: powers of the evaluation point
    for x in range(9):
        assert np.array_equal(g[x], np.array([pow(x, j, 11) for j in range(6)]))


def test_all_submatrices_invertible_9_6_11():
    spec = mds.MdsSpec(9, 6, 11)
    g = mds.generator(spec)
    n_checked = 0
    for rows in itertools.combinations(range(9), 6):
        assert linalg.rank(g[list(rows)], 11) == 6
        n_checked += 1
    assert n_checked == 84


def test_degenerate_single_row():
    g = mds.generator(mds.MdsSpec(2, 1, 2))
    assert np.array_equal(g, np.array([[1], [1]]))


@st.composite
def code_instance(draw):
    q = draw(st.sampled_from([11, 13, 101]))
    n = draw(st.integers(2, min(q, 10)))
    k = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return mds.MdsSpec(n, k, q), seed


def codeword(spec, info):
    return linalg.mat_mul(mds.generator(spec), info, spec.q)


@given(code_instance())
def test_encode_is_linear(inst):
    """Alignment: a sum of codewords of the same code is again a codeword."""
    spec, seed = inst
    rng = np.random.default_rng(seed)
    u = rng.integers(0, spec.q, size=(spec.k, 1))
    v = rng.integers(0, spec.q, size=(spec.k, 1))
    lhs = (codeword(spec, u) + codeword(spec, v)) % spec.q
    assert np.array_equal(lhs, codeword(spec, (u + v) % spec.q))


@given(code_instance())
def test_any_k_coords_determine_the_rest(inst):
    spec, seed = inst
    rng = np.random.default_rng(seed)
    u = rng.integers(0, spec.q, size=(spec.k, 1))
    v = rng.integers(0, spec.q, size=(spec.k, 1))
    total = (codeword(spec, u) + codeword(spec, v)) % spec.q
    coords = rng.choice(spec.n, size=spec.k, replace=False)
    inverse = mds.submatrix_inverse(spec, coords)
    info_sum = linalg.mat_mul(inverse, total[coords], spec.q)
    assert np.array_equal(codeword(spec, info_sum), total)


@given(code_instance())
def test_submatrix_inverse_matches_generic_elimination(inst):
    spec, seed = inst
    rng = np.random.default_rng(seed)
    coords = np.sort(rng.choice(spec.n, size=spec.k, replace=False))
    fast = mds.submatrix_inverse(spec, coords)
    oracle = linalg.invert(mds.generator(spec)[coords], spec.q)
    assert np.array_equal(fast, oracle)


@given(st.sampled_from([101, 257]), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_vandermonde_inverse_structured_vs_generic(q, k, seed):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(q, size=k, replace=False))
    v = np.array([[pow(int(x), j, q) for j in range(k)] for x in nodes])
    assert np.array_equal(mds.vandermonde_inverse(nodes, q), linalg.invert(v, q))


def test_vandermonde_inverse_rejects_modulus_above_2_31():
    q = 2**61 - 1  # prime; products of residues overflow int64
    with pytest.raises(ValueError, match=str(q)):
        mds.vandermonde_inverse(np.array([2, 3, 5]), q)


def test_verify_mds_property_exhaustive_and_sampled():
    assert mds.verify_mds_property(mds.MdsSpec(9, 6, 11), exhaustive=True)
    rng = np.random.default_rng(0)
    big = mds.MdsSpec(30, 12, 101)
    assert mds.verify_mds_property(big, exhaustive=False, samples=200, rng=rng)


def test_spec_validation():
    with pytest.raises(ValueError):
        mds.MdsSpec(3, 4, 11)  # k > n
    with pytest.raises(ValueError):
        mds.MdsSpec(12, 3, 11)  # q < n: not enough evaluation points
    with pytest.raises(ValueError):
        mds.MdsSpec(4, 2, 9)  # q not prime
