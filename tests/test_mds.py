import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpir import linalg, mds

from linalg_helpers import python_product, rank
from mds_helpers import is_mds


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
        assert rank(g[list(rows)], 11) == 6
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
    stack = np.stack([np.sort(rng.choice(spec.n, size=spec.k, replace=False)) for _ in range(3)])
    for coords, fast in zip(stack, mds.submatrix_inverse(spec, stack)):
        oracle = linalg.invert(mds.generator(spec)[coords], spec.q)
        assert np.array_equal(fast, oracle)
        assert np.array_equal(mds.submatrix_inverse(spec, coords), oracle)


@given(
    st.sampled_from([101, 257, 2**31 - 1]),
    st.integers(2, 40),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_vandermonde_inverse_structured_vs_generic(q, k, sets, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([np.sort(rng.choice(q, size=k, replace=False)) for _ in range(sets)])
    inverses = mds.vandermonde_inverse(stack, q)
    assert inverses.shape == (sets, k, k)
    # the inverse is unique: residues whose product with V, in Python
    # integers, is the identity
    eye = np.eye(k, dtype=np.int64).tolist()
    for nodes, inv in zip(stack, inverses):
        v = np.array([[pow(int(x), j, q) for j in range(k)] for x in nodes])
        assert np.array_equal(inv, mds.vandermonde_inverse(nodes, q))
        assert inv.min() >= 0 and inv.max() < q
        assert python_product(inv, v, q) == eye


def test_vandermonde_inverse_at_largest_modulus():
    q = 2**31 - 1  # the largest prime its int64 weights allow
    stack = np.array([[q - 1, q - 2, 0, 1, 2**30], [5, q - 3, 2**31 - 2**20, 7, 3]])
    for nodes, inv in zip(stack, mds.vandermonde_inverse(stack, q)):
        v = np.array([[pow(int(x), j, q) for j in range(5)] for x in nodes])
        assert python_product(inv, v, q) == np.eye(5, dtype=np.int64).tolist()


def test_vandermonde_inverse_rejects_modulus_above_2_31():
    q = 2**61 - 1  # prime; products of residues overflow int64
    with pytest.raises(ValueError, match=str(q)):
        mds.vandermonde_inverse(np.array([2, 3, 5]), q)


def test_vandermonde_inverse_rejects_composite_modulus():
    with pytest.raises(ValueError, match="not prime"):
        mds.vandermonde_inverse([0, 1], 10)


@pytest.mark.parametrize("nodes", [[], np.empty((3, 0), dtype=np.int64)], ids=["1-d", "stack"])
def test_vandermonde_inverse_rejects_empty_node_set(nodes):
    with pytest.raises(ValueError, match="k >= 1"):
        mds.vandermonde_inverse(nodes, 7)


@pytest.mark.parametrize(
    "coords, message",
    [
        ((-1, 0), "coordinates [-1] outside 0..4"),
        ((0, 5), "coordinates [5] outside 0..4"),
        ((6, 1), "coordinates [6] outside 0..4"),
        ([(0, 1), (1, 7), (-2, 3)], "coordinates [-2, 7] outside 0..4"),
        ([(0, 1), (2, 2)], "distinct"),
    ],
    ids=["negative", "equals-n", "above-n", "stack", "repeated"],
)
def test_submatrix_inverse_rejects_bad_coordinates(coords, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mds.submatrix_inverse(mds.MdsSpec(5, 2, 7), coords)


def test_verify_mds_property_exhaustive():
    spec = mds.MdsSpec(9, 6, 11)
    assert is_mds(spec)
    assert mds.first_singular(spec, list(itertools.combinations(range(9), 6))) is None
    with pytest.raises(ValueError, match="distinct"):
        mds.first_singular(spec, [(0, 1, 2, 3, 4, 4)])


def test_spec_validation():
    with pytest.raises(ValueError):
        mds.MdsSpec(3, 4, 11)  # k > n
    with pytest.raises(ValueError):
        mds.MdsSpec(12, 3, 11)  # q < n: not enough evaluation points
    with pytest.raises(ValueError):
        mds.MdsSpec(4, 2, 9)  # q not prime
