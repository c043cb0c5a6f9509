import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from tpir import field, linalg

from linalg_helpers import rank, reference_eliminate


def gl_order(n, q):
    """|GL(n,q)| by the classical product formula."""
    total = 1
    for i in range(n):
        total *= q**n - q**i
    return total


def _brute_force_group(n, q):
    """GL(n, q) as the bytes of every n x n matrix of rank n, by the reference elimination."""
    every = np.array(list(itertools.product(range(q), repeat=n * n)), dtype=np.int64)
    return {
        m.tobytes()
        for m in every.reshape(-1, n, n)
        if rank(m, q) == n
    }


@pytest.mark.parametrize(
    "n,q,expected", [(1, 2, 1), (2, 2, 6), (3, 2, 168), (2, 3, 48), (2, 5, 480), (3, 3, 11232)]
)
def test_count_full_rank_small(n, q, expected):
    """The enumeration is GL(n, q), each element once, against a brute force."""
    assert gl_order(n, q) == expected
    mats = linalg.enumerate_full_rank(n, q)
    assert mats.shape == (expected, n, n) and mats.dtype == field.element_dtype(q)
    keys = [m.tobytes() for m in mats.astype(np.int64)]  # the brute force's dtype
    assert len(set(keys)) == expected
    assert set(keys) == _brute_force_group(n, q)


@st.composite
def square_matrix(draw):
    q = draw(st.sampled_from([2, 3, 5, 11, 101]))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(n, n)), q


@given(square_matrix())
def test_invert_round_trip(mq):
    a, q = mq
    n = a.shape[0]
    try:
        inv = linalg.invert(a, q)
    except linalg.SingularMatrixError as e:
        assert rank(a, q) < n and e.size == n
        return
    assert np.array_equal(linalg.mat_mul(a, inv, q), np.eye(n, dtype=np.int64))
    assert np.array_equal(linalg.mat_mul(inv, a, q), np.eye(n, dtype=np.int64))


@given(square_matrix(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_solve_round_trip(mq, columns, seed):
    a, q = mq
    y = np.random.default_rng(seed).integers(0, q, size=(a.shape[0], columns))
    try:
        x = linalg.solve(a, y, q)
    except linalg.SingularMatrixError as e:
        assert rank(a, q) < a.shape[0] and e.size == a.shape[0]
        return
    assert x.shape == y.shape and x.dtype == np.int64
    assert np.array_equal(linalg.mat_mul(a, x, q), y)
    assert np.array_equal(x, linalg.mat_mul(linalg.invert(a, q), y, q))


# One modulus per product path of mat_mul at small inner dimension: one
# float64 product (2, 877, 65537) and 16-bit limbs (2^31 - 1).
MAT_MUL_QS = [2, 877, 65537, 2**31 - 1]
_OPERAND_KINDS = ("residue", "negative", "unreduced", "mixed")


def _operand(draw, q, shape):
    kind = draw(st.sampled_from(_OPERAND_KINDS))
    lo, hi = {
        "residue": (0, q - 1),
        "negative": (-(2**62) + 1, -1),
        "unreduced": (q, 2**62 - 1),
        "mixed": (-(2**62) + 1, 2**62 - 1),
    }[kind]
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(lo, hi, size=shape, endpoint=True)


@st.composite
def mat_mul_operands(draw):
    q = draw(st.sampled_from(MAT_MUL_QS))
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    return _operand(draw, q, (m, k)), _operand(draw, q, (k, n)), q


@given(mat_mul_operands())
@settings(max_examples=300, deadline=None)
def test_mat_mul_reduces_any_int64_operands_without_writing_them(abq):
    a, b, q = abq
    a0, b0 = a.copy(), b.copy()
    got = linalg.mat_mul(a, b, q)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T] for row in a]
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == want
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


# (q, inner dimension), keyed by the range of inner * (q-1)^2: below 2^53,
# where one float64 product is exact; below 2^63 only, where the product
# runs on 16-bit limbs; and beyond int64, where q > 2^31 and mat_mul raises.
_UNSIGNED_PATHS = {"float64": (877, 7), "limbs": (134217689, 300), "rejected": (2**63 - 25, 4)}


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("path", _UNSIGNED_PATHS)
def test_mat_mul_takes_unsigned_operands_as_their_int64_residues(path, dtype):
    q, inner = _UNSIGNED_PATHS[path]
    top = int(np.iinfo(dtype).max)
    rng = np.random.default_rng([inner, np.dtype(dtype).itemsize])
    a = rng.integers(0, top, size=(3, inner), dtype=dtype, endpoint=True)
    # the largest entry, q itself and, for uint64, 2^63: reduced, never wrapped
    a[0, :3] = top, min(q, top), min(2**63, top)
    b = rng.integers(0, q, size=(inner, 2))
    a0 = a.copy()
    if q > 2**31:
        with pytest.raises(ValueError, match=str(q)):
            linalg.mat_mul(a, b, q)
        return
    # int64 operands congruent to a, reduced with Python integers
    a64 = np.array([[x % q for x in row] for row in a.tolist()], dtype=np.int64)
    products = [
        (linalg.mat_mul(a, b, q), linalg.mat_mul(a64, b, q)),
        (linalg.mat_mul(b.T, a.T, q), linalg.mat_mul(b.T, a64.T, q)),
        (linalg.mat_mul(a, a.T, q), linalg.mat_mul(a64, a64.T, q)),
    ]
    for got, want in products:
        assert got.dtype == np.int64 and np.array_equal(got, want)
    want = [[sum(x * int(y) for x, y in zip(row, col)) % q for col in b.T] for row in a.tolist()]
    assert products[0][0].tolist() == want
    assert np.array_equal(a, a0)


@pytest.mark.parametrize("q", MAT_MUL_QS + [2**61 - 1])
@pytest.mark.parametrize(
    "a_shape,b_shape",
    [((3, 4, 5), (5, 2)), ((4, 5), (3, 5, 2)), ((3, 4, 5), (3, 5, 2)), ((2, 1, 4, 5), (3, 5, 2))],
)
def test_stacked_mat_mul_matches_per_slice_products(q, a_shape, b_shape):
    rng = np.random.default_rng(q % 1000)
    a = rng.integers(-(2**62), 2**62, size=a_shape)
    b = rng.integers(-(2**62), 2**62, size=b_shape)
    if q > 2**31:  # a stack is rejected as a single matrix is
        with pytest.raises(ValueError, match=str(q)):
            linalg.mat_mul(a, b, q)
        return
    got = linalg.mat_mul(a, b, q)
    stack = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    assert got.dtype == np.int64 and got.shape == stack + (a_shape[-2], b_shape[-1])
    a_all = np.broadcast_to(a, stack + a_shape[-2:])
    b_all = np.broadcast_to(b, stack + b_shape[-2:])
    for at in np.ndindex(*stack):
        assert np.array_equal(got[at], linalg.mat_mul(a_all[at], b_all[at], q))


def _python_product(a, b, q):
    """(a @ b) mod q with Python integers, for 2-d operands: the test oracle."""
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T] for row in a]


def _fresh_product(a, b, q):
    """mat_mul(a, b, q), checked to leave its operands as they were and to return a new int64 array."""
    a0, b0 = a.copy(), b.copy()
    got = linalg.mat_mul(a, b, q)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    assert got.dtype == np.int64 and got.flags.owndata and got.flags.writeable
    assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
    return got


# (m, k): small, an answer's size up to a dense 203 x 2500 query, an inner
# axis above 2^16, and empty operands.
ONE_COLUMN_SHAPES = [(1, 5), (60, 1000), (203, 2500), (3, 70001), (0, 7), (9, 0)]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.int64])
@pytest.mark.parametrize("m,k", ONE_COLUMN_SHAPES)
def test_one_column_products_match_python_integers(m, k, dtype):
    q = 251  # every residue fits each dtype
    rng = np.random.default_rng([m, k, np.dtype(dtype).itemsize])
    a = rng.integers(0, q, size=(m, k)).astype(dtype)
    b = rng.integers(0, q, size=(k, 1))
    want = _python_product(a, b, q)
    assert _fresh_product(a, b, q).tolist() == want
    # non-contiguous: every other column of a wider operand
    wide = np.zeros((m, 2 * k), dtype=dtype)
    wide[:, ::2] = a
    assert _fresh_product(wide[:, ::2], b, q).tolist() == want
    # read-only, as a query read from the wire
    wire = field.elements_from_bytes(field.elements_to_bytes(a, q), q, a.size).reshape(m, k)
    assert not wire.flags.writeable
    assert _fresh_product(wire, b, q).tolist() == want


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((40, 30, 90), (40, 90, 1)),
        ((40, 30, 90), (90, 1)),
        ((3, 300, 300), (3, 300, 1)),
        ((3, 300, 300), (1, 300, 1)),
        ((2, 3, 70, 400), (3, 400, 1)),
    ],
)
@pytest.mark.parametrize("dtype", [np.uint16, np.int64])
def test_stacked_one_column_products_match_python_integers(a_shape, b_shape, dtype):
    q = 877
    rng = np.random.default_rng(list(a_shape + b_shape))
    a = rng.integers(0, q, size=a_shape).astype(dtype)
    b = rng.integers(0, q, size=b_shape)
    got = _fresh_product(a, b, q)
    stack = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    assert got.shape == stack + (a_shape[-2], 1)
    b_all = np.broadcast_to(b, stack + b_shape[-2:])
    for at in np.ndindex(*stack):
        assert got[at].tolist() == _python_product(a[at], b_all[at], q)


# Between 2^16 and 2^31: a prime near 2^20, where the single float64 product
# covers up to 8192 inner terms, and the largest q allowed.
LIMB_QS = [1048573, 2**31 - 1]


@pytest.mark.parametrize("q", LIMB_QS)
def test_limb_products_of_worst_case_entries(q):
    edge = (2**53 - 1) // (q - 1) ** 2  # the longest inner axis of one float64 product
    for inner in (edge, edge + 1, edge + 300):
        a = np.full((3, inner), q - 1)
        b = np.full((inner, 2), q - 1)
        # (q-1)^2 = 1 mod q
        assert _fresh_product(a, b, q).tolist() == [[inner % q] * 2] * 3
        # random entries, a stacked left operand and a one-column right one
        rng = np.random.default_rng([q, inner])
        a = rng.integers(0, q, size=(2, 3, inner))
        b = rng.integers(0, q, size=(inner, 1))
        got = _fresh_product(a, b, q)
        assert [got[i].tolist() for i in range(2)] == [_python_product(x, b, q) for x in a]


@pytest.mark.parametrize("q", LIMB_QS)
def test_limb_products_across_the_inner_chunk_bound(q):
    # 2^21 + 65 terms: more than one chunk of exact 16-bit limb products
    n = linalg._LIMB_INNER + 1
    for value in (q - 1, 2**16 - 1):  # the largest residue, and the largest low limb
        a = np.full((1, n), value)
        got = _fresh_product(a, a.T, q)
        assert got.tolist() == [[n * value * value % q]]


def test_mat_mul_rejects_mismatched_stacks():
    with pytest.raises(ValueError, match="shape mismatch"):
        linalg.mat_mul(np.ones((2, 3, 4), dtype=np.int64), np.ones((2, 3, 4), dtype=np.int64), 5)
    with pytest.raises(ValueError, match="shape mismatch"):
        linalg.mat_mul(np.ones(3, dtype=np.int64), np.ones((3, 2), dtype=np.int64), 5)


@pytest.mark.parametrize(
    "a,b",
    [([[1.7]], [[1]]), ([[1]], np.array([[0.5]])), (np.ones((2, 2), dtype=bool), [[1], [1]])],
)
def test_mat_mul_rejects_operands_that_are_not_integers(a, b):
    # cast to int64 they would be truncated: [[1.7]] @ [[1]] read as [[1]]
    with pytest.raises(ValueError, match="not integers"):
        linalg.mat_mul(a, b, 5)


@pytest.mark.parametrize("q", [2**63 + 29, 2**64 + 13])
def test_mat_mul_rejects_modulus_int64_cannot_hold(q):
    with pytest.raises(ValueError, match=str(q)):
        linalg.mat_mul([[1, 2], [3, 4]], [[1, 2], [3, 4]], q)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_sampler_output_always_invertible(n, q):
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = linalg.sample_uniform_full_rank(n, q, rng)
        assert rank(m, q) == n


def _with_stacked(shapes):
    """(n, q, stacked) cases: each shape one draw at a time, then as one stack."""
    return [
        pytest.param(n, q, stacked, id=f"{n}-{q}" + ("-stacked" if stacked else ""))
        for stacked in (False, True)
        for n, q in shapes
    ]


@pytest.mark.parametrize("n,q,stacked", _with_stacked([(2, 2), (2, 3)]))
def test_sampler_uniform_over_group(n, q, stacked):
    """Chi-square goodness of fit against the uniform distribution on GL(n,q)."""
    group = {m.tobytes(): 0 for m in linalg.enumerate_full_rank(n, q)}
    size = len(group)
    draws = 300 * size
    rng = np.random.default_rng(123)
    if stacked:
        mats = linalg.sample_uniform_full_rank(n, q, rng, count=draws)
        assert mats.shape == (draws, n, n)
    else:
        mats = [linalg.sample_uniform_full_rank(n, q, rng) for _ in range(draws)]
    for m in mats:
        group[m.tobytes()] += 1
    counts = np.array(list(group.values()))
    assert counts.sum() == draws
    _, p = stats.chisquare(counts)
    assert p > 1e-4, f"GL({n},{q}) sample counts not uniform: p={p}"


def test_sampler_huge_dimension_smoke():
    rng = np.random.default_rng(1)
    m = linalg.sample_uniform_full_rank(64, 65537, rng)
    assert rank(m, 65537) == 64


# One prime per range of 64-term inner products of residues: within
# float64's 53-bit mantissa (one float64 product), within int64, and beyond
# it (both on 16-bit limbs). A leaf of invert, at most 32 columns, reduces
# once at its end at the first two and after every pivot at the third.
FLOAT_Q, INT64_Q, OBJECT_Q = 877, 268435399, 1073741827


@pytest.mark.parametrize(
    "n,q",
    [(65, FLOAT_Q), (130, FLOAT_Q), (200, FLOAT_Q), (130, INT64_Q), (65, OBJECT_Q),
     (625, 2**31 - 1)],
)
def test_invert_round_trip_blocked(n, q):
    # 65: two leaves; 130 and 200: two and three levels of halves; 625 at
    # the largest modulus: five levels of limb products, whose columns not
    # yet pivoted are not reduced between levels
    a = linalg.sample_uniform_full_rank(n, q, np.random.default_rng(n))
    inv = linalg.invert(a, q)
    eye = np.eye(n, dtype=np.int64)
    assert np.array_equal(linalg.mat_mul(a, inv, q), eye)
    assert np.array_equal(linalg.mat_mul(inv, a, q), eye)


def _rank_r(m, n, r, q, rng, zero_cols=slice(0, 0)):
    """An m x n matrix of rank exactly r, zero on ``zero_cols``."""
    keep = np.ones(n, dtype=bool)
    keep[zero_cols] = False
    x = linalg.sample_uniform_full_rank(m, q, rng)[:, :r]
    y = np.zeros((r, n), dtype=np.int64)
    y[:, keep] = linalg.sample_uniform_full_rank(int(keep.sum()), q, rng)[:r]
    return linalg.mat_mul(x, y, q)


def _reference_inverse(a, q):
    """The right half of [a | I] after the unblocked reference loop, and the rank it found."""
    n = a.shape[0]
    aug = np.concatenate([a % q, np.eye(n, dtype=np.int64)], axis=1)
    return aug[:, n:], reference_eliminate(aug, q, n, jordan=True)[0]


def _zero_lead(n, k, q, rng):
    """An invertible n x n matrix whose leading k x k block is zero (2k <= n).

    Block rows and columns (k, k, n - 2k): [[0, I, 0], [I, X, X], [0, X, S]]
    with S invertible and X uniform, so the determinant is +-det(S).
    """
    a = rng.integers(0, q, size=(n, n))
    a[:k] = a[:, :k] = 0
    a[:k, k : 2 * k] = a[k : 2 * k, :k] = np.eye(k, dtype=np.int64)
    if n > 2 * k:
        a[2 * k :, 2 * k :] = linalg.sample_uniform_full_rank(n - 2 * k, q, rng)
    return a


@pytest.mark.parametrize("q", [2, FLOAT_Q, INT64_Q])
def test_blocked_rref_matches_unblocked_loop(q):
    # invert, pivoted leaf by leaf, against the unblocked loop on [a | I]:
    # the leading 70 x 70 block is zero, so each of the first 70 pivots,
    # over several leaves and both quarters of the left half, comes from a
    # row below it
    a = _zero_lead(260, 70, q, np.random.default_rng(q))
    want, r = _reference_inverse(a, q)
    assert r == 260
    assert np.array_equal(linalg.invert(a, q), want)


def _structured(kind, n, q, rng):
    """An invertible n x n matrix of one of the shapes that steer invert's pivoting."""
    diag = np.diag(rng.integers(1, q, size=n))
    upper = np.triu(rng.integers(0, q, size=(n, n)), 1) + diag
    return {
        "permutation": lambda: np.eye(n, dtype=np.int64)[rng.permutation(n)],
        "upper": lambda: upper,
        "lower": lambda: upper.T,
        # the leading leaf's block, then the leading half's, is zero
        "zero-leaf": lambda: _zero_lead(n, min(linalg._LEAF, n // 2), q, rng),
        "zero-half": lambda: _zero_lead(n, n // 2, q, rng),
        "uniform": lambda: linalg.sample_uniform_full_rank(n, q, rng),
    }[kind]()


# n = 1, below one leaf, one leaf, and sizes that split into uneven halves;
# a 1 x 1 invertible matrix has no zero leading block
STRUCTURED = [
    (kind, n)
    for kind in ("permutation", "upper", "lower", "zero-leaf", "zero-half", "uniform")
    for n in (1, 5, 32, 97, 200)
    if n > 1 or not kind.startswith("zero")
]


# LIMB_QS: at 1048573 the products run on float64 and are exact only while
# their operands are residues; at 2^31 - 1 they run on limbs and the leaves
# reduce after every pivot
@pytest.mark.parametrize("q", [2, FLOAT_Q, *LIMB_QS])
@pytest.mark.parametrize("kind,n", STRUCTURED)
def test_invert_matches_reference_on_structured_matrices(kind, n, q):
    a = _structured(kind, n, q, np.random.default_rng([n, q % 1000]))
    want, r = _reference_inverse(a, q)
    assert r == n
    a0 = a.copy()
    got = linalg.invert(a, q)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(a, a0)


@pytest.mark.parametrize("q", [2, FLOAT_Q, 2**31 - 1])
@pytest.mark.parametrize("n,dependent", [(1, 1), (5, 2), (97, 1), (200, 3)])
def test_invert_singular_only_in_last_leaf_reports_the_rank(n, dependent, q):
    # the last ``dependent`` columns are combinations of the others, so every
    # leaf but the last pivots in full and the last finds a column without
    # a pivot; the error reports the order, the reference loop the rank
    rng = np.random.default_rng([n, dependent, q % 1000])
    a = linalg.sample_uniform_full_rank(n, q, rng)
    a[:, n - dependent :] = linalg.mat_mul(
        a[:, : n - dependent], rng.integers(0, q, size=(n - dependent, dependent)), q
    )
    assert rank(a, q) == _reference_inverse(a, q)[1] == n - dependent
    with pytest.raises(linalg.SingularMatrixError) as exc:
        linalg.invert(a, q)
    assert exc.value.size == n


def test_invert_takes_unreduced_entries():
    q = FLOAT_Q
    a = linalg.sample_uniform_full_rank(100, q, np.random.default_rng(3))
    shifted = a + q * np.random.default_rng(4).integers(-(2**40), 2**40, size=a.shape)
    assert np.array_equal(linalg.invert(shifted, q), linalg.invert(a, q))


# SHA-256 prefixes of each draw's bytes followed by the generator's next
# draw, recorded before the sampler took a stack count: without ``count`` the
# sampler must make the same calls on the generator and return the same matrix.
PINNED_DRAWS = [
    (1, 2, 0, "5d7e90fa9c9b5b8c"),
    (3, 2, 5, "78c8c75e17e1f4df"),
    (4, 877, 1, "245827d85b1209f7"),
    (64, 65537, 3, "3a362c4d0e10f4d4"),
    (130, 5, 11, "cb17911f95f77fcf"),
    (625, 877, 41, "6f98488b584d8733"),
]


@pytest.mark.parametrize("n,q,seed,digest", PINNED_DRAWS)
def test_sampler_reproduces_pinned_stream(n, q, seed, digest):
    rng = np.random.default_rng(seed)
    m = linalg.sample_uniform_full_rank(n, q, rng)
    after = rng.integers(0, 2**62, size=1)
    # hashed as int64, the dtype the draws were held in when these were pinned
    data = m.astype(np.int64).tobytes() + after.tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_sampler_blocked_dimension_is_full_rank_and_seeded():
    m = linalg.sample_uniform_full_rank(130, 5, np.random.default_rng(11))
    assert m.shape == (130, 130)
    assert rank(m, 5) == 130
    assert np.array_equal(m, linalg.sample_uniform_full_rank(130, 5, np.random.default_rng(11)))


class _Replay:
    """Stands in for a numpy Generator: ``integers`` returns queued draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size, dtype=np.int64):
        out = np.asarray(self.draws.pop(0), dtype=dtype)
        assert out.shape == (size,) and ((low <= out) & (out < high)).all()
        return out


@pytest.mark.parametrize("n,q,stacked", _with_stacked([(2, 3), (3, 2), (2, 5)]))
def test_sampler_factor_choices_cover_group_once(n, q, stacked):
    """Every choice of V's nonzero rows and C's entries gives a distinct element.

    Stacked, one call draws every choice: all V rows, draw after draw, then
    all C entries, draw after draw.
    """
    v_rows = [
        [row for row in itertools.product(range(q), repeat=n - r) if any(row)]
        for r in range(n)
    ]
    c_entries = list(itertools.product(range(q), repeat=n * (n - 1) // 2))
    choices = list(itertools.product(itertools.product(*v_rows), c_entries))
    if stacked:
        rng = _Replay(
            [x for rows, _ in choices for x in sum(rows, ())], [x for _, c in choices for x in c]
        )
        mats = linalg.sample_uniform_full_rank(n, q, rng, count=len(choices))
        assert rng.draws == []
    else:
        mats = []
        for rows, c in choices:
            rng = _Replay(sum(rows, ()), c)
            mats.append(linalg.sample_uniform_full_rank(n, q, rng))
            assert rng.draws == []
    for m in mats:
        assert rank(m, q) == n
    assert len({m.tobytes() for m in mats}) == len(choices) == gl_order(n, q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_redraws_all_zero_rows(n):
    # every row of V is first drawn zero, then redrawn zero once more
    redraws = [d for r in range(n) for d in ([0] * (n - r), [1] * (n - r))]
    rng = _Replay([0] * (n * (n + 1) // 2), *redraws, [0] * (n * (n - 1) // 2))
    m = linalg.sample_uniform_full_rank(n, 2, rng)
    assert rng.draws == []
    assert rank(m, 2) == n
    assert np.array_equal(m, np.triu(np.ones((n, n), dtype=np.int64)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_sampler_redraws_in_draw_then_row_order(n):
    # both draws start all zero; draw 0's rows are redrawn as in the test
    # above, then draw 1's rows once each, to a single 1 in the last place
    first = [d for r in range(n) for d in ([0] * (n - r), [1] * (n - r))]
    second = [[0] * (n - r - 1) + [1] for r in range(n)]
    rng = _Replay([0] * (n * (n + 1)), *first, *second, [0] * (n * (n - 1)))
    m = linalg.sample_uniform_full_rank(n, 2, rng, count=2)
    assert rng.draws == []
    assert np.array_equal(m[0], np.triu(np.ones((n, n), dtype=np.int64)))
    assert np.array_equal(m[1], np.fliplr(np.eye(n, dtype=np.int64)))


@pytest.mark.parametrize(
    "n,q,count,rows",
    [(5, 2, None, 1), (5, 2, None, 5), (6, 3, None, 4), (30, 3, 4, 12), (7, 2, 50, 3),
     (130, 877, None, 52), (625, 877, None, 250)],
)
def test_sampler_rows_are_the_full_draws_first_rows(n, q, count, rows):
    full_rng, rows_rng = np.random.default_rng(n + rows), np.random.default_rng(n + rows)
    full = linalg.sample_uniform_full_rank(n, q, full_rng, count)
    part = linalg.sample_uniform_full_rank(n, q, rows_rng, count, rows=rows)
    assert part.shape == full.shape[:-2] + (rows, n)
    assert np.array_equal(part, full[..., :rows, :])
    assert rows_rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize(
    "count,rows,draws",
    [
        # rows 1 and 2 are past ``rows``: drawn zero, redrawn, then discarded
        (None, 1, ([0, 1, 1, 0, 0, 0], [0, 0], [1, 0], [1], [1, 1, 0])),
        # draw 0's discarded row 2 is redrawn before draw 1's kept row 0
        (2, 2, ([1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1], [1], [0, 0, 1], [1, 0, 1, 0, 1, 1])),
    ],
    ids=["single", "stacked"],
)
def test_sampler_rows_redraws_discarded_rows_in_order(count, rows, draws):
    full_rng, rows_rng = _Replay(*draws), _Replay(*draws)
    full = linalg.sample_uniform_full_rank(3, 2, full_rng, count)
    part = linalg.sample_uniform_full_rank(3, 2, rows_rng, count, rows=rows)
    assert full_rng.draws == rows_rng.draws == []
    assert np.array_equal(part, full[..., :rows, :])


@pytest.mark.parametrize(
    "n,q,rows", [(3, 1, None), (3, 0, None), (3, 1, 2), (3, 5, 0), (3, 5, 4), (3, 5, -1)]
)
def test_sampler_rejects_bad_field_or_rows_before_drawing(n, q, rows):
    # q < 2 has no nonzero row to draw, so the redraw loop would never end;
    # _Replay has no draws queued, so a call on it fails instead of hanging
    rng = _Replay()
    with pytest.raises(ValueError, match="q=" if q < 2 else "rows="):
        linalg.sample_uniform_full_rank(n, q, rng, rows=rows)


@pytest.mark.parametrize("rows", [None, 2])
@pytest.mark.parametrize("count", [0, -1])
def test_sampler_rejects_an_empty_stack_before_drawing(count, rows):
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"count={count}"):
        linalg.sample_uniform_full_rank(3, 5, rng, count=count, rows=rows)
    assert rng.bit_generator.state == state


# The largest prime with 64 * (q-1)^2 < 2^63. At n = 448 invert runs on limb
# products and its leaves, 28 columns wide, reduce only at their end. At
# n = 200 every range of inner products runs.
INT64_EDGE_Q = 379625047


@pytest.mark.parametrize(
    "n,q", [(200, FLOAT_Q), (200, INT64_Q), (200, OBJECT_Q), (448, INT64_EDGE_Q)]
)
def test_eliminate_leaves_entries_reduced(n, q):
    """Gauss-Jordan through ``invert`` against the reference loop on [a | I]."""
    rng = np.random.default_rng(q % 1000 + 1)
    a = linalg.sample_uniform_full_rank(n, q, rng)
    want, r = _reference_inverse(a, q)
    assert r == n
    got = linalg.invert(a, q)
    assert got.min() >= 0 and got.max() < q
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 5, FLOAT_Q, 65537])
def test_invert_rank_solve_match_reference(q):
    n = 150
    rng = np.random.default_rng(q)
    a = linalg.sample_uniform_full_rank(n, q, rng)
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    assert reference_eliminate(aug, q, n, jordan=True)[0] == n
    assert np.array_equal(linalg.invert(a, q), aug[:, n:])
    singular = _rank_r(n, n, 120, q, rng)
    assert rank(singular, q) == 120
    for call in (linalg.invert, lambda s, q: linalg.solve(s, np.ones((n, 1), dtype=np.int64), q)):
        with pytest.raises(linalg.SingularMatrixError) as exc:
            call(singular, q)
        assert exc.value.size == n


def test_elimination_rejects_modulus_above_2_31():
    q = 2**61 - 1  # prime; a product of two residues overflows int64
    a = np.random.default_rng(0).integers(0, q, size=(3, 3))
    for call in (linalg.invert, lambda a, q: linalg.mat_mul(a, a, q)):
        with pytest.raises(ValueError, match=str(q)):
            call(a, q)


def test_singular_error_carries_rank():
    # the error carries the order, not the rank: no second elimination runs
    a = np.array([[1, 2], [2, 4]])
    with pytest.raises(linalg.SingularMatrixError) as exc:
        linalg.invert(a, 5)
    assert isinstance(exc.value, ValueError) and exc.value.size == 2
    assert str(exc.value) == "singular 2 x 2 matrix" and not hasattr(exc.value, "rank")


@pytest.mark.parametrize(
    "a",
    [[[2.7, 0], [0, 1.2]], np.eye(2, dtype=bool), np.array([[1, 0], [0, 1]], dtype=object)],
    ids=["float", "bool", "object"],
)
def test_invert_and_solve_reject_operands_that_are_not_integers(a):
    # cast to int64, [[2.7, 0], [0, 1.2]] would be read as [[2, 0], [0, 1]]
    for call in (lambda: linalg.invert(a, 5), lambda: linalg.solve(a, [[1], [1]], 5)):
        with pytest.raises(ValueError, match="not integers"):
            call()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_invert_takes_unsigned_operands_as_their_residues(dtype):
    # the largest entry of each dtype, and for uint64 2^63 + 5, reduced
    # in place of being wrapped negative
    q = 877
    top = int(np.iinfo(dtype).max)
    a = np.array([[top, 0, 0], [0, min(2**63 + 5, top), 0], [3, 0, 1]], dtype=dtype)
    a0 = a.copy()
    residues = np.array([[x % q for x in row] for row in a.tolist()], dtype=np.int64)
    inv = linalg.invert(a, q)
    assert np.array_equal(inv, linalg.invert(residues, q))
    assert np.array_equal(linalg.mat_mul(a, inv, q), np.eye(3, dtype=np.int64))
    y = np.arange(6).reshape(3, 2)
    assert np.array_equal(linalg.mat_mul(residues, linalg.solve(a, y, q), q), y)
    assert np.array_equal(a, a0)


def test_enumerate_guard():
    with pytest.raises(ValueError):
        list(linalg.enumerate_full_rank(4, 7))


def test_enumeration_guard_bounds_the_stack_before_allocating():
    # |GL(2, 61)| is 13.6 million, 5.4e7 entries: rejected with nothing allocated
    for n, q in [(1, 2), (4, 2), (3, 3), (2, 17), (2, 31), (3, 5)]:
        linalg.check_enumerable(n, q)
    tracemalloc.start()
    try:
        for n, q in [(2, 61), (2, 47), (5, 2), (4, 3)]:
            with pytest.raises(ValueError, match=f"GL\\({n},{q}\\) too large"):
                linalg.enumerate_full_rank(n, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


WIDTH_MODULI = [2, 877, 65537, 2**31 - 1]


@pytest.mark.parametrize("q", WIDTH_MODULI)
def test_group_elements_are_held_in_the_wire_dtype(q):
    """Draws, stacked or cut to their first rows, and the enumeration come out
    in the field's wire dtype at moduli of 1, 2 and 4 bytes."""
    dtype = field.element_dtype(q)
    rng = np.random.default_rng(q)
    for count, rows in [(None, None), (3, None), (None, 2), (3, 2)]:
        m = linalg.sample_uniform_full_rank(6, q, rng, count, rows=rows)
        assert m.dtype == dtype and not field.outside_field(m, q)
    if q < 2**24:
        n = 2 if q == 2 else 1
        assert linalg.enumerate_full_rank(n, q).dtype == dtype
    else:  # |GL(1, q)| = q - 1 entries: beyond the guard
        with pytest.raises(ValueError, match="too large"):
            linalg.enumerate_full_rank(1, q)


@pytest.mark.parametrize("q", WIDTH_MODULI)
def test_invert_and_solve_take_a_wire_dtype_secret_as_its_int64_cast(q):
    """An unsigned input, in range or not, is inverted without being written
    and gives the bytes its int64 cast gives."""
    rng = np.random.default_rng(q + 1)
    a = linalg.sample_uniform_full_rank(70, q, rng)
    y = rng.integers(0, q, size=(70, 3))
    shifted = (a.astype(np.uint64) + q).astype(a.dtype)  # every entry outside [0, q)
    assert np.array_equal(shifted.astype(np.int64) % q, a)
    for x in (a, shifted):
        before = x.copy()
        x.setflags(write=False)
        got = linalg.invert(x, q)
        want = linalg.invert(x.astype(np.int64), q)
        assert got.dtype == want.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert linalg.solve(x, y, q).tobytes() == linalg.solve(x.astype(np.int64), y, q).tobytes()
        assert np.array_equal(x, before)
