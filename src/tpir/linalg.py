"""Dense linear algebra over GF(q) on numpy int64 arrays.

Matrices are plain ``numpy`` arrays with entries reduced mod q; the modulus is
passed explicitly. Elimination is blocked: each panel of columns is pivoted by
a small unblocked loop, and the rest of the matrix is updated by one exact
``mat_mul`` per panel, so the bulk of the work runs as BLAS matrix products
(the FFLAS-FFPACK technique of Dumas, Giorgi and Pernet, ACM TOMS 2008).
"""

from __future__ import annotations

import itertools
import struct
from typing import Iterator

import numpy as np

from .field import element_width, elements_from_bytes, elements_to_bytes

__all__ = [
    "SingularMatrixError",
    "mat_mul",
    "rank",
    "invert",
    "solve",
    "sample_uniform_full_rank",
    "enumerate_full_rank",
    "count_full_rank",
    "serialize_matrix",
    "deserialize_matrix",
]


class SingularMatrixError(ValueError):
    """Raised when a square system turns out rank-deficient."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"singular matrix: rank {rank} < {size}")


def _as_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-d matrix, got shape {arr.shape}")
    return arr


def mat_mul(a, b, q: int) -> np.ndarray:
    """Matrix product over GF(q).

    Uses float64 BLAS when the un-reduced inner products provably fit in the
    53-bit mantissa, falling back to exact int64 otherwise.
    """
    a, b = _as_array(a) % q, _as_array(b) % q
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    inner = a.shape[1]
    if inner * (q - 1) ** 2 < 2**53:
        prod = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    elif inner * (q - 1) ** 2 < 2**63:
        prod = a @ b
    else:
        prod = np.array((a.astype(object) @ b.astype(object)) % q, dtype=np.int64)
        return prod
    return prod % q


def _pivot_loop(a: np.ndarray, q: int, ncols: int, jordan: bool):
    """Unblocked elimination of ``a`` in place, one outer-product update per pivot.

    Returns (rank, pivot column list, row swaps as (i, j) pairs in the order
    they were made). Entries of the trailing matrix are left unreduced between
    steps; only pivot rows and the active column are reduced, and a full
    ``% q`` runs when int64 headroom would otherwise run out.
    """
    m = a.shape[0]
    # Each deferred step adds at most (q-1)^2 in magnitude.
    budget = max(1, (2**62) // ((q - 1) ** 2 + 1))
    steps = 0
    r = 0
    pivots = []
    swaps = []
    for col in range(ncols):
        if r == m:
            break
        colvals = a[r:, col] % q
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            a[r:, col] = colvals
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            swaps.append((r, piv))
        a[r] %= q
        pinv = pow(int(a[r, col]), -1, q)
        a[r] = a[r] * pinv % q
        if jordan:
            factors = a[:, col] % q
            factors[r] = 0
            a -= np.outer(factors, a[r])
        else:
            factors = a[r + 1 :, col] % q
            a[r + 1 :] -= np.outer(factors, a[r])
        pivots.append(col)
        r += 1
        steps += 1
        if steps >= budget:
            a %= q
            steps = 0
    a %= q
    return r, pivots, swaps


# Columns per panel of the blocked elimination.
_BLOCK = 64


def _eliminate(a: np.ndarray, q: int, ncols: int, jordan: bool):
    """In-place elimination on ``a`` using pivots from its first ``ncols`` columns.

    ``a`` must be reduced mod q. Returns (rank, pivot column list). With ``jordan=True`` produces reduced
    row-echelon form; otherwise only eliminates below pivots. All columns of
    ``a`` take part in the row operations, so an augmented right-hand side is
    transformed along with the pivot columns.

    Right-looking and blocked: a copy of each panel of ``_BLOCK`` columns
    (rows from the first unpivoted one down) is pivoted by ``_pivot_loop``,
    its row swaps are replayed on ``a``, the panel's pivot rows are
    normalised by the inverse of their pivot-column block, and every other
    row (below the panel, or all rows for ``jordan``) gets one rank-b update
    through ``mat_mul``, which is exact for every q. With at most ``_BLOCK``
    pivot columns the unblocked loop runs on ``a`` directly, so small
    matrices pay no panel overhead.
    """
    if ncols <= _BLOCK:
        r, pivots, _ = _pivot_loop(a, q, ncols, jordan)
        return r, pivots
    m = a.shape[0]
    r = 0
    pivots = []
    for c0 in range(0, ncols, _BLOCK):
        if r == m:
            break
        panel = a[r:, c0 : min(c0 + _BLOCK, ncols)].copy()
        b, cols, swaps = _pivot_loop(panel, q, panel.shape[1], jordan=False)
        if b == 0:
            continue  # the panel is already zero from row r down
        for i, j in swaps:
            a[[r + i, r + j]] = a[[r + j, r + i]]
        top = a[r : r + b, c0:]
        block = np.concatenate([top[:, cols], np.eye(b, dtype=np.int64)], axis=1)
        _pivot_loop(block, q, b, jordan=True)
        top[...] = mat_mul(block[:, b:], top, q)
        others = (a[:r, c0:], a[r + b :, c0:]) if jordan else (a[r + b :, c0:],)
        for rows in others:
            rows -= mat_mul(rows[:, cols], top, q)
            rows %= q
        pivots.extend(c0 + c for c in cols)
        r += b
    return r, pivots


def rank(a, q: int) -> int:
    """Rank over GF(q) via Gaussian elimination."""
    work = _as_array(a) % q
    r, _ = _eliminate(work, q, work.shape[1], jordan=False)
    return r


def invert(a, q: int) -> np.ndarray:
    """Inverse of a square matrix over GF(q).

    Raises ``SingularMatrixError`` (carrying the rank found) if singular.
    """
    a = _as_array(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix not square: {a.shape}")
    aug = np.concatenate([a % q, np.eye(n, dtype=np.int64)], axis=1)
    r, _ = _eliminate(aug, q, n, jordan=True)
    if r < n:
        raise SingularMatrixError(r, n)
    return aug[:, n:]


def solve(a, rhs, q: int) -> np.ndarray:
    """Solve a @ x = rhs over GF(q) for square nonsingular a."""
    a, rhs = _as_array(a), np.asarray(rhs, dtype=np.int64)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix not square: {a.shape}")
    vec = rhs.ndim == 1
    rhs2 = rhs.reshape(n, -1) if vec else rhs
    if rhs2.shape[0] != n:
        raise ValueError(f"rhs has {rhs2.shape[0]} rows, expected {n}")
    aug = np.concatenate([a % q, rhs2 % q], axis=1)
    r, _ = _eliminate(aug, q, n, jordan=True)
    if r < n:
        raise SingularMatrixError(r, n)
    x = aug[:, n:]
    return x.ravel() if vec else x


def sample_uniform_full_rank(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from GL(n, q), deterministic given the generator state.

    Rejection sampling: draw a uniform n x n matrix over GF(q) and redraw
    until it has rank n. Conditioned on being invertible, a uniform matrix is
    uniform on GL(n, q). A draw is accepted with probability
    prod_{i=1..n} (1 - q^-i), which is above 1 - 1/(q-1) and about 0.29 at
    q = 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    while True:
        m = rng.integers(0, q, size=(n, n), dtype=np.int64)
        if rank(m, q) == n:
            return m


def count_full_rank(n: int, q: int) -> int:
    """|GL(n, q)| = prod_{i} (q^n - q^i)."""
    return int(np.prod([q**n - q**i for i in range(n)], dtype=object))


def enumerate_full_rank(n: int, q: int) -> Iterator[np.ndarray]:
    """Yield every element of GL(n, q) exactly once (lexicographic row order).

    Guarded to instances with q^(n^2) <= 2^24.
    """
    if q ** (n * n) > 2**24:
        raise ValueError(f"GL({n},{q}) enumeration too large: q^(n^2) > 2^24")
    vectors = [np.array(v, dtype=np.int64) for v in itertools.product(range(q), repeat=n)]
    for combo in itertools.product(vectors, repeat=n):
        m = np.stack(combo)
        if rank(m, q) == n:
            yield m


def serialize_matrix(a, q: int) -> bytes:
    """rows, cols as 4-byte little-endian counts, then row-major elements."""
    a = _as_array(a)
    return struct.pack("<II", a.shape[0], a.shape[1]) + elements_to_bytes(a, q)


def deserialize_matrix(buf: bytes, q: int) -> np.ndarray:
    if len(buf) < 8:
        raise ValueError(f"matrix header needs 8 bytes, got {len(buf)}")
    rows, cols = struct.unpack("<II", buf[:8])
    w = element_width(q)
    expected = 8 + rows * cols * w
    if len(buf) != expected:
        raise ValueError(f"expected {expected} bytes for {rows}x{cols}, got {len(buf)}")
    return elements_from_bytes(buf[8:], q, rows * cols).reshape(rows, cols)
