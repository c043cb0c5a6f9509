"""Dense linear algebra over GF(q) on numpy integer arrays.

Matrices are plain ``numpy`` arrays with entries reduced mod q; the modulus is
passed explicitly and is at most 2^31 everywhere (``check_modulus``).
Products and inverses come out as int64; elements of GL(n, q), drawn or
enumerated, come out in the field's wire dtype (``field.element_dtype``).

Every matrix product runs on float64 BLAS, where sums of products of
integers are exact while they stay below 2^53. While ``inner * (q-1)^2`` is
under that bound the operands are cast to float64 and multiplied once;
above it each operand is split into 16-bit limbs, and the limb products,
each exact, are reduced mod q and recombined (the error-free splitting of
Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012). ``mat_mul``
reduces an operand only if an entry lies outside [0, q): callers pass
residues, so a product pays one range test per operand, not a ``% q`` copy.
An unsigned integer operand, such as a query plan or a query read from the
wire, keeps its dtype until the product casts it.

Inversion is a recursive in-place Gauss-Jordan elimination (Quintana,
Quintana, Sun and van de Geijn, SIAM J. Sci. Comput. 22(5), 2001). Its
columns are split in halves down to small leaves, each pivoted by an
unblocked loop on its own columns, and each half's transform reaches the
other half as one BLAS product. Columns not yet pivoted take those products
unreduced; only what pivoting reads and what a product takes as an operand
is reduced (the delayed reduction of FFLAS-FFPACK, Dumas, Giorgi and Pernet,
ACM TOMS 2008). It is the module's one elimination.

GL(n, q) has one construction here: each element is the product of exactly
one pair of factors (D. Randall, "Efficient generation of random nonsingular
matrices", Random Structures & Algorithms 4(1), 1993). Uniform elements are
drawn as a product of two random factors, with no elimination and no
rejection of singular draws; the whole group, at small sizes, is the product
of every pair. Both go through one function, ``_factor_product``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .field import as_elements, element_dtype, outside_field

__all__ = [
    "SingularMatrixError",
    "check_modulus",
    "mat_mul",
    "invert",
    "solve",
    "sample_uniform_full_rank",
    "check_enumerable",
    "enumerate_full_rank",
]


class SingularMatrixError(ValueError):
    """Raised by ``invert`` and ``solve`` for a singular square matrix; ``size`` is its order."""

    def __init__(self, size: int):
        self.size = size
        super().__init__(f"singular {size} x {size} matrix")


def check_modulus(q: int) -> None:
    """Raise ``ValueError`` for q > 2^31, the one modulus rule of this module.

    Elimination multiplies two residues and adds a third in int64, which
    needs (q-1)^2 < 2^62, and the limb products of ``mat_mul`` need residues
    below 2^31, so that a residue's high 16-bit limb is below 2^15 and every
    recombination step fits in int64.
    """
    if (q - 1) ** 2 >= 2**62:
        raise ValueError(f"q={q} too large: exact GF(q) arithmetic here needs q <= 2^31")


# Inner length up to which a product of 16-bit limbs stays below 2^53.
_LIMB_INNER = (2**53 - 1) // (2**16 - 1) ** 2


def _float_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on float64 BLAS, as a fresh int64 array; exact below 2^53, neither operand written."""
    product = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return product.astype(np.int64)


def _limbs(x: np.ndarray, axis: int) -> np.ndarray:
    """x's low 16-bit limbs, then its high ones, concatenated along ``axis`` as float64."""
    return np.concatenate([x.astype(np.uint16), x >> 16], axis=axis, dtype=np.float64)


def _product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """A fresh int64 array congruent to a @ b mod q, for entries of a and b in [0, q).

    Leading axes are stacks of matrices, broadcast as by ``@``. The operands
    are int64 or unsigned integer arrays, are never written and are not
    widened before the product, and q is at most 2^31. While
    ``inner * (q-1)^2 < 2^53`` one float64 product is exact and its result
    is returned unreduced. Otherwise a = a_hi * 2^16 + a_lo and b likewise,
    with limbs below 2^16, so a @ b = hh * 2^32 + (hl + lh) * 2^16 + ll: the
    four limb products run as one float64 product of [a_lo; a_hi] and
    [b_lo | b_hi], over chunks of at most ``_LIMB_INNER`` inner terms so that
    each stays exact (below 2^53). hh and hl + lh are reduced mod q in int64
    and recombined with 2^32 and 2^16 mod q; with residues below 2^31 no
    step leaves int64. That result is reduced.
    """
    if a.shape[-1] * (q - 1) ** 2 < 2**53:
        return _float_product(a, b)
    m, n = a.shape[-2], b.shape[-1]
    r16, r32 = 2**16 % q, 2**32 % q
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n), dtype=np.int64)
    for c in range(0, a.shape[-1], _LIMB_INNER):
        cut = slice(c, c + _LIMB_INNER)
        limbs = _float_product(_limbs(a[..., cut], -2), _limbs(b[..., cut, :], -1))
        lo, hi = limbs[..., :m, :], limbs[..., m:, :]
        # below 2^31 * 2^31 + 2^31 * 2^16 + 2^53 < 2^63
        part = hi[..., n:] % q * r32 + (lo[..., n:] + hi[..., :n]) % q * r16 + lo[..., :n]
        out += part % q
    out %= q
    return out


def mat_mul(a, b, q: int) -> np.ndarray:
    """Matrix product over GF(q), exact for every q <= 2^31; a larger q raises ``ValueError``.

    Neither operand is written to; each is reduced, into a copy, only if an
    entry lies outside [0, q). An unsigned integer operand is used in its
    own dtype, with no int64 copy; a signed one is read as int64, and one of
    any other dtype raises ``ValueError``. The result is a fresh int64
    array whatever the operand dtypes. The product runs on float64 BLAS, in
    one piece or in 16-bit limbs (see ``_product``). Either operand may be a
    stack of matrices along leading axes; stacks broadcast as they do for
    ``@``.
    """
    check_modulus(q)
    a, b = as_elements(a), as_elements(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    if outside_field(a, q):
        a = a % q
    if outside_field(b, q):
        b = b % q
    out = _product(a, b, q)
    out %= q
    return out


# Widest leaf of the recursive inversion, in columns; leaves have _LEAF/2 to
# _LEAF. At n = 256 and 625, widths from 24 to 48 took about the same time.
_LEAF = 32


def _leaf(w: np.ndarray, q: int, c0: int, c1: int, order: np.ndarray) -> bool:
    """The unblocked in-place Gauss-Jordan loop on columns c0:c1 of ``w``; see ``invert``.

    Column k's pivot is its first nonzero from row k down. Rows from c0 down
    are eliminated on a reduced copy, whose entries fall by at most (q-1)^2 a
    step: it is reduced every step only if (c1-c0)(q-1)^2 could reach 2^63.
    Rows above c0 take -above @ B^-1, one product, B^-1 the rows c0:c1.
    """
    panel = w[c0:, c0:c1] % q
    each_step = (c1 - c0) * (q - 1) ** 2 >= 2**63
    for j in range(c1 - c0):
        f = panel[:, j] % q
        p = j + int(np.argmax(f[j:] != 0))
        if f[p] == 0:
            return False
        if p != j:  # rows swapped whole, and in the copy f
            for x, o in ((w, c0), (order, c0), (panel, 0), (f, 0)):
                x[[o + j, o + p]] = x[[o + p, o + j]]
        pinv = pow(int(f[j]), -1, q)
        row = panel[j] % q * pinv % q
        row[j] = pinv
        f[j] = panel[:, j] = 0
        panel -= f[:, None] * row
        panel[j] = row
        if each_step:
            panel %= q
    panel %= q
    w[c0:, c0:c1] = panel
    w[:c0, c0:c1] = -_product(w[:c0, c0:c1] % q, panel[: c1 - c0], q) % q
    return True


def _gauss_jordan(w: np.ndarray, q: int, c0: int, c1: int, order: np.ndarray) -> bool:
    """Recursive in-place Gauss-Jordan elimination on columns c0:c1 of ``w``; see ``invert``.

    A pivoted half holds T, its columns of the transform I + (T - E), E the
    identity's there. The other half takes (T - E) @ top, top its rows there
    reduced, as those rows zeroed plus T @ top: unreduced by the right half,
    reduced by the left, which then holds its part of the transform.
    """
    if c1 - c0 <= _LEAF:
        return _leaf(w, q, c0, c1, order)
    m = (c0 + c1) // 2
    for done, rest in ((slice(c0, m), slice(m, c1)), (slice(m, c1), slice(c0, m))):
        if not _gauss_jordan(w, q, done.start, done.stop, order):
            return False
        top = w[done, rest] % q
        w[done, rest] = 0
        cols = w[:, rest]
        cols += _product(w[:, done], top, q)
    cols %= q  # the left half
    return True


def invert(a, q: int) -> np.ndarray:
    """Inverse of a square matrix over GF(q), for q <= 2^31 (a larger q raises ``ValueError``).

    Raises ``SingularMatrixError`` if ``a`` is singular. ``a`` is read as
    ``mat_mul`` reads an operand: a dtype other than integer raises
    ``ValueError``, and ``a`` is reduced, in its own dtype so that no
    unsigned entry wraps, only if an entry lies outside [0, q).

    ``a`` is never written. ``_gauss_jordan`` overwrites each pivot column
    of one int64 copy of the residues with its column of the transform.
    Rows are swapped whole, so the copy ends as the inverse of the
    row-permuted ``a``, whose columns are permuted back once. Product
    operands are residues, so a product's entries are below 2^53 (float
    path of ``_product``) or q (limb path). An entry takes at most one
    unreduced product per recursion level, and with fewer than 64 levels
    stays below q + 2^59 < 2^63 for any n.
    """
    check_modulus(q)
    a = as_elements(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix not square: {a.shape}")
    w = (a % q if outside_field(a, q) else a).astype(np.int64)
    n = w.shape[0]
    order = np.arange(n)
    if not _gauss_jordan(w, q, 0, n, order):
        raise SingularMatrixError(n)
    return w[:, np.argsort(order)]


def solve(secret, y, q: int) -> np.ndarray:
    """secret^-1 @ y over GF(q); raises ``SingularMatrixError`` if ``secret`` is singular."""
    return mat_mul(invert(secret, q), y, q)


def sample_uniform_full_rank(
    n: int,
    q: int,
    rng: np.random.Generator,
    count: int | None = None,
    rows: int | None = None,
) -> np.ndarray:
    """Uniform draw from GL(n, q), deterministic given the generator state.

    Returns C @ V for two uniform factors, in ``field.element_dtype(q)``
    (1, 2 or 4 bytes an entry by q's width, as plans are held); ``mat_mul``
    and ``solve`` take it as it is. C is unit lower triangular with
    uniform entries below the diagonal. Row r of V is a uniform nonzero
    vector written, in column order, into the n - r columns that hold no
    earlier row's leading entry; it is redrawn only if all zero (probability
    q^-(n-r)). Every M in GL(n, q) has exactly one such (C, V): row 0 of V is
    row 0 of M, each later row of M splits uniquely into a multiple of it
    plus a vector that is zero at its leading column, and the rest recurses.
    So the draw is exactly uniform, at the cost of one matrix product.

    With ``count``, returns a (count, n, n) stack of independent draws, each
    made as above from its own values.

    With ``rows``, returns only the first ``rows`` rows of each draw, exactly
    ``full[..., :rows, :]`` of the draw the same generator state gives
    without it, and leaves the generator in the same state. C is unit lower
    triangular, so those rows of C @ V are C[:rows, :rows] @ V[:rows], and
    V's later rows never move them: their values are drawn, and redrawn
    while all zero, then discarded. One zero test over every row's values
    finds the rows to redraw, kept or discarded. Only the placement and the
    product shrink to ``rows`` rows.

    Calls on ``rng``, with d = 1 without ``count`` and d = count with it:
    ``integers(0, q, size=d*n(n+1)/2)`` for V's rows, row after row and draw
    after draw; ``integers(0, q, size=n-r)`` for each redraw of row r, in
    (draw, row) order; then ``integers(0, q, size=d*n(n-1)/2)`` for C's
    below-diagonal entries in row-major order, draw after draw. Raises
    ``ValueError``, before any call, for n < 1, for q < 2 (no row could be
    nonzero), for ``count`` < 1 and for ``rows`` outside 1..n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count is not None and count < 1:
        raise ValueError(f"count={count}; a stack needs at least one draw")
    if q < 2:
        raise ValueError(f"q={q}: a nonzero row needs q >= 2")
    r = n if rows is None else rows
    if not 1 <= r <= n:
        raise ValueError(f"rows={rows} outside 1..{n}")
    stack = () if count is None else (count,)
    draws = 1 if count is None else count
    shape = stack + (r, n)
    # row k's n - k values, left-aligned; a boolean mask of v's full shape
    # keeps numpy on its boolean fast path, with no index arrays. It is made
    # before v: the other order raised the peak resident memory of a
    # 625 x 625 draw by about 1.4 MB.
    drawn = np.broadcast_to(_left_aligned(r, n), shape)
    v = np.zeros(shape, dtype=np.int64)
    vals = rng.integers(0, q, size=draws * n * (n + 1) // 2, dtype=np.int64).reshape(draws, -1)
    # row j's values start at j*n - j(j-1)/2; residues are >= 0, so a row is
    # all zero exactly when its maximum is 0
    j = np.arange(n)
    zero = np.maximum.reduceat(vals, j * n - j * (j - 1) // 2, axis=1) == 0
    v[drawn] = vals[:, : r * n - r * (r - 1) // 2].reshape(-1)  # the values of rows < r
    del vals  # held through the product, it slowed a 625 x 625 draw by about 1 ms
    flat = v.reshape(draws, r, n)
    for d, k in zip(*np.nonzero(zero)):  # in (draw, row) order; rows past r are discarded
        row = flat[d, k] if k < r else np.zeros(n, dtype=np.int64)
        while not row.any():
            row[: n - k] = rng.integers(0, q, size=n - k, dtype=np.int64)
    # C's entries in rows < r, passed unnamed so that _factor_product frees
    # them before its product
    return _factor_product(
        v,
        drawn,
        rng.integers(0, q, size=draws * n * (n - 1) // 2, dtype=np.int64)
        .reshape(draws, -1)[:, : r * (r - 1) // 2]
        .reshape(stack + (-1,)),
        q,
    )


def _left_aligned(r: int, n: int) -> np.ndarray:
    """An r x n boolean mask whose row k is true in its first n - k columns."""
    return np.tri(r, n, n - r, dtype=bool)[::-1]


def _factor_product(v: np.ndarray, drawn: np.ndarray, below: np.ndarray, q: int) -> np.ndarray:
    """C @ V mod q, for the factors of ``sample_uniform_full_rank``, from their free entries.

    ``v`` is a (..., r, n) stack whose row k holds V's row k left-aligned:
    its n - k values, not all zero, in its first n - k columns, where
    ``drawn``, ``_left_aligned(r, n)`` broadcast to v's shape, is true. It
    is overwritten with V. ``below`` holds C's r(r-1)/2 below-diagonal
    entries along its last axis, in row-major order; its other axes
    broadcast against v's stack axes, as the product's operands do. The
    product is returned in ``field.element_dtype(q)``, as plans are held.
    """
    *stack, r, n = v.shape
    # lead[..., j] is the row whose leading entry sits in column j (r where
    # no row's does), so row k writes its values into the columns j with
    # lead[..., j] >= k, in column order
    lead = np.full((*stack, n), r, dtype=np.int64)
    firsts = (v != 0).argmax(axis=-1).reshape(-1, r).tolist()
    for out, first in zip(lead.reshape(-1, n), firsts):
        free = list(range(n))
        for k, p in enumerate(first):
            out[free.pop(p)] = k
    values = v[drawn]
    v[...] = 0
    v[lead[..., None, :] >= np.arange(r)[:, None]] = values
    c = np.zeros(below.shape[:-1] + (r, r), dtype=np.int64)
    diagonal = np.arange(r)
    c[..., diagonal, diagonal] = 1
    c[np.broadcast_to(np.tri(r, k=-1, dtype=bool), c.shape)] = below.reshape(-1)
    del below  # held through the product, it raised a 625 x 625 draw's peak by 1.5 MB
    out = _product(c, v, q)  # both factors are residues: no range test
    out %= q
    return out.astype(element_dtype(q))


# The most entries, |GL(n, q)| * n^2, that an enumeration of GL(n, q) holds.
_ENUMERATION_ENTRIES = 2**24


def check_enumerable(n: int, q: int) -> int:
    """|GL(n, q)|; ``ValueError`` if GL(n, q) as one stack would hold more than 2^24 entries.

    |GL(n, q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1)) is counted in Python
    integers, so the check allocates nothing.
    """
    order = math.prod(q**n - q**k for k in range(n))
    if order * n * n > _ENUMERATION_ENTRIES:
        raise ValueError(f"GL({n},{q}) too large to enumerate: {order * n * n} entries > 2^24")
    return order


def enumerate_full_rank(n: int, q: int) -> np.ndarray:
    """Every element of GL(n, q) exactly once, as a (|GL(n, q)|, n, n) stack.

    The elements are C @ V for every pair of the factors that
    ``sample_uniform_full_rank`` draws, each pair giving a distinct element:
    every choice of V's nonzero rows is placed once, and every choice of C's
    below-diagonal entries is broadcast against them. The stack runs over
    C's choices, then V's, each in lexicographic order of the free entries.
    Returned in ``field.element_dtype(q)``, as the sampler's draws are.
    Guarded by ``check_enumerable``.
    """
    check_enumerable(n, q)
    rows = [_vectors(q, n - k)[1:] for k in range(n)]  # row k's nonzero values
    choice = np.indices([len(x) for x in rows]).reshape(n, -1)
    v = np.zeros((choice.shape[1], n, n), dtype=np.int64)
    for k, x in enumerate(rows):
        v[:, k, : n - k] = x[choice[k]]
    drawn = np.broadcast_to(_left_aligned(n, n), v.shape)
    below = _vectors(q, n * (n - 1) // 2)[:, None]  # broadcast against every v
    return _factor_product(v, drawn, below, q).reshape(-1, n, n)


def _vectors(q: int, length: int) -> np.ndarray:
    """Every vector of GF(q)^length, one per row, in lexicographic order."""
    vectors = list(itertools.product(range(q), repeat=length))
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), length)
