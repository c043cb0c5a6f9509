"""Test-side helpers: an unblocked GF(q) elimination that reduces every step, and rank by it."""

import numpy as np


def reference_eliminate(a, q, ncols, jordan):
    """Unblocked Gauss(-Jordan) elimination of int64 ``a`` in place: the test oracle.

    Returns (rank, pivot column list) over the first ``ncols`` columns.
    """
    m = a.shape[0]
    r = 0
    pivots = []
    for col in range(ncols):
        if r == m:
            break
        nz = np.nonzero(a[r:, col] % q)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, q) % q
        below = slice(None) if jordan else slice(r + 1, None)
        factors = a[below, col].copy()
        if jordan:
            factors[r] = 0
        a[below] = (a[below] - np.outer(factors, a[r])) % q
        pivots.append(col)
        r += 1
    return r, pivots


def rank(a, q):
    """Rank of the 2-d integer matrix ``a`` over GF(q), reduced in its own dtype, then eliminated."""
    work = (np.asarray(a) % q).astype(np.int64)
    return reference_eliminate(work, q, work.shape[1], jordan=False)[0]
