"""Test-side helpers: an unblocked GF(q) elimination that reduces every step, rank by
it, products in Python integers, and the modulus bound of ``linalg.check_modulus``."""

import math

import numpy as np
import pytest

from tpir import linalg
from tpir.field import is_prime

# The message of every refusal by ``linalg.check_modulus``.
BOUND = r"\(q-1\)\^2 < 2\^53"


def python_product(a, b, q):
    """(a @ b) mod q with Python integers, for 2-d operands: the test oracle."""
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T] for row in a]


def edge_prime(inner):
    """The largest prime q with inner * (q-1)^2 < 2^53: the largest one linalg takes there."""
    q = math.isqrt((2**53 - 1) // inner) + 1
    while not is_prime(q):
        q -= 1
    return q


def refused(n, q):
    """Whether linalg refuses GF(q) at order n, n * (q-1)^2 >= 2^53; if so, checked.

    A refused q must make ``mat_mul`` at inner length n, ``invert``,
    ``solve`` and ``sample_uniform_full_rank`` each raise ``ValueError``
    naming the bound, the sampler before any call on its generator.
    """
    if n * (q - 1) ** 2 < 2**53:
        return False
    eye = np.eye(n, dtype=np.int64)
    rng = np.random.default_rng(n)
    state = rng.bit_generator.state
    for call in (
        lambda: linalg.mat_mul(eye, eye, q),
        lambda: linalg.invert(eye, q),
        lambda: linalg.solve(eye, eye, q),
        lambda: linalg.sample_uniform_full_rank(n, q, rng),
    ):
        with pytest.raises(ValueError, match=BOUND):
            call()
    assert rng.bit_generator.state == state
    return True


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
