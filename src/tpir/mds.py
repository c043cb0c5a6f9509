"""(n, k) MDS codes over GF(q) from Vandermonde generator matrices.

The generator row at evaluation point x is (x^0, x^1, ..., x^(k-1)) with
points 0, 1, ..., n-1, so any k rows form a square Vandermonde matrix on
distinct nodes and are invertible. The generator is deterministic and
globally known; only the secret matrices it multiplies are random.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .field import is_prime

__all__ = [
    "MdsSpec",
    "generator",
    "submatrix_inverse",
    "vandermonde_inverse",
    "verify_mds_property",
]

# Exhaustive subset check at construction is cheap up to this code length.
_EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class MdsSpec:
    """An (n, k) MDS code over GF(q); evaluation points are 0..n-1."""

    n: int
    k: int
    q: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need n >= k >= 1, got n={self.n} k={self.k}")
        if self.q < self.n:
            raise ValueError(
                f"field too small: q={self.q} < n={self.n} (no {self.n} distinct points)"
            )
        if not is_prime(self.q):
            raise ValueError(f"q={self.q} is not prime")


@lru_cache(maxsize=None)
def _generator_cached(n: int, k: int, q: int) -> np.ndarray:
    nodes = np.arange(n, dtype=np.int64)
    g = np.empty((n, k), dtype=np.int64)
    g[:, 0] = 1
    for j in range(1, k):
        g[:, j] = g[:, j - 1] * nodes % q
    if n <= _EXHAUSTIVE_LIMIT:
        bad = _check_submatrices(g, k, q, itertools.combinations(range(n), k))
        if bad is not None:
            raise AssertionError(f"MDS property violated for rows {bad}")
    g.setflags(write=False)
    return g


def _check_submatrices(g: np.ndarray, k: int, q: int, subsets):
    for rows in subsets:
        if linalg.rank(g[list(rows)], q) != k:
            return rows
    return None


def generator(spec: MdsSpec) -> np.ndarray:
    """n x k Vandermonde generator; row i is (i^0, ..., i^(k-1)) mod q."""
    return _generator_cached(spec.n, spec.k, spec.q)


def verify_mds_property(
    spec: MdsSpec,
    exhaustive: bool = False,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
):
    """Check that k-row submatrices are invertible.

    Exhaustively over all C(n, k) subsets when requested (or n small),
    otherwise over ``samples`` random subsets. Returns True on success,
    False if some submatrix is singular.
    """
    g = _generator_cached(spec.n, spec.k, spec.q)
    if exhaustive or spec.n <= _EXHAUSTIVE_LIMIT:
        subsets = itertools.combinations(range(spec.n), spec.k)
    else:
        rng = rng or np.random.default_rng(0)
        subsets = (
            tuple(sorted(rng.choice(spec.n, size=spec.k, replace=False)))
            for _ in range(samples)
        )
    return _check_submatrices(g, spec.k, spec.q, subsets) is None


def submatrix_inverse(spec: MdsSpec, coords) -> np.ndarray:
    """Exact inverse of generator(spec)[coords, :] for k distinct coordinates.

    O(k^2), via Lagrange interpolation on the evaluation points; equivalent
    to ``linalg.invert`` of the submatrix but fast enough to run per
    responder subset inside the decoder.
    """
    coords = np.asarray(list(coords), dtype=np.int64)
    if coords.size != spec.k or len(set(coords.tolist())) != spec.k:
        raise ValueError(f"need k={spec.k} distinct coordinates")
    return vandermonde_inverse(coords % spec.q, spec.q)


def vandermonde_inverse(nodes: np.ndarray, q: int) -> np.ndarray:
    """Inverse of the square Vandermonde matrix V[i, j] = nodes[i]^j over GF(q).

    Solving V c = y is polynomial interpolation: c holds the coefficients of
    the degree < k polynomial through (nodes[i], y[i]). Columns of the inverse
    are the Lagrange basis polynomials P / ((x - x_i) P'(x_i)). The master
    polynomial P (multiplying out the linear factors), the k quotients
    (synthetic division) and their values P'(x_i) (Horner's rule) each take
    one vectorised O(k^2) pass. Raises ``ValueError`` for q > 2^31, where
    the int64 products of residues could overflow.
    """
    linalg.check_modulus(q)
    nodes = np.asarray(nodes, dtype=np.int64) % q
    k = nodes.size
    if len(set(nodes.tolist())) != k:
        raise ValueError("nodes must be distinct mod q")
    # master polynomial P(x) = prod (x - x_i), coeffs low-to-high, length k+1
    p = np.zeros(k + 1, dtype=np.int64)
    p[0] = 1
    deg = 0
    for x in nodes.tolist():
        head = p[: deg + 1].copy()
        p[1 : deg + 2] = head  # multiply by x
        p[0] = 0
        p[: deg + 1] = (p[: deg + 1] + head * (q - x)) % q  # minus x_i * p
        deg += 1
    # quotient coefficients of P / (x - x_i), one row per degree j, by
    # synthetic division: bt[j, i] = bt[j + 1, i] * x_i + p[j + 1]
    bt = np.empty((k, k), dtype=np.int64)
    bt[k - 1] = p[k]
    for j in range(k - 2, -1, -1):
        bt[j] = (bt[j + 1] * nodes + p[j + 1]) % q
    # weights 1 / P'(x_i); P'(x_i) is the quotient evaluated at x_i (Horner)
    deriv = bt[k - 1].copy()
    for j in range(k - 2, -1, -1):
        deriv = (deriv * nodes + bt[j]) % q
    w = np.array([pow(int(v), -1, q) for v in deriv], dtype=np.int64)
    return bt * w % q
