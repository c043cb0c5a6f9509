"""(n, k) MDS codes over GF(q) from Vandermonde generator matrices.

The generator row at evaluation point x is (x^0, x^1, ..., x^(k-1)) with
points 0, 1, ..., n-1, so any k rows form a square Vandermonde matrix on
distinct nodes (``MdsSpec`` requires a prime q >= n) and are invertible; a
generator is built without a check. The generator is deterministic and
globally known; only the secret matrices it multiplies are random.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .field import is_prime

__all__ = [
    "MdsSpec",
    "first_singular",
    "generator",
    "submatrix_inverse",
    "vandermonde_inverse",
]


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
def generator(spec: MdsSpec) -> np.ndarray:
    """n x k Vandermonde generator; row i is (i^0, ..., i^(k-1)) mod q; cached, read-only."""
    nodes = np.arange(spec.n, dtype=np.int64)
    g = np.empty((spec.n, spec.k), dtype=np.int64)
    g[:, 0] = 1
    for j in range(1, spec.k):
        g[:, j] = g[:, j - 1] * nodes % spec.q
    g.setflags(write=False)
    return g


def first_singular(spec: MdsSpec, coord_sets) -> int | None:
    """Index of the first set in an (S, k) coordinate stack whose rows are singular, or None.

    Each set's inverse from ``submatrix_inverse`` (which checks the sets) is
    certified by one 2-d product with the rows, which must be the identity.
    """
    g, eye = generator(spec), np.eye(spec.k, dtype=np.int64)
    coord_sets = np.asarray(coord_sets, dtype=np.int64)
    for i, (inv, c) in enumerate(zip(submatrix_inverse(spec, coord_sets), coord_sets)):
        if not np.array_equal(linalg.mat_mul(inv, g[c], spec.q), eye):
            return i
    return None


def submatrix_inverse(spec: MdsSpec, coords) -> np.ndarray:
    """Exact inverse of generator(spec)[coords, :], for one or a stack of coordinate sets.

    ``coords`` is one set of k distinct coordinates, shape (k,), giving a
    (k, k) inverse, or a stack of S such sets, shape (S, k), giving the
    (S, k, k) stack of their inverses. Every coordinate must lie in 0..n-1;
    anything else raises ``ValueError`` naming the bad coordinates. O(k^2)
    per set, via Lagrange interpolation on the evaluation points; equivalent
    to ``linalg.invert`` of each submatrix but fast enough to build the
    decoding tables of every responder subset a sweep decodes from.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim not in (1, 2) or coords.shape[-1] != spec.k:
        raise ValueError(f"need k={spec.k} coordinates per set, got shape {coords.shape}")
    bad = coords[(coords < 0) | (coords >= spec.n)]
    if bad.size:
        raise ValueError(
            f"coordinates {sorted(set(bad.tolist()))} outside 0..{spec.n - 1}"
        )
    return vandermonde_inverse(coords, spec.q)


def vandermonde_inverse(nodes, q: int) -> np.ndarray:
    """Inverse of the square Vandermonde matrix V[i, j] = nodes[i]^j over GF(q).

    ``nodes`` is one set of k nodes, shape (k,), giving the (k, k) inverse,
    or a stack of S sets, shape (S, k), giving the (S, k, k) stack of
    inverses; the nodes of each set must be distinct mod q. q must be a prime
    of at most 2^31: the weights come from Fermat's little theorem, and the
    int64 products of residues could overflow above 2^31. Anything else, or
    an empty node set, raises ``ValueError``.

    Solving V c = y is polynomial interpolation: c holds the coefficients of
    the degree < k polynomial through (nodes[i], y[i]). Columns of the inverse
    are the Lagrange basis polynomials P / ((x - x_i) P'(x_i)). The master
    polynomial P (multiplying out the linear factors), the k quotients
    (synthetic division) and the values P'(x_i) (Horner's rule on P') each
    take k vectorised steps over the whole stack, updated in place, so the
    peak memory is the output plus O(S k) scratch.
    """
    linalg.check_modulus(q)
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    nodes = np.asarray(nodes, dtype=np.int64) % q
    single = nodes.ndim == 1
    x = nodes.reshape(1, -1) if single else nodes
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"need nodes of shape (k,) or (S, k) with k >= 1, got {nodes.shape}")
    s, k = x.shape
    ordered = np.sort(x, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError("nodes must be distinct mod q")
    # Each recurrence step multiplies by a residue and adds one, so t steps
    # after a reduction a value is below q^(t+1). Reducing every `period`
    # steps keeps it in int64, and a stored row can still be multiplied by a
    # weight.
    period = 1
    while q ** (period + 2) <= 2**63:
        period += 1
    # master polynomial P(x) = prod (x - x_i), coeffs low-to-high, length k+1
    p = np.zeros((s, k + 1), dtype=np.int64)
    p[:, 0] = 1
    neg = (q - x) % q
    scratch = np.empty((s, k), dtype=np.int64)
    for i in range(k):
        t = np.multiply(p[:, : i + 1], neg[:, i : i + 1], out=scratch[:, : i + 1])
        p[:, 1 : i + 2] = p[:, : i + 1]  # multiply by x
        p[:, 0] = 0
        p[:, : i + 1] += t  # minus x_i * p
        if (i + 1) % period == 0:
            p %= q
    p %= q
    # quotient coefficients of P / (x - x_i), one row per degree j, by
    # synthetic division: out[:, j, i] = out[:, j + 1, i] * x_i + p[j + 1]
    out = np.empty((s, k, k), dtype=np.int64)
    out[:, k - 1] = p[:, k : k + 1]
    for j in range(k - 2, -1, -1):
        row = out[:, j]
        np.multiply(out[:, j + 1], x, out=row)
        row += p[:, j + 1 : j + 2]
        if (k - 1 - j) % period == 0:
            row %= q
    # P'(x_i) by Horner's rule on the coefficients (j + 1) p[j + 1] of P'
    dp = p[:, 1:] * np.arange(1, k + 1) % q
    deriv = np.repeat(dp[:, k - 1 :], k, axis=1)
    for j in range(k - 2, -1, -1):
        deriv *= x
        deriv += dp[:, j : j + 1]
        if (k - 1 - j) % period == 0:
            deriv %= q
    deriv %= q
    # weights 1 / P'(x_i) = P'(x_i)^(q-2), by square-and-multiply
    w = np.ones_like(deriv)
    e = q - 2
    while e:
        if e & 1:
            w *= deriv
            w %= q
        e >>= 1
        if e:
            deriv *= deriv
            deriv %= q
    out *= w[:, None, :]
    out %= q
    return out[0] if single else out
