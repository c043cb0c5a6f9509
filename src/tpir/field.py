"""The prime field GF(q): the symbol alphabet for messages, codes and queries.

Elements are represented canonically as integers in ``[0, q)``, held in numpy
int64 arrays; arithmetic on them is array work in :mod:`tpir.linalg` and
:mod:`tpir.mds`. This module chooses and checks the prime modulus and owns the
fixed-width byte encoding of field elements.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_prime",
    "smallest_prime_geq",
    "element_width",
    "elements_to_bytes",
    "elements_from_bytes",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set).

    The witness set is sufficient for all n < 3.3 * 10^24, far beyond any
    modulus this library will ever see.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_geq(n: int) -> int:
    """Smallest prime p >= n."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


def element_width(q: int) -> int:
    """Smallest of {1, 2, 4, 8} bytes that holds q - 1."""
    for w in (1, 2, 4, 8):
        if q - 1 < 1 << (8 * w):
            return w
    raise ValueError(f"modulus {q} too large for 8-byte encoding")


def elements_to_bytes(values: np.ndarray, q: int) -> bytes:
    """Serialize field elements as fixed-width little-endian unsigned ints."""
    w = element_width(q)
    flat = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= q):
        raise ValueError("values outside [0, q)")
    dtype = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}[w]
    return flat.astype(dtype).tobytes()


def elements_from_bytes(buf: bytes, q: int, count: int) -> np.ndarray:
    w = element_width(q)
    if len(buf) != count * w:
        raise ValueError(f"expected {count * w} bytes, got {len(buf)}")
    dtype = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}[w]
    values = np.frombuffer(buf, dtype=dtype).astype(np.int64)
    if values.size and values.max() >= q:
        raise ValueError("encoded value outside [0, q)")
    return values
