"""The prime field GF(q): the symbol alphabet for messages, codes and queries.

Elements are represented canonically as integers in ``[0, q)``, held in numpy
arrays; arithmetic on them is array work in :mod:`tpir.linalg` and
:mod:`tpir.mds`. Query plans, secrets, GL(n, q) enumerations, decoding
tables and elements read from the wire are held in the unsigned wire dtype of
q's width (``element_dtype``: ``uint8`` to ``uint32``) until arithmetic
widens them; messages, MDS generators and the results of arithmetic are
int64. This module chooses and checks the prime modulus,
tests arrays for entries outside [0, q), and owns their fixed-width byte
encoding.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_prime",
    "smallest_prime_geq",
    "element_width",
    "element_dtype",
    "as_elements",
    "outside_field",
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
    """Smallest of {1, 2, 4} bytes that holds q - 1; a larger q raises ``ValueError``."""
    for w in (1, 2, 4):
        if q - 1 < 1 << (8 * w):
            return w
    raise ValueError(f"modulus {q} too large for 4-byte encoding")


_WIRE_DTYPES = {w: np.dtype(f"<u{w}") for w in (1, 2, 4)}


def element_dtype(q: int) -> np.dtype:
    """The unsigned little-endian wire dtype of q's width: ``<u1`` to ``<u4``."""
    return _WIRE_DTYPES[element_width(q)]


def as_elements(values) -> np.ndarray:
    """``values`` as an array: unsigned integer arrays as they are, signed ones as int64.

    So wire values, which are unsigned, are range-tested and multiplied in
    their own dtype and never copied into int64. Any other dtype, float or
    bool, raises ``ValueError`` rather than being truncated into the field.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"values of dtype {values.dtype}, not integers")
    return values if values.dtype.kind == "u" else values.astype(np.int64, copy=False)


def outside_field(values: np.ndarray, q: int) -> bool:
    """Whether an int64 or unsigned integer array has an entry outside [0, q).

    One max-reduction, no copy: int64 is read as uint64, where negative
    entries are at least 2^63 and the others below it, so it is exact for
    every q up to 2^63, beyond any modulus the wire or the arithmetic takes.
    """
    if values.size == 0:
        return False
    if values.dtype == np.int64:
        values = values.view(np.uint64)
    return int(values.max()) >= q


def elements_to_bytes(values: np.ndarray, q: int) -> bytes:
    """Serialize field elements, in C order, as fixed-width little-endian unsigned ints.

    An unsigned integer array is range-tested in its own dtype, so re-encoding
    decoded wire values never widens them.
    """
    values = as_elements(values)
    if outside_field(values, q):
        raise ValueError("values outside [0, q)")
    return values.astype(element_dtype(q), copy=False).tobytes()


def elements_from_bytes(buf: bytes, q: int, count: int, offset: int = 0) -> np.ndarray:
    """The ``count`` elements in ``buf`` from byte ``offset`` to its end, read in place.

    Returned as a view of ``buf`` in the unsigned wire dtype of q's width, not
    copied into int64 (read-only when ``buf`` is ``bytes``); arithmetic widens
    it where it needs to. Range-checked in that dtype.
    """
    w = element_width(q)
    if len(buf) - offset != count * w:
        raise ValueError(f"expected {count * w} bytes, got {len(buf) - offset}")
    wire = np.frombuffer(buf, dtype=element_dtype(q), count=count, offset=offset)
    if outside_field(wire, q):
        raise ValueError("encoded value outside [0, q)")
    return wire
