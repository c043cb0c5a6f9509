import numpy as np
import pytest
from hypothesis import given, strategies as st

from tpir import field

PRIMES = [2, 3, 5, 7, 11, 13, 101, 257, 65537]


def test_is_prime_small():
    primes_under_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert field.is_prime(n) == (n in primes_under_50)


def test_is_prime_carmichael_and_large():
    # Carmichael numbers fool Fermat tests; these must be rejected
    for n in [561, 1105, 1729, 2465, 2821, 6601]:
        assert not field.is_prime(n)
    assert field.is_prime(2**31 - 1)
    assert not field.is_prime(2**32 + 1)


def test_is_prime_exact_below_documented_bound():
    # the least strong pseudoprime to every prime base up to 37, below 3.3 * 10^24:
    # only base 41 exposes it
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not field.is_prime(n)
    assert field.is_prime(399165290221) and field.is_prime(798330580441)


def test_smallest_prime_geq():
    assert field.smallest_prime_geq(2) == 2
    assert field.smallest_prime_geq(9) == 11
    assert field.smallest_prime_geq(16) == 17
    assert field.smallest_prime_geq(17) == 17
    assert field.smallest_prime_geq(1) == 2


@given(st.sampled_from(PRIMES), st.integers(1, 64))
def test_bytes_round_trip(q, n):
    rng = np.random.default_rng(q * 1000 + n)
    values = rng.integers(0, q, size=n)
    buf = field.elements_to_bytes(values, q)
    assert len(buf) == n * field.element_width(q)
    back = field.elements_from_bytes(buf, q, n)
    assert np.array_equal(back, values)


def test_element_width_breakpoints():
    assert field.element_width(2) == 1
    assert field.element_width(257) == 2
    assert field.element_width(65537) == 4
    assert field.element_width(2**32) == 4
    # 8-byte elements are not part of the wire format
    with pytest.raises(ValueError, match="too large"):
        field.element_width(2**32 + 15)


def test_bytes_reject_out_of_range():
    buf = field.elements_to_bytes(np.array([4]), 7)
    with pytest.raises(ValueError):
        field.elements_from_bytes(bytes([9]), 7, 1)
    assert field.elements_from_bytes(buf, 7, 1)[0] == 4
    # a float is not truncated into the field
    with pytest.raises(ValueError, match="not integers"):
        field.elements_to_bytes(np.array([4.5]), 7)
    # a modulus that needs 8-byte elements is rejected before any is read,
    # so no value of 2^63 or more can wrap negative in int64
    for value in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match="too large"):
            field.elements_from_bytes(value.to_bytes(8, "little"), 2**61 - 1, 1)


@pytest.mark.parametrize("q", [5, 257, 65537, 2**61 - 1])
def test_wire_values_stay_unsigned_and_reencode_unchanged(q):
    values = np.array([[0, 1, q - 1], [q - 2, 3, 2]], dtype=np.int64)
    if q > 2**32:  # needs 8-byte elements: rejected both ways
        with pytest.raises(ValueError, match="too large"):
            field.elements_to_bytes(values, q)
        with pytest.raises(ValueError, match="too large"):
            field.elements_from_bytes(bytes(8 * values.size), q, values.size)
        return
    buf = field.elements_to_bytes(values, q)
    wire = field.elements_from_bytes(buf, q, values.size)
    assert wire.dtype == np.dtype(f"<u{field.element_width(q)}")
    assert np.array_equal(wire, values.ravel())
    assert field.elements_to_bytes(wire, q) == buf
    # any unsigned dtype is range-tested in that dtype, not wrapped through int64
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        top = np.iinfo(dtype).max
        if top < q:
            continue
        ok = np.array([0, q - 1], dtype=dtype)
        assert field.elements_to_bytes(ok, q) == field.elements_to_bytes(ok.astype(np.int64), q)
        for bad in {q, top}:
            with pytest.raises(ValueError, match="outside"):
                field.elements_to_bytes(np.array([1, bad], dtype=dtype), q)
    with pytest.raises(ValueError, match="outside"):
        field.elements_to_bytes(np.array([1, -1]), q)


@pytest.mark.parametrize("q", [2, 2**31 - 1])
def test_outside_field_flags_exactly_the_non_residues(q):
    for bad in (-1, q, -(2**63), 2**63 - 1):
        assert field.outside_field(np.array([0, bad, 1], dtype=np.int64), q)
    for good in ([0], [q - 1], [0, q - 1], []):
        assert not field.outside_field(np.array(good, dtype=np.int64), q)
    assert not field.outside_field(np.array([q - 1], dtype=np.uint64), q)
    assert field.outside_field(np.array([q], dtype=np.uint64), q)
