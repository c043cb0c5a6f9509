"""Wire codec round-trips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpir import scheme, simnet
from tpir.field import element_width
from tpir.layout import SchemeParams

from query_helpers import decode_dense, v1_query_bytes

QS = [2, 5, 11, 257, 65537]


@st.composite
def random_query(draw):
    q = draw(st.sampled_from(QS))
    K = draw(st.integers(1, 4))
    L = draw(st.integers(1, 16))
    D = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(D, K * L)), q, K, L


@st.composite
def random_answer(draw):
    q = draw(st.sampled_from(QS))
    D = draw(st.integers(1, 64))
    db_id = draw(st.integers(0, 1000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return scheme.Answer(db_id=db_id, values=rng.integers(0, q, size=D)), q


@given(random_query())
@settings(max_examples=200)
def test_query_round_trip(inst):
    mat, q, K, L = inst
    buf = simnet.encode_query(mat, q, K, L)
    mat2, q2, K2, L2 = decode_dense(buf)
    assert (q2, K2, L2) == (q, K, L)
    assert np.array_equal(mat2, mat)
    assert simnet.encode_query(mat2, q2, K2, L2) == buf


@given(random_answer())
@settings(max_examples=200)
def test_answer_round_trip(inst):
    ans, q = inst
    buf = simnet.encode_answer(ans, q)
    ans2, q2 = simnet.decode_answer(buf)
    assert q2 == q and ans2.db_id == ans.db_id
    assert np.array_equal(ans2.values, ans.values)
    assert simnet.encode_answer(ans2, q2) == buf


def _sample_query_bytes():
    rng = np.random.default_rng(0)
    return simnet.encode_query(rng.integers(0, 11, size=(5, 8)), 11, 2, 4)


def test_corrupted_magic_fails_at_offset_zero():
    buf = _sample_query_bytes()
    with pytest.raises(simnet.ParseError) as exc:
        simnet.decode_query(b"JUNK" + buf[4:])
    assert exc.value.offset == 0


def test_unsupported_version_rejected():
    buf = _sample_query_bytes()
    bad = buf[:4] + bytes([simnet.QUERY_VERSION + 1]) + buf[5:]
    with pytest.raises(simnet.ParseError) as exc:
        simnet.decode_query(bad)
    assert exc.value.offset == 4
    assert "version" in str(exc.value)


def test_truncation_names_expected_length():
    buf = _sample_query_bytes()
    with pytest.raises(simnet.ParseError) as exc:
        simnet.decode_query(buf[:-7])
    msg = str(exc.value)
    assert str(len(buf)) in msg and str(len(buf) - 7) in msg


def test_kind_confusion_rejected():
    qbuf = _sample_query_bytes()
    with pytest.raises(simnet.ParseError):
        simnet.decode_answer(qbuf)
    abuf = simnet.encode_answer(scheme.Answer(0, np.arange(4)), 11)
    with pytest.raises(simnet.ParseError):
        simnet.decode_query(abuf)


def test_trailing_garbage_rejected():
    buf = _sample_query_bytes()
    with pytest.raises(simnet.ParseError):
        simnet.decode_query(buf + b"\x00")


@pytest.mark.parametrize("q", [11, 257, 65537, 2**61 - 1])
@pytest.mark.parametrize("kind", ["query", "answer"])
def test_every_prefix_and_overlong_message_raises_parse_error(q, kind):
    """Each proper prefix, with and without a trailing 0xff, and the message plus a byte."""
    valid_q = q if q <= 2**31 else 65537
    if kind == "query":
        decode = simnet.decode_query
        buf = simnet.encode_query(np.arange(12).reshape(2, 6) % valid_q, valid_q, 2, 3)
    else:
        decode = simnet.decode_answer
        buf = simnet.encode_answer(scheme.Answer(3, np.arange(5)), valid_q)
    if q != valid_q:  # above 2^31 the message itself is rejected, at its modulus
        buf = buf[:7] + q.to_bytes(8, "little") + buf[15:]
    bad = [buf[:k] for k in range(len(buf) + (q != valid_q))]
    bad += [buf[:k] + b"\xff" for k in range(len(buf) - 1)] + [buf + b"\x00"]
    for b in bad:
        with pytest.raises(simnet.ParseError) as exc:
            decode(b)
        assert exc.value.offset <= len(b)


@pytest.mark.parametrize("q", QS)
def test_width_matches_field_serialization(q):
    buf = simnet.encode_query(np.zeros((1, 1), dtype=np.int64), q, 1, 1)
    assert buf[6] == element_width(q)


# Only a modulus of 2^61 - 1 or so would need 8-byte elements, which could
# carry values of 2^63 and more that an int64 cast would wrap to negative
# numbers. Such a message, written by hand as no encoder writes it, is
# rejected at its modulus before any element is read.
_Q61 = 2**61 - 1
_TOO_BIG = (2**63).to_bytes(8, "little") + (5).to_bytes(8, "little")


def _eight_byte_message(kind, version, fields):
    return simnet.MAGIC + struct.pack("<BBBQ", version, kind, 8, _Q61) + fields


def test_query_values_of_2_63_rejected():
    fields = struct.pack("<III", 1, 2, 1) + b"\x01" + _TOO_BIG  # one segment of two symbols
    buf = _eight_byte_message(simnet._KIND_QUERY, simnet.QUERY_VERSION, fields)
    with pytest.raises(simnet.ParseError, match=f"q={_Q61}") as exc:
        simnet.decode_query(buf)
    assert exc.value.offset == 7


def test_answer_values_of_2_63_rejected():
    buf = _eight_byte_message(
        simnet._KIND_ANSWER, simnet.ANSWER_VERSION, struct.pack("<II", 0, 2) + _TOO_BIG
    )
    with pytest.raises(simnet.ParseError, match=f"q={_Q61}") as exc:
        simnet.decode_answer(buf)
    assert exc.value.offset == 7


def _with_modulus(q):
    """A valid answer and query at 2^31 - 1, each with its modulus field set to q."""
    answer = simnet.encode_answer(scheme.Answer(0, np.array([5])), 2**31 - 1)
    query = simnet.encode_query(np.array([[1, 5]]), 2**31 - 1, 1, 2)
    return [
        (buf[:7] + q.to_bytes(8, "little") + buf[15:], decode)
        for buf, decode in ((answer, simnet.decode_answer), (query, simnet.decode_query))
    ]


@pytest.mark.parametrize("q", [2**63, 2**64 - 59])
def test_modulus_int64_cannot_hold_rejected_at_its_offset(q):
    for buf, decode in _with_modulus(q):
        with pytest.raises(simnet.ParseError, match=f"q={q}") as exc:
            decode(buf)
        assert exc.value.offset == 7


@pytest.mark.parametrize("q", [2**31 + 1, 2**32, 2**32 + 15, _Q61])
def test_modulus_above_2_31_rejected_at_its_offset(q):
    # the one modulus rule of linalg.check_modulus, applied at the wire
    for buf, decode in _with_modulus(q):
        with pytest.raises(simnet.ParseError, match=f"q={q} is above 2\\^31") as exc:
            decode(buf)
        assert exc.value.offset == 7
    # and no such message is written
    with pytest.raises(ValueError, match=f"q={q} too large"):
        simnet.encode_answer(scheme.Answer(0, np.array([5])), q)
    with pytest.raises(ValueError, match=f"q={q} too large"):
        simnet.encode_query(np.array([[1, 5]]), q, 1, 2)
    # 2^31 itself is in range; the parser does not test primality
    (_, q_answer), (_, _, q_query, _, _) = (decode(buf) for buf, decode in _with_modulus(2**31))
    assert q_answer == q_query == 2**31


def _block_pattern(layout):
    """The (D, K) rows-by-messages pattern of the layout: row r of block B may touch B's members."""
    pattern = np.zeros((layout.per_db, layout.params.K), dtype=bool)
    for b in layout.blocks:
        pattern[b.rows, list(b.subset)] = True
    return pattern


@pytest.mark.parametrize("point", [(2, 2, 1, 2), (2, 3, 2, 5), (3, 2, 1, 3), (3, 3, 2, 4)])
def test_bitmap_is_the_nonzero_segments_inside_one_block_pattern(point):
    """A query's bitmap marks its non-zero segments, all inside the layout's block
    pattern, and that pattern is the same whatever the desired index."""
    p = SchemeParams(*point)
    secrets = scheme.sample_secrets(p, np.random.default_rng(3))
    patterns = []
    for desired in range(p.K):
        plan = scheme.build_queries(p, desired, secrets)
        pattern = _block_pattern(plan.layout)
        patterns.append(pattern)
        for matrix in plan.matrices:
            present, segments, *_ = simnet.decode_query(simnet.encode_query(matrix, p.q, p.K, p.L))
            assert np.array_equal(present, matrix.reshape(-1, p.K, p.L).any(-1))
            assert not (present & ~pattern).any()
            assert segments.shape == (present.sum(), p.L) and segments.any(axis=1).all()
    assert all(np.array_equal(pattern, patterns[0]) for pattern in patterns)


def _v2_query():
    """A query with D = 3 rows, K = 2 and L = 2: 6 bitmap bits, 4 of them set."""
    matrix = np.array([[1, 2, 0, 0], [0, 0, 3, 4], [5, 0, 0, 6]])
    return simnet.encode_query(matrix, 11, 2, 2)


def test_v2_query_layout():
    buf = _v2_query()
    assert buf[4] == simnet.QUERY_VERSION == 2
    assert struct.unpack("<III", buf[15:27]) == (2, 2, 3)
    # bits r*K + k, little-endian in the byte: (0,0), (1,1), (2,0), (2,1)
    assert buf[27] == 0b111001
    # message 0's segments (rows 0 and 2), then message 1's (rows 1 and 2)
    assert list(buf[28:]) == [1, 2, 5, 0, 3, 4, 0, 6]


def _bitmap_with(buf, byte):
    return buf[:27] + bytes([byte]) + buf[28:]


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (lambda buf: _bitmap_with(buf, buf[27] | 0b1000000), "padding bits"),
        (lambda buf: buf[:-2], "expected 36 bytes, got 34"),
        (lambda buf: buf + b"\x07\x08", "expected 36 bytes, got 38"),
        (lambda buf: _bitmap_with(buf, buf[27] & ~1), "expected 34 bytes, got 36"),
        (lambda buf: _bitmap_with(buf, buf[27] | 0b10), "expected 38 bytes, got 36"),
        (lambda buf: buf[:27], "bitmap needs 28 bytes, got 27"),
    ],
    ids=["padding-bit", "one-segment-short", "one-segment-long", "bit-cleared", "bit-set",
         "truncated-bitmap"],
)
def test_v2_query_corruption_raises_parse_error(corrupt, match):
    with pytest.raises(simnet.ParseError, match=match):
        simnet.decode_query(corrupt(_v2_query()))


def test_v1_dense_query_rejected():
    matrix = np.array([[1, 2, 0, 0], [0, 0, 3, 4], [5, 0, 0, 6]])
    with pytest.raises(simnet.ParseError, match="unsupported query version 1") as exc:
        simnet.decode_query(v1_query_bytes(matrix, 11, 2, 2))
    assert exc.value.offset == 4
    # answers keep version 1
    assert simnet.encode_answer(scheme.Answer(0, np.arange(3)), 11)[4] == simnet.ANSWER_VERSION == 1


@pytest.mark.parametrize(
    "matrix", [np.ones((2, 5), dtype=np.int64), np.ones(4, dtype=np.int64), np.ones((2, 4))],
    ids=["columns", "1-d", "float"],
)
def test_encode_query_rejects_a_matrix_it_cannot_split(matrix):
    with pytest.raises(ValueError, match=r"expected integers in K\*L=4 columns"):
        simnet.encode_query(matrix, 11, 2, 2)
