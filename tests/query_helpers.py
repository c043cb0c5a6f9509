"""Test-side helpers between dense D x K*L query matrices and version-2 wire queries."""

import struct

import numpy as np

from tpir import scheme, simnet
from tpir.field import element_width, elements_to_bytes


def densify(present, segments, L):
    """The dense (D, K*L) int64 matrix of a decoded query: zero where no segment is sent."""
    D, K = present.shape
    by_message = np.zeros((K, D, L), dtype=np.int64)
    by_message[present.T] = segments
    return by_message.transpose(1, 0, 2).reshape(D, K * L)


def decode_dense(buf):
    """``simnet.decode_query`` with the segments densified: (matrix, q, K, L)."""
    present, segments, q, K, L = simnet.decode_query(buf)
    return densify(present, segments, L), q, K, L


def answer_dense(db_id, matrix, store):
    """A database's answer to a dense query matrix, through the wire: encode, decode, answer."""
    q, (K, L) = store.q, store.data.shape
    present, segments, *_ = simnet.decode_query(simnet.encode_query(matrix, q, K, L))
    return scheme.answer_query(db_id, present, segments, store)


def v1_query_bytes(matrix, q, K, L):
    """A dense matrix in the version-1 query layout: the header, K, L, D and every entry."""
    matrix = np.asarray(matrix)
    return (
        simnet.MAGIC
        + struct.pack("<BBBQ", 1, simnet._KIND_QUERY, element_width(q), q)
        + struct.pack("<III", K, L, matrix.shape[0])
        + elements_to_bytes(matrix.reshape(-1), q)
    )
