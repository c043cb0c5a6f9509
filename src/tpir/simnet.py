"""Simulated replicated-database deployment.

M nodes hold identical message stores; an orchestrator sends each node its
query over a versioned binary wire format, marks up to M - N nodes silent
(declared non-response, not timeout races), decodes from the N lowest-id
responders, and records a replayable transcript. Session records append to a
line-delimited log; the desired index never appears in queries, transcripts,
or logs.

Every message starts with the header {magic, version, kind, width, q}.
A query (version 2) then carries K, L and D, a D x K presence bitmap (bit
r*K + k marks row r's segment of message k; bits in little-endian order
within each byte, padding bits zero) and only the marked L-symbol segments,
grouped by message, rows in order inside each message. A query's length
thus depends on which segments of its dense D x K*L matrix are non-zero: the
layout's block pattern, the same for every desired index, less any segment
that is zero by chance. An answer (version 1, unchanged) carries its
database id, D and D symbols.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import scheme
from .field import element_width, elements_from_bytes, elements_to_bytes
from .layout import SchemeParams, build_layout
from .linalg import check_modulus

__all__ = [
    "ParseError",
    "MAGIC",
    "QUERY_VERSION",
    "ANSWER_VERSION",
    "encode_query",
    "decode_query",
    "encode_answer",
    "decode_answer",
    "DatabaseNode",
    "RetrievalSession",
    "run_session",
    "replay_transcript",
]

MAGIC = b"TPIR"
QUERY_VERSION = 2  # presence bitmap and non-zero segments; 1 was the dense matrix
ANSWER_VERSION = 1
_KIND_QUERY = 1
_KIND_ANSWER = 2
_VERSIONS = {_KIND_QUERY: QUERY_VERSION, _KIND_ANSWER: ANSWER_VERSION}


class ParseError(ValueError):
    """Malformed wire bytes; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _header(kind: int, q: int) -> bytes:
    check_modulus(q)  # the parser's rule, so that every message written parses
    return MAGIC + struct.pack("<BBBQ", _VERSIONS[kind], kind, element_width(q), q)


_HEADER_LEN = 4 + 3 + 8


def _parse(buf: bytes, kind: int, name: str, fields: str):
    """Validate the header of a message of ``kind``; return (q, its ``fields``, their end).

    ``fields`` is the struct format of the fixed fields after the header.
    """
    if len(buf) < _HEADER_LEN:
        raise ParseError(
            f"header needs {_HEADER_LEN} bytes, got {len(buf)}", len(buf)
        )
    if buf[:4] != MAGIC:
        raise ParseError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}", 0)
    version, got_kind, width, q = struct.unpack("<BBBQ", buf[4:_HEADER_LEN])
    if got_kind != kind:
        raise ParseError(f"wrong message kind {got_kind}, expected {kind}", 5)
    if version != _VERSIONS[kind]:
        raise ParseError(f"unsupported {name} version {version}", 4)
    if q > 2**31:  # the rule of check_modulus
        raise ParseError(f"modulus q={q} is above 2^31", 7)
    if q < 2 or width != element_width(q):
        raise ParseError(f"inconsistent field width {width} for q={q}", 6)
    off = _HEADER_LEN + struct.calcsize(fields)
    if len(buf) < off:
        raise ParseError(f"{name} header needs {off} bytes, got {len(buf)}", len(buf))
    return q, struct.unpack(fields, buf[_HEADER_LEN:off]), off


def _elements(buf: bytes, q: int, n: int, off: int) -> np.ndarray:
    """The ``n`` elements that fill ``buf`` from ``off`` to its end, a view in q's wire dtype."""
    expected = off + n * element_width(q)
    if len(buf) != expected:
        raise ParseError(
            f"truncated payload: expected {expected} bytes, got {len(buf)}",
            min(len(buf), expected),
        )
    return elements_from_bytes(buf, q, n, off)


def encode_query(q_matrix: np.ndarray, q: int, K: int, L: int) -> bytes:
    """One database's query, from its dense D x K*L matrix.

    The header, K, L and D, then the presence bitmap and the non-zero
    segments of ``scheme.query_segments``.
    """
    present, segments = scheme.query_segments(q_matrix, K, L)
    return (
        _header(_KIND_QUERY, q)
        + struct.pack("<III", K, L, present.shape[0])
        + np.packbits(present, bitorder="little").tobytes()
        + elements_to_bytes(segments, q)
    )


def decode_query(buf: bytes) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """Inverse of encode_query: returns (present, segments, q, K, L).

    ``present`` is the (D, K) boolean bitmap and ``segments`` the (s, L)
    segments it marks, message by message, as ``scheme.answer_query`` takes
    them. The segments are a view of ``buf`` (read-only when ``buf`` is
    ``bytes``) in the unsigned wire dtype of q's width, range-checked once
    and not widened to int64. A set padding bit, a body that is not exactly
    the marked segments, or a query of another version raises ``ParseError``.
    """
    q, (K, L, D), off = _parse(buf, _KIND_QUERY, "query", "<III")
    end = off + (D * K + 7) // 8
    if len(buf) < end:
        raise ParseError(f"bitmap needs {end} bytes, got {len(buf)}", len(buf))
    bits = np.unpackbits(np.frombuffer(buf, np.uint8, end - off, off), bitorder="little")
    if bits[D * K :].any():
        raise ParseError("padding bits of the bitmap are set", end - 1)
    present = bits[: D * K].view(bool).reshape(D, K)
    s = int(np.count_nonzero(present))
    return present, _elements(buf, q, s * L, end).reshape(s, L), q, K, L


def encode_answer(answer: scheme.Answer, q: int) -> bytes:
    """One database's answer: header {magic, version, width, q, db_id, D} + D elements."""
    return (
        _header(_KIND_ANSWER, q)
        + struct.pack("<II", answer.db_id, answer.values.size)
        + elements_to_bytes(answer.values, q)
    )


def decode_answer(buf: bytes) -> tuple[scheme.Answer, int]:
    """Inverse of encode_answer: returns (Answer, q).

    The answer's values are a view of ``buf`` (read-only when ``buf`` is
    ``bytes``) in the unsigned wire dtype of q's width; ``Decoder.decode``
    widens them to int64.
    """
    q, (db_id, D), off = _parse(buf, _KIND_ANSWER, "answer", "<II")
    return scheme.Answer(db_id=db_id, values=_elements(buf, q, D, off)), q


@dataclass(frozen=True)
class DatabaseNode:
    """One replicated database; silent nodes receive queries but never answer."""

    id: int
    store: scheme.MessageStore
    behavior: str = "responsive"  # responsive | silent

    def __post_init__(self):
        if self.behavior not in ("responsive", "silent"):
            raise ValueError(f"node behavior {self.behavior!r}, not 'responsive' or 'silent'")

    def answer(self, query_bytes: bytes) -> bytes | None:
        """Wire answer to a wire query whose q, K and L must match the store's."""
        if self.behavior == "silent":
            return None
        present, segments, q, K, L = decode_query(query_bytes)
        for name, got, held in zip("qKL", (q, K, L), (self.store.q, *self.store.data.shape)):
            if got != held:
                raise ValueError(f"query has {name}={got}, store has {name}={held}")
        ans = scheme.answer_query(self.id, present, segments, self.store)
        return encode_answer(ans, q)


@dataclass
class RetrievalSession:
    """The user's record of one session; ``plan.layout`` holds its params and desired index."""

    secrets: scheme.SchemeSecrets
    plan: scheme.QueryPlan
    transcript: dict


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def run_session(
    params: SchemeParams,
    desired: int,
    store: scheme.MessageStore,
    drop_set=(),
    *,
    rng: np.random.Generator,
    log_dir: str | None = None,
) -> dict:
    """One full retrieval against M simulated nodes; returns decode + metrics.

    The secrets come from ``rng`` alone, drawn for ``desired``: only the
    rows its plan reads, the same bytes as a full draw's first rows.
    ``drop_set`` marks nodes silent and must leave at least N responders;
    the decoder uses the N lowest-id ones.
    """
    p = params
    drop_set = frozenset(int(m) for m in drop_set)
    if not drop_set <= set(range(p.M)):
        raise ValueError(f"drop_set {sorted(drop_set)} not a subset of [0, {p.M})")
    if len(drop_set) > p.M - p.N:
        raise ValueError(
            f"drop_set of size {len(drop_set)} leaves fewer than N={p.N} responders"
        )
    layout = build_layout(p, desired)

    secrets = scheme.sample_secrets(p, rng, desired=desired)
    plan = scheme.build_queries(p, desired, secrets, layout=layout)
    nodes = [
        DatabaseNode(m, store, "silent" if m in drop_set else "responsive")
        for m in range(p.M)
    ]

    # dispatch to every node up front, then collect
    query_bytes = {
        node.id: encode_query(plan.matrices[node.id], p.q, p.K, p.L)
        for node in nodes
    }
    answer_bytes = {}
    for node in nodes:
        reply = node.answer(query_bytes[node.id])
        if reply is not None:
            answer_bytes[node.id] = reply

    used = sorted(answer_bytes)[: p.N]
    answers = _answers(p, answer_bytes, used)
    decoder = scheme.Decoder(p, desired, secrets, layout)
    decoded = decoder.decode(answers)

    session = RetrievalSession(secrets, plan, {
        "query_bytes": query_bytes,
        "answer_bytes": answer_bytes,
        "used_responders": used,
    })
    metrics = {
        "downloaded_symbols": sum(len(answers[i].values) for i in range(p.N)),
        "upload_bytes": sum(len(b) for b in query_bytes.values()),
        "download_bytes": sum(len(answer_bytes[m]) for m in used),
        "responders": used,
    }
    _log_session(p, drop_set, session, metrics, store, log_dir)
    return {"decoded": decoded, "session": session, "metrics": metrics}


def _answers(p: SchemeParams, answer_bytes: dict, used) -> list[scheme.Answer]:
    """The parsed answers of databases ``used``.

    An answer whose header names a modulus other than the session's, or a
    database other than the one it came from, raises ``InvalidAnswerError``
    naming the database it came from.
    """
    answers = []
    for m in used:
        answer, q = decode_answer(answer_bytes[m])
        if q != p.q:
            raise scheme.InvalidAnswerError(m, f"modulus q={q}, session has q={p.q}")
        if answer.db_id != m:
            raise scheme.InvalidAnswerError(m, f"header names database {answer.db_id}")
        answers.append(answer)
    return answers


def _log_session(p, drop_set, session, metrics, store, log_dir):
    """Append a privacy-safe session record (the desired index is omitted)."""
    log_dir = log_dir or os.environ.get("TPIR_LOG_DIR")
    if not log_dir:
        return
    record = {
        "schema": 2,
        "timestamp": time.time(),
        "params": {"K": p.K, "N": p.N, "T": p.T, "M": p.M, "q": p.q},
        "drop_set": sorted(drop_set),
        "store_digest": _digest(elements_to_bytes(store.stacked, p.q)),
        "query_digests": {
            str(m): _digest(b) for m, b in session.transcript["query_bytes"].items()
        },
        "answer_digests": {
            str(m): _digest(b) for m, b in session.transcript["answer_bytes"].items()
        },
        "outcome": "decoded",
        "downloaded_symbols": metrics["downloaded_symbols"],
    }
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, "sessions.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


def replay_transcript(session: RetrievalSession) -> np.ndarray:
    """Re-decode purely from recorded bytes; must reproduce the decoded message."""
    layout = session.plan.layout
    used = session.transcript["used_responders"]
    answers = _answers(layout.params, session.transcript["answer_bytes"], used)
    return scheme.Decoder(layout.params, layout.desired, session.secrets, layout).decode(answers)
