"""Simulated replicated-database deployment.

M nodes hold identical message stores; an orchestrator sends each node its
coefficient-matrix query over a versioned binary wire format, marks up to
M - N nodes silent (declared non-response, not timeout races), decodes from
the N lowest-id responders, and records a replayable transcript. Session
records append to a line-delimited log; the desired index never appears in
queries, transcripts, or logs.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import scheme
from .field import element_width, elements_from_bytes, elements_to_bytes
from .layout import SchemeParams, build_layout
from .linalg import check_modulus

__all__ = [
    "ParseError",
    "MAGIC",
    "WIRE_VERSION",
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
WIRE_VERSION = 1
_KIND_QUERY = 1
_KIND_ANSWER = 2


class ParseError(ValueError):
    """Malformed wire bytes; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _header(kind: int, q: int) -> bytes:
    check_modulus(q)  # the parser's rule, so that every message written parses
    return MAGIC + struct.pack("<BBBQ", WIRE_VERSION, kind, element_width(q), q)


_HEADER_LEN = 4 + 3 + 8


def _parse(buf: bytes, kind: int, name: str, fields: str, count):
    """Validate a message of ``kind`` and return (q, its ``fields``, its elements).

    ``fields`` is the struct format of the fixed fields after the header,
    and ``count(*fields)`` is the number of elements that must follow them;
    the elements are a view of ``buf`` in the unsigned wire dtype of q.
    """
    if len(buf) < _HEADER_LEN:
        raise ParseError(
            f"header needs {_HEADER_LEN} bytes, got {len(buf)}", len(buf)
        )
    if buf[:4] != MAGIC:
        raise ParseError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}", 0)
    version, got_kind, width, q = struct.unpack("<BBBQ", buf[4:_HEADER_LEN])
    if version != WIRE_VERSION:
        raise ParseError(f"unsupported version {version}", 4)
    if got_kind != kind:
        raise ParseError(f"wrong message kind {got_kind}, expected {kind}", 5)
    if q > 2**31:  # the rule of check_modulus
        raise ParseError(f"modulus q={q} is above 2^31", 7)
    if q < 2 or width != element_width(q):
        raise ParseError(f"inconsistent field width {width} for q={q}", 6)
    off = _HEADER_LEN + struct.calcsize(fields)
    if len(buf) < off:
        raise ParseError(f"{name} header needs {off} bytes, got {len(buf)}", len(buf))
    values = struct.unpack(fields, buf[_HEADER_LEN:off])
    n = count(*values)
    expected = off + n * width
    if len(buf) != expected:
        raise ParseError(
            f"truncated payload: expected {expected} bytes, got {len(buf)}",
            min(len(buf), expected),
        )
    return q, values, elements_from_bytes(buf, q, n, off)


def encode_query(q_matrix: np.ndarray, q: int, K: int, L: int) -> bytes:
    """One database's query: header {magic, version, width, q, K, L, D} + rows."""
    D = q_matrix.shape[0]
    if q_matrix.shape[1] != K * L:
        raise ValueError(f"query has {q_matrix.shape[1]} columns, expected K*L={K * L}")
    return (
        _header(_KIND_QUERY, q)
        + struct.pack("<III", K, L, D)
        + elements_to_bytes(q_matrix.reshape(-1), q)
    )


def decode_query(buf: bytes) -> tuple[np.ndarray, int, int, int]:
    """Inverse of encode_query: returns (matrix, q, K, L).

    The matrix is a view of ``buf`` (read-only when ``buf`` is ``bytes``) in
    the unsigned wire dtype of q's width, range-checked once and not widened
    to int64; ``answer_query`` uses it as it is.
    """
    q, (K, L, D), values = _parse(buf, _KIND_QUERY, "query", "<III", lambda K, L, D: D * K * L)
    return values.reshape(D, K * L), q, K, L


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
    q, (db_id, _), values = _parse(buf, _KIND_ANSWER, "answer", "<II", lambda db_id, D: D)
    return scheme.Answer(db_id=db_id, values=values), q


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
        q_matrix, q, K, L = decode_query(query_bytes)
        for name, got, held in zip("qKL", (q, K, L), (self.store.q, *self.store.data.shape)):
            if got != held:
                raise ValueError(f"query has {name}={got}, store has {name}={held}")
        ans = scheme.answer_query(self.id, q_matrix, self.store)
        return encode_answer(ans, q)


@dataclass
class RetrievalSession:
    params: SchemeParams
    desired: int
    secrets: scheme.SchemeSecrets
    plan: scheme.QueryPlan
    drop_set: frozenset[int]
    transcript: dict = dc_field(default_factory=dict)


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
    t0 = time.perf_counter()

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
    answers = [decode_answer(answer_bytes[m])[0] for m in used]
    decoder = scheme.Decoder(p, desired, secrets, layout)
    decoded = decoder.decode(answers)
    wall = time.perf_counter() - t0

    session = RetrievalSession(
        params=p, desired=desired, secrets=secrets, plan=plan, drop_set=drop_set,
        transcript={
            "query_bytes": query_bytes,
            "answer_bytes": answer_bytes,
            "used_responders": used,
        },
    )
    metrics = {
        "downloaded_symbols": sum(len(answers[i].values) for i in range(p.N)),
        "expected_download": p.N * layout.per_db,
        "upload_bytes": sum(len(b) for b in query_bytes.values()),
        "download_bytes": sum(len(answer_bytes[m]) for m in used),
        "wall_time": wall,
        "responders": used,
    }
    _log_session(p, drop_set, session, metrics, store, log_dir)
    return {"decoded": decoded, "session": session, "metrics": metrics}


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
    used = session.transcript["used_responders"]
    answers = [decode_answer(session.transcript["answer_bytes"][m])[0] for m in used]
    decoder = scheme.Decoder(
        session.params, session.desired, session.secrets, session.plan.layout
    )
    return decoder.decode(answers)
