import copy
import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from tpir import scheme, simnet
from tpir.field import element_width, smallest_prime_geq
from tpir.layout import SchemeParams, total_download

from linalg_helpers import BOUND, edge_prime
from query_helpers import decode_dense, v1_query_bytes


@pytest.fixture
def session_setup():
    p = SchemeParams(2, 3, 2, 5)
    rng = np.random.default_rng(21)
    store = scheme.MessageStore.random(p, rng)
    return p, store, rng


def test_session_with_drops(session_setup):
    p, store, rng = session_setup
    out = simnet.run_session(p, 0, store, drop_set={1, 3}, rng=rng)
    assert np.array_equal(out["decoded"], store.data[0])
    m = out["metrics"]
    assert out["session"].transcript["used_responders"] == [0, 2, 4]
    assert m["downloaded_symbols"] == total_download(SchemeParams(2, 3, 2, 3))


def test_session_success_for_every_legal_drop_set(session_setup):
    p, store, rng = session_setup
    for size in range(p.M - p.N + 1):
        for drop in itertools.combinations(range(p.M), size):
            out = simnet.run_session(p, 1, store, drop_set=drop, rng=rng)
            assert np.array_equal(out["decoded"], store.data[1]), drop


def test_oversized_drop_set_rejected_before_dispatch(session_setup):
    p, store, rng = session_setup
    with pytest.raises(ValueError):
        simnet.run_session(p, 0, store, drop_set={0, 1, 2}, rng=rng)
    with pytest.raises(ValueError):
        simnet.run_session(p, 0, store, drop_set={0, 99}, rng=rng)


def test_session_requires_generator(session_setup):
    p, store, rng = session_setup
    with pytest.raises(TypeError):
        simnet.run_session(p, 0, store)
    with pytest.raises(TypeError):
        simnet.run_session(p, 0, store, (), rng)  # keyword only


def test_empty_drop_set_uses_lowest_ids(session_setup):
    p, store, rng = session_setup
    out = simnet.run_session(p, 0, store, rng=rng)
    assert out["session"].transcript["used_responders"] == [0, 1, 2]
    assert np.array_equal(out["decoded"], store.data[0])


def test_transcript_replay(session_setup):
    p, store, rng = session_setup
    out = simnet.run_session(p, 1, store, drop_set={0}, rng=rng)
    replayed = simnet.replay_transcript(out["session"])
    assert np.array_equal(replayed, out["decoded"])


def test_session_at_the_largest_modulus_decodes():
    # the largest prime the bound takes at this point's widest product, of
    # K * L = 375 terms, where the session's products come nearest 2^53; the
    # next prime is refused
    q = edge_prime(375)
    p = SchemeParams(3, 5, 2, 6, q=q)
    rng = np.random.default_rng(5)
    store = scheme.MessageStore.random(p, rng)
    out = simnet.run_session(p, 2, store, drop_set={1}, rng=rng)
    assert np.array_equal(out["decoded"], store.data[2])
    assert np.array_equal(simnet.replay_transcript(out["session"]), out["decoded"])
    with pytest.raises(ValueError, match=BOUND):
        SchemeParams(3, 5, 2, 6, q=smallest_prime_geq(q + 1))


# SHA-256 prefixes of a seeded session's queries and answer bytes (in
# database order), its decoded message and the generator's next draw,
# recorded when sessions drew every secret in full and sent queries as dense
# version-1 matrices: drawing only the rows a plan reads must leave the
# stream, and so every byte, unchanged, and each version-2 query must decode
# to the dense matrix whose version-1 bytes were hashed.
PINNED_SESSIONS = [
    ((3, 3, 2, 4), 21, 2, (1,), "3a46428177ec1cdd"),
    ((4, 5, 2, 7), 1, 2, (0, 3), "c828fb844301225e"),
]


@pytest.mark.parametrize("point,seed,desired,drop,digest", PINNED_SESSIONS)
def test_session_reproduces_pinned_bytes_of_full_secrets(point, seed, desired, drop, digest):
    p = SchemeParams(*point)
    rng = np.random.default_rng(seed)
    store = scheme.MessageStore.random(p, rng)
    full_rng = copy.deepcopy(rng)
    out = simnet.run_session(p, desired, store, drop_set=drop, rng=rng)
    t = out["session"].transcript
    h = hashlib.sha256()
    for m in sorted(t["query_bytes"]):
        h.update(v1_query_bytes(*decode_dense(t["query_bytes"][m])))
    for m in sorted(t["answer_bytes"]):
        h.update(t["answer_bytes"][m])
    h.update(out["decoded"].tobytes() + rng.integers(0, 2**62, size=1).tobytes())
    assert h.hexdigest()[:16] == digest
    assert np.array_equal(out["decoded"], store.data[desired])
    assert np.array_equal(simnet.replay_transcript(out["session"]), out["decoded"])
    # the same queries as a plan built from the full secrets
    plan = scheme.build_queries(p, desired, scheme.sample_secrets(p, full_rng))
    for m, matrix in enumerate(plan.matrices):
        assert t["query_bytes"][m] == simnet.encode_query(matrix, p.q, p.K, p.L)


def test_transcript_covers_all_traffic(session_setup):
    p, store, rng = session_setup
    out = simnet.run_session(p, 0, store, drop_set={4}, rng=rng)
    t = out["session"].transcript
    assert sorted(t["query_bytes"]) == list(range(p.M))
    assert sorted(t["answer_bytes"]) == [0, 1, 2, 3]  # node 4 silent
    assert out["metrics"]["upload_bytes"] == sum(map(len, t["query_bytes"].values()))


def test_query_bytes_never_mention_desired(session_setup):
    """Wire queries are a function of (params, secrets) only: same secrets, the
    bytes sent for different desired indices have identical structure, and no
    header field encodes the index."""
    p, store, rng = session_setup
    out0 = simnet.run_session(p, 0, store, rng=np.random.default_rng(3))
    out1 = simnet.run_session(p, 1, store, rng=np.random.default_rng(4))
    for out in (out0, out1):
        for b in out["session"].transcript["query_bytes"].values():
            mat, q, K, L = decode_dense(b)
            assert (q, K, L) == (p.q, p.K, p.L)


def test_session_log_omits_desired_index(tmp_path, session_setup):
    p, store, rng = session_setup
    simnet.run_session(p, 1, store, drop_set={2}, rng=rng, log_dir=str(tmp_path))
    simnet.run_session(p, 0, store, rng=rng, log_dir=str(tmp_path))
    lines = (tmp_path / "sessions.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert "desired" not in rec
        assert rec["outcome"] == "decoded"
        assert rec["params"]["K"] == 2
        assert len(rec["query_digests"]) == p.M


def test_log_dir_env_var(tmp_path, session_setup, monkeypatch):
    p, store, rng = session_setup
    monkeypatch.setenv("TPIR_LOG_DIR", str(tmp_path))
    simnet.run_session(p, 0, store, rng=rng)
    assert (tmp_path / "sessions.jsonl").exists()


@pytest.mark.parametrize(
    "q,K,L,name", [(101, 2, 4, "q"), (5, 4, 2, "K"), (5, 2, 3, "L")]
)
def test_node_rejects_query_for_another_store(q, K, L, name):
    """A GF(5) store of K=2 messages of L=4 symbols answers only such queries,
    even when the column count K*L happens to match."""
    node = simnet.DatabaseNode(0, scheme.MessageStore(np.ones((2, 4), dtype=np.int64), 5))
    query = simnet.encode_query(np.ones((3, K * L), dtype=np.int64), q, K, L)
    with pytest.raises(ValueError, match=f"{name}="):
        node.answer(query)


def test_node_rejects_unknown_behavior():
    store = scheme.MessageStore(np.ones((2, 4), dtype=np.int64), 5)
    with pytest.raises(ValueError, match="'silnet'"):
        simnet.DatabaseNode(0, store, "silnet")


@pytest.mark.parametrize("point", [(2, 3, 2, 5), (4, 5, 2, 7)])
def test_node_answers_wire_queries_as_int64_queries(point):
    """A node answers from the query's wire-dtype view with the bytes an int64
    query matrix gives, and never writes to the query buffer."""
    p = SchemeParams(*point)
    rng = np.random.default_rng(5)
    store = scheme.MessageStore.random(p, rng)
    plan = scheme.build_queries(p, 1, scheme.sample_secrets(p, rng))
    for m in range(p.M):
        query = plan.matrices[m].astype(np.int64)
        qb = simnet.encode_query(query, p.q, p.K, p.L)
        assert simnet.encode_query(plan.matrices[m], p.q, p.K, p.L) == qb
        present, wire, *_ = simnet.decode_query(qb)
        assert wire.dtype == np.dtype(f"u{element_width(p.q)}") and not wire.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            wire %= p.q
        answer = scheme.answer_query(m, present, wire.astype(np.int64), store)
        want = simnet.encode_answer(answer, p.q)
        node = simnet.DatabaseNode(m, store)
        assert node.answer(qb) == want
        # a mutable buffer gives a writable view, which must stay as it was sent
        buf = bytearray(qb)
        assert node.answer(buf) == want and buf == qb


def _declaring(buf, q):
    """Wire bytes with the header's modulus field rewritten to ``q``."""
    return buf[:7] + q.to_bytes(8, "little") + buf[15:]


def test_answer_of_another_modulus_is_rejected(session_setup, monkeypatch):
    """Database 0's answer declares q = 251 (the same 1-byte width as q = 17):
    the session and its replay reject it, naming the database."""
    p, store, _ = session_setup
    assert p.q == 17
    out = simnet.run_session(p, 1, store, rng=np.random.default_rng(8))
    session = out["session"]
    session.transcript["answer_bytes"][0] = _declaring(session.transcript["answer_bytes"][0], 251)
    with pytest.raises(scheme.InvalidAnswerError, match="database 0: modulus q=251") as exc:
        simnet.replay_transcript(session)
    assert exc.value.db_id == 0

    honest = simnet.DatabaseNode.answer

    def answer(node, query):
        reply = honest(node, query)
        return _declaring(reply, 251) if node.id == 0 else reply

    monkeypatch.setattr(simnet.DatabaseNode, "answer", answer)
    with pytest.raises(scheme.InvalidAnswerError, match="database 0: modulus q=251"):
        simnet.run_session(p, 1, store, rng=np.random.default_rng(8))


def _relabeled(buf, db_id):
    """Wire answer bytes re-encoded with the header's database id set to ``db_id``."""
    answer, q = simnet.decode_answer(buf)
    return simnet.encode_answer(scheme.Answer(db_id=db_id, values=answer.values), q)


def test_answer_naming_another_database_is_rejected(session_setup, monkeypatch):
    """Database 2's answer names database 4 in its header: decoding it as
    database 4's symbols gives a wrong message, so the session and its
    replay reject it, naming the database it came from."""
    p, store, _ = session_setup
    out = simnet.run_session(p, 1, store, rng=np.random.default_rng(1))
    session = out["session"]
    session.transcript["answer_bytes"][2] = _relabeled(session.transcript["answer_bytes"][2], 4)
    with pytest.raises(scheme.InvalidAnswerError, match="database 2: header names database 4") as exc:
        simnet.replay_transcript(session)
    assert exc.value.db_id == 2

    honest = simnet.DatabaseNode.answer

    def answer(node, query):
        reply = honest(node, query)
        return _relabeled(reply, 4) if node.id == 2 else reply

    monkeypatch.setattr(simnet.DatabaseNode, "answer", answer)
    with pytest.raises(scheme.InvalidAnswerError, match="database 2: header names database 4"):
        simnet.run_session(p, 1, store, rng=np.random.default_rng(1))
