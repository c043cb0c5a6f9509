"""End-to-end properties of a retrieval session over generated small points.

Each example is a point (K <= 3, N <= 4, T <= N, M <= N + 2, so L <= 64), a
desired index, a drop set that leaves at least N responders and a seed. The
examples are derandomized, so a run is fixed by the code alone.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from tpir import scheme, simnet
from tpir.field import element_width
from tpir.layout import SchemeParams, build_layout, total_download

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def sessions(draw):
    K = draw(st.integers(1, 3))
    N = draw(st.integers(1, 4))
    T = draw(st.integers(1, N))
    M = draw(st.integers(N, N + 2))
    desired = draw(st.integers(0, K - 1))
    drop = draw(st.sets(st.integers(0, M - 1), max_size=M - N))
    seed = draw(st.integers(0, 2**32 - 1))
    return SchemeParams(K, N, T, M), desired, drop, seed


def run(p, desired, drop, seed):
    rng = np.random.default_rng(seed)
    store = scheme.MessageStore.random(p, rng)
    return store, simnet.run_session(p, desired, store, drop_set=drop, rng=rng)


@SETTINGS
@given(sessions())
def test_session_decodes_replays_and_counts_its_bytes(case):
    p, desired, drop, seed = case
    store, out = run(*case)
    assert np.array_equal(out["decoded"], store.data[desired])
    replayed = simnet.replay_transcript(out["session"])
    assert replayed.tobytes() == out["decoded"].tobytes()

    m = out["metrics"]
    D, w = build_layout(p, desired).per_db, element_width(p.q)
    # s non-zero segments of L symbols, over all M queries of the plan
    s = sum(int(q.reshape(D, p.K, p.L).any(-1).sum()) for q in out["session"].plan.matrices)
    assert m["downloaded_symbols"] == total_download(p)
    assert m["upload_bytes"] == p.M * (27 + -(-D * p.K // 8)) + s * p.L * w
    assert m["download_bytes"] == p.N * (23 + D * w)


@SETTINGS
@given(sessions())
def test_every_n_subset_of_the_answers_decodes_the_same_row(case):
    p, desired, _, seed = case
    store, out = run(p, desired, (), seed)
    session = out["session"]
    answers = [simnet.decode_answer(b)[0] for b in session.transcript["answer_bytes"].values()]
    decoder = scheme.Decoder(p, desired, session.secrets, session.plan.layout)
    for subset in itertools.combinations(answers, p.N):
        assert np.array_equal(decoder.decode(subset), store.data[desired])


@SETTINGS
@given(sessions(), st.data())
def test_one_changed_byte_raises_or_stays_in_range(case, data):
    p, desired, _, seed = case
    store, out = run(p, desired, (), seed)
    session = out["session"]
    kind = data.draw(st.sampled_from(["query", "answer"]))
    m = data.draw(st.integers(0, p.M - 1))
    wire = bytearray(session.transcript[f"{kind}_bytes"][m])
    # the header, then a query's presence bitmap, then the elements, at least one
    header = {"query": 27, "answer": 23}[kind]
    bitmap = -(-session.plan.layout.per_db * p.K // 8) if kind == "query" else 0
    at = data.draw(st.one_of(
        st.integers(0, header - 1),
        st.integers(header, header + bitmap - 1) if bitmap else st.nothing(),
        st.integers(header + bitmap, len(wire) - 1),
    ))
    wire[at] = data.draw(st.integers(0, 255).filter(lambda b: b != wire[at]))
    wire = bytes(wire)
    try:
        if kind == "query":
            _, segments, q, _, _ = simnet.decode_query(wire)
            assert segments.size == 0 or (0 <= segments.min() and segments.max() < q)
            reply = simnet.DatabaseNode(m, store).answer(wire)
            answer, q = simnet.decode_answer(reply)
            assert 0 <= answer.values.min() and answer.values.max() < q
        else:
            answer, q = simnet.decode_answer(wire)
            assert 0 <= answer.values.min() and answer.values.max() < q
            others = [simnet.decode_answer(b)[0] for i, b in
                      session.transcript["answer_bytes"].items() if i != m]
            row = scheme.Decoder(p, desired, session.secrets, session.plan.layout).decode(
                [answer, *others]
            )
            assert 0 <= row.min() and row.max() < p.q
    except (simnet.ParseError, scheme.InvalidAnswerError, ValueError):
        pass
