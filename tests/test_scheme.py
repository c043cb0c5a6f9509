import dataclasses
import hashlib
import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest

from tpir import audit, field, linalg, scheme, simnet
from tpir.layout import SchemeParams, build_layout

from linalg_helpers import BOUND, rank
from query_helpers import answer_dense


def run_roundtrip(p: SchemeParams, seed=0, desired=None, responders=None):
    rng = np.random.default_rng(seed)
    store = scheme.MessageStore.random(p, rng)
    secrets = scheme.sample_secrets(p, rng)
    results = []
    for ell in [desired] if desired is not None else range(p.K):
        plan = scheme.build_queries(p, ell, secrets)
        answers = [answer_dense(m, plan.matrices[m], store) for m in range(p.M)]
        sub = responders or tuple(range(p.N))
        got = scheme.Decoder(p, ell, secrets).decode([answers[m] for m in sub])
        results.append(np.array_equal(got, store.data[ell]))
    return store, results


@pytest.mark.parametrize(
    "K,N,T,M",
    [(2, 3, 2, 3), (2, 4, 2, 4), (2, 4, 3, 4), (3, 3, 2, 3),
     (1, 2, 1, 2), (2, 2, 2, 2), (3, 2, 2, 4), (2, 3, 1, 5)],
)
def test_roundtrip_all_desired(K, N, T, M):
    _, results = run_roundtrip(SchemeParams(K, N, T, M), seed=42)
    assert all(results)


def test_roundtrip_every_responder_subset():
    p = SchemeParams(2, 3, 2, 5)
    rng = np.random.default_rng(9)
    store = scheme.MessageStore.random(p, rng)
    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, 1, secrets)
    answers = [answer_dense(m, plan.matrices[m], store) for m in range(p.M)]
    decoder = scheme.Decoder(p, 1, secrets, plan.layout)
    for sub in itertools.combinations(range(p.M), p.N):
        got = decoder.decode([answers[m] for m in sub])
        assert np.array_equal(got, store.data[1]), f"responders {sub}"


def test_decode_ignores_answer_order():
    p = SchemeParams(2, 3, 2, 4)
    rng = np.random.default_rng(5)
    store = scheme.MessageStore.random(p, rng)
    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, 0, secrets)
    answers = [answer_dense(m, plan.matrices[m], store) for m in (3, 0, 2)]
    got = scheme.Decoder(p, 0, secrets).decode(answers)
    assert np.array_equal(got, store.data[0])


def test_decode_with_a_singular_desired_secret_is_a_typed_error():
    # secrets a caller supplies are not checked when the decoder is built;
    # the decode's one inversion finds no pivot and names the order, L
    p = SchemeParams(2, 3, 2, 4)
    rng = np.random.default_rng(6)
    store = scheme.MessageStore.random(p, rng)
    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, 0, secrets)
    answers = [answer_dense(m, plan.matrices[m], store) for m in range(p.N)]
    singular = secrets.matrices[0].copy()
    singular[-1] = singular[0]
    broken = scheme.SchemeSecrets((singular,) + secrets.matrices[1:])
    with pytest.raises(linalg.SingularMatrixError) as exc:
        scheme.Decoder(p, 0, broken, plan.layout).decode(answers)
    assert exc.value.size == p.L


def test_queries_cannot_depend_on_messages():
    """The store is not even a parameter of query construction."""
    sig = inspect.signature(scheme.build_queries)
    assert "store" not in sig.parameters
    assert not any(
        p.annotation is scheme.MessageStore for p in sig.parameters.values()
    )


def test_query_shape_and_support():
    p = SchemeParams(2, 4, 3, 5)
    secrets = scheme.sample_secrets(p, np.random.default_rng(0))
    plan = scheme.build_queries(p, 0, secrets)
    D = build_layout(p, 0).per_db
    assert all(m.shape == (D, p.K * p.L) for m in plan.matrices)
    # block-row support stays inside the member messages' segments
    row = 0
    for b in plan.layout.blocks:
        allowed = np.zeros(p.K * p.L, dtype=bool)
        for k in b.subset:
            allowed[k * p.L : (k + 1) * p.L] = True
        for m in plan.matrices:
            assert not m[row : row + b.per_db_len][:, ~allowed].any()
        row += b.per_db_len


def test_answer_lengths_identical():
    p = SchemeParams(3, 3, 2, 5)
    rng = np.random.default_rng(2)
    store = scheme.MessageStore.random(p, rng)
    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, 2, secrets)
    lengths = {
        len(answer_dense(m, plan.matrices[m], store).values)
        for m in range(p.M)
    }
    assert lengths == {build_layout(p, 0).per_db}


def test_undesired_coefficients_have_rank_t_n_pow():
    """Each undesired message contributes exactly T*N^(K-1) independent variables."""
    p = SchemeParams(2, 3, 2, 4)
    secrets = scheme.sample_secrets(p, np.random.default_rng(1))
    plan = scheme.build_queries(p, 0, secrets)
    stacked = np.concatenate([m[:, p.L :] for m in plan.matrices])  # message 1 segment
    assert rank(stacked, p.q) == p.T * p.N ** (p.K - 1)


@pytest.mark.parametrize(
    "K,N,T,rate",
    [(2, 3, 2, Fraction(3, 5)), (2, 4, 2, Fraction(2, 3)),
     (2, 4, 3, Fraction(4, 7)), (3, 3, 2, Fraction(9, 19))],
)
def test_achieved_rate_goldens(K, N, T, rate):
    for M in (N, N + 2):
        assert scheme.achieved_rate(SchemeParams(K, N, T, M)) == rate


def test_t_equals_n_rate_is_one_over_k():
    for K in (1, 2, 4):
        assert scheme.achieved_rate(SchemeParams(K, 3, 3, 3)) == Fraction(1, K)


def test_store_validation():
    with pytest.raises(ValueError):
        scheme.MessageStore(np.array([[0, 5]]), 5)
    with pytest.raises(ValueError):
        scheme.MessageStore(np.zeros(3, dtype=np.int64), 5)
    # a float store would be truncated to symbols nobody stored
    with pytest.raises(ValueError, match="float64"):
        scheme.MessageStore(np.array([[0.5, 1.7], [2.9, 4.99]]), 5)
    assert scheme.MessageStore(np.ones((2, 2), dtype=np.uint8), 5).data.dtype == np.int64


@pytest.mark.parametrize(
    "shape,match",
    [(((2,), 6, 8), r"bitmap of shape \(2,\), store has K=2"),
     (((2, 3, 2), 12, 8), r"bitmap of shape \(2, 3, 2\), store has K=2"),
     (((3, 2), 6, 5), r"segments of shape \(6, 5\), bitmap marks 6 of L=4"),
     (((3, 2), 5, 4), r"segments of shape \(5, 4\), bitmap marks 6 of L=4")],
    ids=["1-d", "3-d", "columns", "segments"],
)
def test_answer_query_rejects_queries_of_the_wrong_shape(shape, match):
    store = scheme.MessageStore(np.ones((2, 4), dtype=np.int64), 5)
    bitmap, count, length = shape
    with pytest.raises(ValueError, match=match):
        scheme.answer_query(
            0, np.ones(bitmap, dtype=bool), np.ones((count, length), dtype=np.int64), store
        )


def test_answer_query_rejects_segments_that_are_not_integers():
    # float segments would be truncated into the honest answer
    store = scheme.MessageStore(np.ones((2, 4), dtype=np.int64), 5)
    with pytest.raises(ValueError, match="float64, not integers"):
        scheme.answer_query(0, np.ones((3, 2), dtype=bool), np.ones((6, 4)) + 0.5, store)


# (params, desired) of a layout that does not match (2, 3, 2, 4) and desired 0
_OTHER_LAYOUTS = [((2, 3, 2, 4), 1), ((2, 3, 2, 5), 0), ((2, 3, 1, 4), 0)]


@pytest.mark.parametrize("point,desired", _OTHER_LAYOUTS)
def test_build_queries_rejects_a_layout_of_other_params_or_index(point, desired):
    p = SchemeParams(2, 3, 2, 4)
    secrets = scheme.sample_secrets(p, np.random.default_rng(2))
    with pytest.raises(ValueError, match="does not match"):
        scheme.build_queries(p, 0, secrets, build_layout(SchemeParams(*point), desired))


@pytest.mark.parametrize("point,desired", _OTHER_LAYOUTS)
def test_decoder_rejects_a_layout_of_other_params_or_index(point, desired):
    p = SchemeParams(2, 3, 2, 4)
    secrets = scheme.sample_secrets(p, np.random.default_rng(2))
    with pytest.raises(ValueError, match="does not match"):
        scheme.Decoder(p, 0, secrets, build_layout(SchemeParams(*point), desired))


def test_secrets_shape_mismatch_rejected():
    p = SchemeParams(2, 2, 1, 2)
    bad = scheme.SchemeSecrets(matrices=(np.eye(3, dtype=np.int64),) * 2)
    with pytest.raises(ValueError):
        scheme.build_queries(p, 0, bad)
    # stacked secret sets must agree on their stack shape
    uneven = scheme.SchemeSecrets(
        matrices=(np.zeros((3, p.L, p.L), dtype=np.int64), np.zeros((2, p.L, p.L), dtype=np.int64))
    )
    with pytest.raises(ValueError):
        scheme.build_queries(p, 0, uneven)
    R = p.undesired_secret_rows
    full = np.eye(p.L, dtype=np.int64)
    for mats in (
        (full, full[: R - 1]),  # an undesired secret short of the rows read
        (full[:R], full),  # the desired secret not L x L
        (full, full[:, :R]),  # an undesired secret not L wide
        (full, full[0]),  # not a matrix
    ):
        with pytest.raises(ValueError, match="secrets do not match"):
            scheme.build_queries(p, 0, scheme.SchemeSecrets(matrices=mats))


@pytest.mark.parametrize("count", [None, 3])
@pytest.mark.parametrize(
    "K,N,T,M", [(2, 3, 2, 4), (3, 3, 2, 4), (3, 2, 1, 3), (2, 2, 2, 2), (1, 2, 1, 2)]
)
def test_secrets_drawn_for_desired_are_the_full_draws_rows(K, N, T, M, count):
    p = SchemeParams(K, N, T, M)
    for desired in range(K):
        full_rng = np.random.default_rng(K * 100 + M + desired)
        rows_rng = np.random.default_rng(K * 100 + M + desired)
        full = scheme.sample_secrets(p, full_rng, count)
        part = scheme.sample_secrets(p, rows_rng, count, desired=desired)
        assert rows_rng.bit_generator.state == full_rng.bit_generator.state
        for k, (f, s) in enumerate(zip(full.matrices, part.matrices)):
            rows = p.L if k == desired else p.undesired_secret_rows
            assert s.shape == f.shape[:-2] + (rows, p.L)
            assert np.array_equal(s, f[..., :rows, :])
        got = scheme.build_queries(p, desired, part)
        want = scheme.build_queries(p, desired, full)
        for a, b in zip(got.matrices, want.matrices):
            assert a.tobytes() == b.tobytes()


def test_secrets_for_desired_reject_an_index_out_of_range():
    p = SchemeParams(2, 3, 2, 4)
    for desired in (-1, 2):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="desired index"):
            scheme.sample_secrets(p, rng, desired=desired)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_determinism_given_seed():
    p = SchemeParams(2, 3, 2, 4)
    s1 = scheme.sample_secrets(p, np.random.default_rng(77))
    s2 = scheme.sample_secrets(p, np.random.default_rng(77))
    for a, b in zip(s1.matrices, s2.matrices):
        assert np.array_equal(a, b)
    p1 = scheme.build_queries(p, 0, s1)
    p2 = scheme.build_queries(p, 0, s2)
    for a, b in zip(p1.matrices, p2.matrices):
        assert np.array_equal(a, b)


def _digest(mats, *tail):
    # hashed as int64, the dtype the plans were held in when these were pinned
    data = b"".join(np.asarray(m).astype(np.int64).tobytes() for m in (*mats, *tail))
    return hashlib.sha256(data).hexdigest()[:16]


def test_secrets_and_plans_reproduce_pinned_digests():
    # recorded before secrets and plans took stack axes: without ``count``
    # the same generator must give byte-identical secrets and plans
    rng = np.random.default_rng(7)
    secrets = scheme.sample_secrets(SchemeParams(4, 5, 2, 7), rng)
    assert _digest(secrets.matrices, rng.integers(0, 2**62, size=1)) == "18798e53d7dba553"
    p = SchemeParams(3, 3, 2, 4)
    rng = np.random.default_rng(5)
    plan = scheme.build_queries(p, 1, scheme.sample_secrets(p, rng))
    assert _digest(plan.matrices) == "c681487be1f3ccc4"
    plan = scheme.build_queries(p, 2, scheme.sample_secrets(p, rng))
    audit.without_alignment(plan)
    assert _digest(plan.matrices) == "f22965dd886acffe"


def _params_or_refused(K, N, T, M, q):
    """SchemeParams(K, N, T, M, q); None, once checked to raise, for a q that
    the bound refuses at its widest product, of K * N^K terms (2^31 - 1 here)."""
    if K * N**K * (q - 1) ** 2 < 2**53:
        return SchemeParams(K, N, T, M, q)
    with pytest.raises(ValueError, match=BOUND):
        SchemeParams(K, N, T, M, q)
    return None


@pytest.mark.parametrize("count", [None, 3], ids=["unstacked", "stacked"])
@pytest.mark.parametrize(
    "K,N,T,M,q",
    [(2, 2, 1, 2, 5), (2, 2, 1, 3, 251), (3, 2, 1, 3, 257), (2, 3, 2, 4, 877),
     (2, 2, 1, 2, 65521), (2, 3, 1, 4, 65537), (3, 2, 1, 3, 2**31 - 1)],
)
def test_plans_are_held_in_the_wire_dtype(K, N, T, M, q, count, monkeypatch):
    """Plans come out in the field's wire dtype, equal to the int64 construction
    and with the same query bytes, at moduli of 1, 2 and 4 bytes."""
    p = _params_or_refused(K, N, T, M, q)
    if p is None:
        return
    secrets = scheme.sample_secrets(p, np.random.default_rng(q), count)
    plans = [scheme.build_queries(p, d, secrets) for d in range(K)]
    monkeypatch.setattr(scheme, "element_dtype", lambda q: np.dtype(np.int64))
    wide = [scheme.build_queries(p, d, secrets) for d in range(K)]
    dtype = field.element_dtype(q)
    assert dtype == np.dtype(f"<u{field.element_width(q)}")
    for plan, ref in zip(plans, wide):
        for got, want in zip(plan.matrices, ref.matrices):
            assert got.dtype == dtype and want.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)
            for g, w in zip(got.reshape(-1, *got.shape[-2:]), want.reshape(-1, *want.shape[-2:])):
                assert simnet.encode_query(g, q, K, p.L) == simnet.encode_query(w, q, K, p.L)


@pytest.mark.parametrize(
    "K,N,T,M,q", [(1, 2, 1, 2, 2), (2, 3, 2, 4, 877), (2, 3, 1, 4, 65537), (3, 2, 1, 3, 2**31 - 1)]
)
def test_secrets_and_tables_are_held_in_the_wire_dtype(K, N, T, M, q):
    """Secrets and decoding tables come out in the field's wire dtype, and plans,
    decodes and solves from them are the bytes their int64 casts give."""
    p = _params_or_refused(K, N, T, M, q)
    if p is None:
        return
    dtype = field.element_dtype(q)
    rng = np.random.default_rng(q)
    for count, desired in [(None, None), (2, None), (None, K - 1), (2, 0)]:
        drawn = scheme.sample_secrets(p, rng, count, desired=desired)
        assert all(m.dtype == dtype for m in drawn.matrices)
    secrets = scheme.sample_secrets(p, rng)
    wide = scheme.SchemeSecrets(tuple(m.astype(np.int64) for m in secrets.matrices))
    subsets = list(itertools.combinations(range(p.M), p.N))
    tables = scheme.subset_tables(build_layout(p, 0), subsets)
    assert tables.desired_inv.dtype == dtype
    assert all(inv.dtype == dtype for inv in tables.pair_inv.values())
    wide_tables = dataclasses.replace(
        tables,
        pair_inv={code: inv.astype(np.int64) for code, inv in tables.pair_inv.items()},
        desired_inv=tables.desired_inv.astype(np.int64),
    )
    store = scheme.MessageStore.random(p, rng)
    for desired in range(K):
        plan = scheme.build_queries(p, desired, secrets)
        ref = scheme.build_queries(p, desired, wide)
        for got, want in zip(plan.matrices, ref.matrices):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
        answers = [answer_dense(m, plan.matrices[m], store) for m in range(M)]
        got = scheme.Decoder(p, desired, secrets).decode(answers)
        want = scheme.Decoder(p, desired, wide).decode(answers)
        assert got.tobytes() == want.tobytes() and np.array_equal(got, store.data[desired])
        answered = np.stack([a.values for a in answers])[tables.responders][..., None]
        got = scheme.Decoder(p, desired, secrets).decode_subsets(tables, answered)
        want = scheme.Decoder(p, desired, wide).decode_subsets(wide_tables, answered)
        assert got.tobytes() == want.tobytes()
        assert (got == store.data[desired][None, :, None]).all()
    y = rng.integers(0, q, size=(p.L, 3))
    for s, w in zip(secrets.matrices, wide.matrices):
        assert linalg.solve(s, y, q).tobytes() == linalg.solve(w, y, q).tobytes()


@pytest.mark.parametrize("break_alignment", [False, True], ids=["honest", "broken"])
@pytest.mark.parametrize("K,N,T,M", [(2, 3, 2, 4), (3, 2, 1, 3), (2, 2, 2, 2)])
def test_stacked_plans_match_per_slice_plans(K, N, T, M, break_alignment):
    p = SchemeParams(K, N, T, M)
    secrets = scheme.sample_secrets(p, np.random.default_rng(K * 100 + M), count=5)
    assert all(m.shape == (5, p.L, p.L) for m in secrets.matrices)

    def build(desired, secrets):
        plan = scheme.build_queries(p, desired, secrets)
        if break_alignment and T == N:  # no parity to break, stacked or not
            with pytest.raises(ValueError, match="T < N"):
                audit.without_alignment(plan)
        elif break_alignment:
            audit.without_alignment(plan)
        return plan

    for desired in range(K):
        stacked = build(desired, secrets)
        D = build_layout(p, 0).per_db
        assert all(m.shape == (5, D, K * p.L) for m in stacked.matrices)
        for s in range(5):
            plan = build(desired, scheme.SchemeSecrets(tuple(m[s] for m in secrets.matrices)))
            for got, want in zip(stacked.matrices, plan.matrices):
                assert got[s].dtype == want.dtype and got[s].tobytes() == want.tobytes()


def test_sample_secrets_requires_generator():
    # a fixed fallback seed would give secrets that any database can recompute
    with pytest.raises(TypeError):
        scheme.sample_secrets(SchemeParams(2, 3, 2, 4))


def _decoder_and_answers(p, seed=4):
    rng = np.random.default_rng(seed)
    store = scheme.MessageStore.random(p, rng)
    secrets = scheme.sample_secrets(p, rng)
    plan = scheme.build_queries(p, 1, secrets)
    answers = [answer_dense(m, plan.matrices[m], store) for m in range(p.N)]
    return scheme.Decoder(p, 1, secrets, plan.layout), answers


@pytest.mark.parametrize(
    "tamper",
    [
        lambda a, p: scheme.Answer(-1, a.values),
        lambda a, p: scheme.Answer(p.M, a.values),
        lambda a, p: scheme.Answer(a.db_id, np.append(a.values, 0)),
        lambda a, p: scheme.Answer(a.db_id, a.values[:-1]),
        lambda a, p: scheme.Answer(a.db_id, np.int64(3)),
        lambda a, p: scheme.Answer(a.db_id, a.values.reshape(-1, 1, 1)),
        lambda a, p: scheme.Answer(a.db_id, np.append(a.values[:-1], -1)),
        lambda a, p: scheme.Answer(a.db_id, np.append(a.values[:-1], p.q)),
        lambda a, p: scheme.Answer(a.db_id, np.stack([a.values] * 3, axis=1)),
        lambda a, p: scheme.Answer(a.db_id, a.values - 0.5),
        lambda a, p: scheme.Answer(a.db_id + 1, a.values),
    ],
    ids=[
        "negative-id",
        "id-equals-M",
        "over-long",
        "short",
        "scalar",
        "3-d",
        "negative-value",
        "value-equals-q",
        "2-d",
        "float-values",
        "duplicate-id",
    ],
)
def test_decoder_rejects_invalid_answer(tamper):
    p = SchemeParams(2, 3, 2, 5)
    decoder, answers = _decoder_and_answers(p)
    bad = tamper(answers[0], p)
    with pytest.raises(scheme.InvalidAnswerError) as exc:
        decoder.decode([bad, *answers[1:]])
    assert exc.value.db_id == bad.db_id
    assert f"database {bad.db_id}" in str(exc.value)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("point", [(2, 3, 2, 5), (3, 3, 1, 5)])
def test_decoder_tables_for_many_subsets_match_one_at_a_time(point):
    # the tables are keyed by pair code and are the same for every desired index
    p = SchemeParams(*point)
    subsets = list(itertools.combinations(range(p.M), p.N))
    first = scheme.subset_tables(build_layout(p, 0), subsets)
    assert np.array_equal(first.responders, subsets)
    assert first.desired_inv.shape == (len(subsets), p.L, p.L)
    for desired in range(p.K):
        lay = build_layout(p, desired)
        together = scheme.subset_tables(lay, subsets)
        specs = {b.code for b in lay.blocks if b.parity_len}
        assert together.pair_inv.keys() == first.pair_inv.keys() == specs
        for spec, inv in first.pair_inv.items():
            assert inv.shape == (len(subsets), spec.k, spec.k)
            assert np.array_equal(together.pair_inv[spec], inv)
        assert np.array_equal(together.desired_inv, first.desired_inv)
        for i, sub in enumerate(subsets):
            one = scheme.subset_tables(lay, [sub])
            for spec, inv in one.pair_inv.items():
                assert np.array_equal(together.pair_inv[spec][i], inv[0])
            assert np.array_equal(together.desired_inv[i], one.desired_inv[0])


@pytest.mark.parametrize("subset", [(0, 1), (1, 0, 2), (0, 0, 1), (-1, 0, 1), (2, 3, 5)])
def test_decoder_tables_reject_bad_responder_subsets(subset):
    decoder, _ = _decoder_and_answers(SchemeParams(2, 3, 2, 5))
    with pytest.raises(ValueError, match="increasing ids"):
        scheme.subset_tables(decoder.layout, [subset])


@pytest.mark.parametrize("point", [(2, 3, 2, 5), (3, 3, 1, 5), (4, 4, 2, 6)])
def test_stacked_decode_matches_one_subset_at_a_time(point):
    p = SchemeParams(*point)
    rng = np.random.default_rng(21)
    secrets = scheme.sample_secrets(p, rng)
    stores = [scheme.MessageStore.random(p, rng) for _ in range(2)]
    subsets = list(itertools.combinations(range(p.M), p.N))
    tables = scheme.subset_tables(build_layout(p, 0), subsets)
    for desired in range(p.K):
        plan = scheme.build_queries(p, desired, secrets)
        # answers[j][m]: database m's answer over store j
        answers = [
            [answer_dense(m, plan.matrices[m], st) for m in range(p.M)] for st in stores
        ]
        answered = np.stack(
            [[a.values for a in per_store] for per_store in answers], axis=-1
        )[tables.responders]
        stacked = scheme.Decoder(p, desired, secrets, plan.layout).decode_subsets(
            tables, answered
        )
        assert stacked.shape == (len(subsets), p.L, len(stores))
        for i, sub in enumerate(subsets):
            one = scheme.Decoder(p, desired, secrets, plan.layout)
            for j, st in enumerate(stores):
                alone = one.decode([answers[j][m] for m in sub])
                assert np.array_equal(stacked[i, :, j], st.data[desired]), (desired, sub, j)
                assert np.array_equal(alone, st.data[desired]), (desired, sub, j)


def test_stacked_decode_rejects_mismatched_answers():
    p = SchemeParams(2, 3, 2, 5)
    decoder, answers = _decoder_and_answers(p)
    tables = scheme.subset_tables(decoder.layout, [(0, 1, 2), (1, 2, 3)])
    answered = np.stack([a.values for a in answers])[:, :, None]
    with pytest.raises(ValueError, match="do not match"):
        decoder.decode_subsets(tables, answered[None])  # one subset, two tables
    other = scheme.subset_tables(build_layout(SchemeParams(2, 3, 2, 4), 1), [(0, 1, 2)])
    with pytest.raises(ValueError, match="do not match"):
        decoder.decode_subsets(other, answered[None])
