"""Protocol core: secrets, query coefficient matrices, answering, decoding.

Queries are materialized as explicit D x (K*L) coefficient matrices over the
stacked message vector (W_0; ...; W_{K-1}), one per database. Which of those
rows (and of the answer symbols) belong to which block, and which codeword
coordinates each database holds, comes from the layout's row map only
(``Block.rows``, ``Block.coords``, ``Block.aligned``). A block's codeword
segment is M contiguous per-database chunks, so one reshape spreads it over
all M matrices. Answering is a single matrix-vector product. Decoding
processes blocks in increasing subset size: every block that mixes the
desired message has its interference reconstructed from its aligned
undesired-only block (any alpha coordinates of an MDS codeword determine the
rest), subtracted off, and the surviving desired-codeword coordinates are
inverted through the desired code and the secret matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, mds
from .field import outside_field
from .layout import BlockLayout, SchemeParams, build_layout, total_download

__all__ = [
    "MessageStore",
    "SchemeSecrets",
    "QueryPlan",
    "Answer",
    "InvalidAnswerError",
    "sample_secrets",
    "build_queries",
    "answer_query",
    "Decoder",
    "decode",
    "achieved_rate",
]


@dataclass(frozen=True)
class MessageStore:
    """K messages of L symbols each, as a (K, L) array over GF(q)."""

    data: np.ndarray
    q: int

    def __post_init__(self):
        d = np.asarray(self.data)
        if not np.issubdtype(d.dtype, np.integer):
            raise ValueError(f"message symbols of dtype {d.dtype}, not integers")
        d = d.astype(np.int64, copy=False)
        if d.ndim != 2:
            raise ValueError(f"store must be 2-d (K, L), got shape {d.shape}")
        if outside_field(d, self.q):
            raise ValueError("message symbols outside [0, q)")
        object.__setattr__(self, "data", d)

    @classmethod
    def random(cls, params: SchemeParams, rng: np.random.Generator) -> "MessageStore":
        return cls(rng.integers(0, params.q, size=(params.K, params.L)), params.q)

    @property
    def stacked(self) -> np.ndarray:
        """The K*L column the query matrices act on."""
        return self.data.reshape(-1)


@dataclass(frozen=True)
class SchemeSecrets:
    """K independent uniform draws from GL(N^K, q), private to the user.

    Each matrix may carry leading stack axes, one secret set per index. A
    set drawn for one desired index holds that message's matrix in full
    (L x L) and only the first ``SchemeParams.undesired_secret_rows`` rows
    of each other one, the rows its plan reads.
    """

    matrices: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Answer:
    db_id: int
    values: np.ndarray


class InvalidAnswerError(ValueError):
    """An answer that cannot belong to this session, rejected before decoding."""

    def __init__(self, db_id, reason: str):
        self.db_id = db_id
        super().__init__(f"answer from database {db_id}: {reason}")


@dataclass(frozen=True)
class QueryPlan:
    """Per-database coefficient matrices; a function of secrets and layout only.

    The desired index is retained for the user's own bookkeeping and is never
    serialized toward the databases.
    """

    desired: int
    layout: BlockLayout
    # one (..., D, K*L) matrix per database, with the secrets' stack axes
    matrices: tuple[np.ndarray, ...]


def sample_secrets(
    params: SchemeParams,
    rng: np.random.Generator,
    count: int | None = None,
    desired: int | None = None,
) -> SchemeSecrets:
    """Sample the K secret matrices, deterministically given the rng.

    With ``count``, each matrix is a (count, L, L) stack of independent
    draws: ``count`` secret sets, drawn one message at a time. With
    ``desired``, every other message's matrix is only its first
    ``params.undesired_secret_rows`` rows, shape (..., T * N^(K-1), L): the
    rows a plan for ``desired`` reads. Its calls on ``rng`` and the rows it
    returns are those of the full draw, so the plans, answers and decoded
    messages are the same bytes.
    """
    if desired is not None and not 0 <= desired < params.K:
        raise ValueError(f"desired index {desired} out of range [0, {params.K})")
    rows = params.undesired_secret_rows
    mats = tuple(
        linalg.sample_uniform_full_rank(
            params.L, params.q, rng, count, rows=None if desired in (None, k) else rows
        )
        for k in range(params.K)
    )
    return SchemeSecrets(matrices=mats)


def _desired_spec(layout: BlockLayout) -> mds.MdsSpec:
    p = layout.params
    return mds.MdsSpec(layout.desired_code_len, p.L, p.q)


def _pair_spec(layout: BlockLayout, block) -> mds.MdsSpec:
    return mds.MdsSpec(block.code_len, block.alpha, layout.params.q)


def build_queries(
    params: SchemeParams,
    desired: int,
    secrets: SchemeSecrets,
    layout: BlockLayout | None = None,
) -> QueryPlan:
    """Materialize the M coefficient matrices for retrieving ``desired``.

    Secrets with leading stack axes give matrices with the same leading axes,
    one plan per secret set.
    """
    if layout is None or layout.desired != desired or layout.params != params:
        layout = build_layout(params, desired)
    q, L, K, M = params.q, params.L, params.K, params.M
    stack = secrets.matrices[0].shape[:-2] if secrets.matrices else ()
    if len(secrets.matrices) != K or any(
        s.ndim < 2
        or s.shape[:-2] != stack
        or s.shape[-1] != L
        or (s.shape[-2] != L if k == desired else s.shape[-2] < params.undesired_secret_rows)
        for k, s in enumerate(secrets.matrices)
    ):
        raise ValueError(
            f"secrets do not match params: need K={K} matrices with one stack shape, "
            f"the desired one {L} x {L} and the others at least "
            f"{params.undesired_secret_rows} x {L}"
        )

    # coefficient rows of the desired codeword over W_desired
    x_des = linalg.mat_mul(
        mds.generator(_desired_spec(layout)), secrets.matrices[desired], q
    )
    # coefficient rows of each pair codeword over its message
    pair_rows: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
    for b in layout.blocks:
        if b.contains_desired or b.alpha == 0:
            continue
        gen = mds.generator(_pair_spec(layout, b))
        pair_rows[b.subset] = {
            k: linalg.mat_mul(gen, secrets.matrices[k][..., slice(*b.secret_rows[k]), :], q)
            for k in b.subset
        }

    # M separate arrays, not views of one (M, D, K*L) array: at K=4, N=5, T=2,
    # M=7 one array (which numpy backs with transparent huge pages) raised
    # the peak resident memory of building four plans by about 15 MB.
    matrices = [np.zeros(stack + (layout.per_db, K * L), dtype=np.int64) for _ in range(M)]
    for b in layout.blocks:
        if b.per_db_len == 0:
            continue
        for k in b.subset:
            if k == desired:
                seg = x_des[..., b.desired_offset : b.desired_offset + b.block_len, :]
            elif b.contains_desired:
                # parity of the aligned pair code, exactly this block's length
                seg = pair_rows[b.aligned][k][..., -b.block_len :, :]
            else:
                seg = pair_rows[b.subset][k][..., : b.block_len, :]
            chunks = seg.reshape(stack + (M, b.per_db_len, L))
            for m, matrix in enumerate(matrices):
                matrix[..., b.rows, k * L : (k + 1) * L] = chunks[..., m, :, :]
    return QueryPlan(desired=desired, layout=layout, matrices=tuple(matrices))


def answer_query(db_id: int, q_matrix: np.ndarray, store: MessageStore) -> Answer:
    """A database's deterministic response: Q_m times the stacked store.

    ``q_matrix`` is a 2-d integer array (an unsigned wire-dtype one is used
    as it is) with one column per stored symbol; any other shape raises
    ``ValueError``.
    """
    if q_matrix.ndim != 2:
        raise ValueError(f"query must be a 2-d matrix, got shape {q_matrix.shape}")
    if q_matrix.shape[-1] != store.stacked.size:
        raise ValueError(
            f"query has {q_matrix.shape[-1]} columns, store has {store.stacked.size} symbols"
        )
    values = linalg.mat_mul(q_matrix, store.stacked.reshape(-1, 1), store.q).ravel()
    return Answer(db_id=db_id, values=values)


class Decoder:
    """Interference-cancelling decoder for one (params, desired, secrets) session.

    Inverse matrices are cached per responder subset, so sweeping many
    responder subsets or stores against one plan stays cheap; ``subset_tables``
    fills them for many subsets in one pass.
    """

    def __init__(
        self,
        params: SchemeParams,
        desired: int,
        secrets: SchemeSecrets,
        layout: BlockLayout | None = None,
    ):
        if layout is None or layout.desired != desired or layout.params != params:
            layout = build_layout(params, desired)
        self.params = params
        self.desired = desired
        self.secrets = secrets
        self.layout = layout
        self._secret_inv: np.ndarray | None = None
        self._per_subset: dict[tuple[int, ...], dict] = {}

    def subset_tables(self, subsets) -> list[dict]:
        """The decoding tables of each responder subset, filled in one pass for all.

        Each subset is N increasing database ids, the responders ``decode``
        uses. Its table holds ``"pair_inv"``, block subset -> (alpha, alpha)
        inverse of the pair code rows those responders hold, for every pair
        block with parity, and ``"desired_inv"``, the (r, r) inverse of the
        desired code rows they hold (q is prime, as ``SchemeParams``
        requires). Tables are cached per subset; the missing ones are
        computed together, one stacked inverse per distinct pair code (the
        pair blocks of one size share a code) and one for the desired code.
        """
        p = self.params
        subsets = [tuple(int(m) for m in s) for s in subsets]
        new = [s for s in dict.fromkeys(subsets) if s not in self._per_subset]
        for s in new:
            if len(s) != p.N or s != tuple(sorted(set(s))) or s[0] < 0 or s[-1] >= p.M:
                raise ValueError(f"responders {s} are not {p.N} increasing ids in 0..{p.M - 1}")
        if new:
            by_spec: dict[mds.MdsSpec, list] = {}
            for b in self.layout.blocks:
                if not (b.contains_desired or b.alpha == 0 or b.parity_len == 0):
                    by_spec.setdefault(_pair_spec(self.layout, b), []).append(b)
            pair_inv = {}
            for spec, blocks in by_spec.items():
                coords = np.stack([b.coords(s) for b in blocks for s in new])
                invs = np.split(mds.submatrix_inverse(spec, coords), len(blocks))
                pair_inv.update(zip((b.subset for b in blocks), invs))
            desired_inv = mds.vandermonde_inverse(
                np.stack([self.layout.desired_coords(s) for s in new]), p.q
            )
            for i, s in enumerate(new):
                self._per_subset[s] = {
                    "pair_inv": {sub: inv[i] for sub, inv in pair_inv.items()},
                    "desired_inv": desired_inv[i],
                }
        return [self._per_subset[s] for s in subsets]

    def decode(self, answers) -> np.ndarray:
        """Recover the desired message from >= N answers with distinct db ids.

        Answer values may be vectors of length D or (D, t) matrices; the
        matrix form decodes t independent stores in one pass (columns are
        independent right-hand sides of the same linear system). An answer
        whose database id is outside 0..M-1 or repeats an earlier answer's,
        whose values are not of an integer dtype, are not D symbols long or
        are not residues in 0..q-1, or whose column count differs from that
        of most answers raises ``InvalidAnswerError``.
        """
        p = self.params
        by_id = {}
        batched = False
        for a in answers:
            if not 0 <= a.db_id < p.M:
                raise InvalidAnswerError(a.db_id, f"id outside 0..{p.M - 1}")
            if a.db_id in by_id:
                raise InvalidAnswerError(a.db_id, "duplicate of an earlier answer")
            vals = np.asarray(a.values)
            if not np.issubdtype(vals.dtype, np.integer):
                raise InvalidAnswerError(a.db_id, f"values of dtype {vals.dtype}, not integers")
            vals = vals.astype(np.int64, copy=False)
            if vals.ndim not in (1, 2):
                raise InvalidAnswerError(
                    a.db_id, f"values have {vals.ndim} dimensions, expected 1 or 2"
                )
            if vals.shape[0] != self.layout.per_db:
                raise InvalidAnswerError(
                    a.db_id, f"{vals.shape[0]} symbols, expected {self.layout.per_db}"
                )
            if outside_field(vals, p.q):
                raise InvalidAnswerError(a.db_id, f"values outside 0..{p.q - 1}")
            if vals.ndim == 1:
                vals = vals.reshape(-1, 1)
            else:
                batched = True
            by_id[a.db_id] = vals
        if len(by_id) < p.N:
            raise ValueError(f"need answers from {p.N} databases, got {len(by_id)}")
        cols = [v.shape[1] for v in by_id.values()]
        common = max(set(cols), key=cols.count)
        for m, vals in by_id.items():
            if vals.shape[1] != common:
                raise InvalidAnswerError(
                    m, f"{vals.shape[1]} columns, other answers have {common}"
                )
        responders = tuple(sorted(by_id)[: p.N])
        (tables,) = self.subset_tables([responders])
        answered = np.stack([by_id[m] for m in responders])  # (N, D, columns)

        def received(b):
            return answered[:, b.rows].reshape(-1, common)

        q = p.q
        cleaned = []
        for b in self.layout.blocks:
            if not b.contains_desired or b.per_db_len == 0:
                continue
            vals = received(b)
            if b.aligned is not None:
                pair = self.layout.by_subset[b.aligned]
                # summed info symbols of the aligned interference codeword
                u = linalg.mat_mul(tables["pair_inv"][pair.subset], received(pair), q)
                gen = mds.generator(_pair_spec(self.layout, pair))
                parity_rows = gen[pair.block_len + b.coords(responders)]
                interference = linalg.mat_mul(parity_rows, u, q)
                vals = (vals - interference) % q
            cleaned.append(vals)
        y = np.concatenate(cleaned)

        slw = linalg.mat_mul(tables["desired_inv"], y, q)
        # Only S_desired is ever inverted, so it is inverted here, once per
        # decoder, rather than alongside each of the K secret draws.
        if self._secret_inv is None:
            self._secret_inv = linalg.invert(self.secrets.matrices[self.desired], q)
        out = linalg.mat_mul(self._secret_inv, slw, q)
        return out if batched else out.ravel()


def decode(
    params: SchemeParams, desired: int, secrets: SchemeSecrets, answers
) -> np.ndarray:
    """One-shot decode; build a Decoder directly when sweeping subsets."""
    return Decoder(params, desired, secrets).decode(answers)


def achieved_rate(params: SchemeParams) -> Fraction:
    """Exact rate L / total download over the N responders."""
    return Fraction(params.L, total_download(params))
