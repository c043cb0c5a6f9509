"""Protocol core: secrets, query coefficient matrices, answering, decoding.

Queries are materialized as explicit D x (K*L) coefficient matrices over the
stacked message vector (W_0; ...; W_{K-1}), one per database, held in the
field's unsigned wire dtype (``field.element_dtype``), so their segments are
encoded with no int64 copy. Which rows (and answer symbols) belong to which
block, and which MDS code carries each block's coordinates, is the layout's
row map and code map (``tpir.layout``); this module only reads them. A
block's codeword segment is M contiguous per-database chunks, so one reshape
spreads it over all M matrices. A query travels as its non-zero message
segments (``query_segments``), and a database answers with one
matrix-vector product per message. Decoding processes blocks in increasing
subset size: every block that mixes the desired message has the interference
of its aligned pair code re-encoded and subtracted off, and the surviving
desired-codeword coordinates are inverted through the desired code and the
secret matrix. The inverses of the code rows a set of responders holds depend
on public data only, the params and the responders, so ``subset_tables``
computes them for a stack of responder subsets at once, and one set serves
every desired index. ``Decoder.decode_subsets`` decodes the answers of such a
stack in one pass; ``Decoder.decode`` checks the answers of one subset and
decodes them there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, mds
from .field import as_elements, element_dtype, outside_field
from .layout import BlockLayout, SchemeParams, build_layout, total_download

__all__ = [
    "MessageStore",
    "SchemeSecrets",
    "QueryPlan",
    "Answer",
    "InvalidAnswerError",
    "SubsetTables",
    "sample_secrets",
    "build_queries",
    "query_segments",
    "answer_query",
    "subset_tables",
    "Decoder",
    "achieved_rate",
]


@dataclass(frozen=True)
class MessageStore:
    """K messages of L symbols each, as a (K, L) array over GF(q)."""

    data: np.ndarray
    q: int

    def __post_init__(self):
        d = as_elements(self.data).astype(np.int64, copy=False)
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
    of each other one, the rows its plan reads. Entries are residues held
    in ``field.element_dtype(q)``, the wire dtype of q's width, as plans
    are; they reach arithmetic only through ``linalg.mat_mul`` and
    ``linalg.solve``, which take them as they are.
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

    The layout records the params and the desired index, for the user's own
    bookkeeping; neither is serialized toward the databases.
    """

    layout: BlockLayout
    # one (..., D, K*L) matrix per database, with the secrets' stack axes, in
    # the unsigned wire dtype of q's width (``field.element_dtype(q)``)
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


def build_queries(
    params: SchemeParams,
    desired: int,
    secrets: SchemeSecrets,
    layout: BlockLayout | None = None,
) -> QueryPlan:
    """Materialize the M coefficient matrices for retrieving ``desired``.

    Secrets with leading stack axes give matrices with the same leading axes,
    one plan per secret set. The matrices are in ``field.element_dtype(q)``:
    every coefficient is a residue below q, so it fits its wire width exactly.
    A ``layout`` given must be that of ``params`` and ``desired``, else
    ``ValueError``.
    """
    layout = _layout(params, desired, layout)
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
    x_des = linalg.mat_mul(mds.generator(layout.desired_code), secrets.matrices[desired], q)
    # coefficient rows of each pair codeword over its message
    pair_rows: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
    for b in layout.blocks:
        if b.code is None:
            continue
        gen = mds.generator(b.code)
        pair_rows[b.subset] = {
            k: linalg.mat_mul(gen, secrets.matrices[k][..., slice(*b.secret_rows[k]), :], q)
            for k in b.subset
        }

    # M separate arrays, not views of one (M, D, K*L) array: at K=4, N=5, T=2,
    # M=7 one array (which numpy backs with transparent huge pages) raised
    # the peak resident memory of building four plans by about 15 MB.
    matrices = [
        np.zeros(stack + (layout.per_db, K * L), dtype=element_dtype(q)) for _ in range(M)
    ]
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
    return QueryPlan(layout=layout, matrices=tuple(matrices))


def _layout(params: SchemeParams, desired: int, layout: BlockLayout | None) -> BlockLayout:
    """``build_layout(params, desired)`` for None; ``ValueError`` for a layout of other ones."""
    if layout is None:
        return build_layout(params, desired)
    if layout.params != params or layout.desired != desired:
        raise ValueError(
            f"layout for {layout.params}, desired {layout.desired}, "
            f"does not match {params}, desired {desired}"
        )
    return layout


def query_segments(q_matrix: np.ndarray, K: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense D x K*L query as (present, segments): the form it travels in.

    ``present`` is the (D, K) boolean array of which L-symbol segments are
    non-zero (row r's segment of message k is columns k*L to (k+1)*L), and
    ``segments`` is those segments, (s, L) in the matrix's dtype, message by
    message with rows in order inside each message. A matrix that is not
    2-d integer array with K*L columns raises ``ValueError``.
    """
    q_matrix = np.asarray(q_matrix)
    if q_matrix.dtype.kind not in "iu" or q_matrix.ndim != 2 or q_matrix.shape[1] != K * L:
        raise ValueError(
            f"query of dtype {q_matrix.dtype} and shape {q_matrix.shape}, "
            f"expected integers in K*L={K * L} columns"
        )
    by_row = q_matrix.reshape(-1, K, L)
    # any(-1) of an integer array, without its boolean copy: a quarter of the time
    present = np.bitwise_or.reduce(by_row, axis=-1) != 0
    return present, by_row.transpose(1, 0, 2)[present.T]


def answer_query(
    db_id: int, present: np.ndarray, segments: np.ndarray, store: MessageStore
) -> Answer:
    """A database's deterministic response: its query times the stacked store.

    The query is in the form of ``query_segments``: a (D, K) boolean
    ``present`` and the (s, L) ``segments`` it marks (integers; an unsigned
    wire-dtype array is used as it is). Each message's segments are one
    contiguous block, multiplied by that message in one product and added
    into the rows ``present`` names. Any other shape raises ``ValueError``.
    """
    K, L = store.data.shape
    present = np.asarray(present, dtype=bool)
    if present.ndim != 2 or present.shape[1] != K:
        raise ValueError(f"presence bitmap of shape {present.shape}, store has K={K} messages")
    counts = np.count_nonzero(present, axis=0)
    if np.shape(segments) != (counts.sum(), L):
        raise ValueError(
            f"segments of shape {np.shape(segments)}, bitmap marks {counts.sum()} "
            f"of L={L} symbols"
        )
    values = np.zeros(present.shape[0], dtype=np.int64)
    start = 0
    for k, n in enumerate(counts):
        if n:
            column = store.data[k].reshape(-1, 1)
            part = linalg.mat_mul(segments[start : start + n], column, store.q)
            # a row sums at most K residues: no int64 overflow
            values[present[:, k]] += part[:, 0]
            start += n
    values %= store.q
    return Answer(db_id=db_id, values=values)


@dataclass(frozen=True)
class SubsetTables:
    """Decoding tables of S responder subsets: public, and the same for every desired index.

    The inverses are residues held in ``field.element_dtype(q)``, the wire
    dtype of q's width, and reach arithmetic only through ``linalg.mat_mul``.
    """

    params: SchemeParams
    responders: np.ndarray  # (S, N) increasing database ids
    pair_inv: dict[mds.MdsSpec, np.ndarray]  # pair code -> (S, alpha, alpha)
    desired_inv: np.ndarray  # (S, L, L)


def subset_tables(layout: BlockLayout, subsets) -> SubsetTables:
    """The decoding tables of every responder subset, computed in one pass for all.

    Each subset is N increasing database ids in 0..M-1; anything else raises
    ``ValueError``. A subset's tables are the inverses of the rows its
    databases hold of each pair code with parity and of the desired code (q
    is prime, as ``SchemeParams`` requires). Those rows depend on block
    sizes only, not on the desired index, so tables built from the layout of
    one desired index serve them all.
    """
    p = layout.params
    subsets = [tuple(int(m) for m in s) for s in subsets]
    for s in subsets:
        if len(s) != p.N or s != tuple(sorted(set(s))) or s[0] < 0 or s[-1] >= p.M:
            raise ValueError(f"responders {s} are not {p.N} increasing ids in 0..{p.M - 1}")
    responders = np.array(subsets, dtype=np.int64).reshape(len(subsets), p.N)
    pairs = {b.code: b for b in layout.blocks if b.parity_len}

    def inverse(code, coords):
        return mds.submatrix_inverse(code, coords).astype(element_dtype(p.q))

    return SubsetTables(
        p,
        responders,
        {code: inverse(code, b.coords(responders)) for code, b in pairs.items()},
        inverse(layout.desired_code, layout.desired_coords(responders)),
    )


class Decoder:
    """Interference-cancelling decoder for one session's secrets and layout.

    ``decode_subsets`` decodes a stack of responder subsets in one pass;
    ``decode`` checks the answers of one subset and decodes them there,
    building that subset's tables. The secret step is one ``linalg.solve``.
    A ``layout`` given must be that of ``params`` and ``desired``, else
    ``ValueError``.
    """

    def __init__(
        self,
        params: SchemeParams,
        desired: int,
        secrets: SchemeSecrets,
        layout: BlockLayout | None = None,
    ):
        self.layout = _layout(params, desired, layout)
        self.secrets = secrets

    def decode(self, answers) -> np.ndarray:
        """Recover the desired message from >= N answers with distinct db ids.

        Each answer's values are one vector of D symbols. An answer whose
        database id is outside 0..M-1 or repeats an earlier answer's, or
        whose values are not of an integer dtype, not of shape (D,) or not
        residues in 0..q-1, raises ``InvalidAnswerError``.
        ``decode_subsets`` decodes many stores and subsets in one pass.
        """
        p = self.layout.params
        by_id = {}
        for a in answers:
            if not 0 <= a.db_id < p.M:
                raise InvalidAnswerError(a.db_id, f"id outside 0..{p.M - 1}")
            if a.db_id in by_id:
                raise InvalidAnswerError(a.db_id, "duplicate of an earlier answer")
            vals = np.asarray(a.values)
            if not np.issubdtype(vals.dtype, np.integer):
                raise InvalidAnswerError(a.db_id, f"values of dtype {vals.dtype}, not integers")
            vals = vals.astype(np.int64, copy=False)
            if vals.shape != (self.layout.per_db,):
                raise InvalidAnswerError(
                    a.db_id, f"values of shape {vals.shape}, expected ({self.layout.per_db},)"
                )
            if outside_field(vals, p.q):
                raise InvalidAnswerError(a.db_id, f"values outside 0..{p.q - 1}")
            by_id[a.db_id] = vals
        if len(by_id) < p.N:
            raise ValueError(f"need answers from {p.N} databases, got {len(by_id)}")
        responders = sorted(by_id)[: p.N]
        answered = np.stack([by_id[m] for m in responders])[None, :, :, None]
        return self.decode_subsets(subset_tables(self.layout, [responders]), answered).ravel()

    def decode_subsets(self, tables: SubsetTables, answered: np.ndarray) -> np.ndarray:
        """Recover the desired message from the answers of every subset of ``tables``.

        ``answered`` is an (S, N, D, t) array: row i holds the answers of the
        databases ``tables.responders[i]``, in that order, as t columns of
        residues mod q, one per store. Returns the (S, L, t) messages. Only
        the shape is checked (``ValueError``); ``decode`` checks answers
        from outside. The codes are undone from public data only, then
        S_desired^-1 is applied to every subset's columns in one ``linalg.solve``.
        """
        p = self.layout.params
        s = len(tables.responders)
        shape = (s, p.N, self.layout.per_db)
        if tables.params != p or answered.ndim != 4 or answered.shape[:3] != shape:
            raise ValueError(
                f"answers of shape {answered.shape} do not match {s} subsets of "
                f"{p.N} databases with {self.layout.per_db} symbols each at {tables.params}"
            )
        slw = _code_symbols(self.layout, tables, answered)
        out = linalg.solve(self.secrets.matrices[self.layout.desired], slw, p.q)
        return out.reshape(p.L, s, answered.shape[-1]).transpose(1, 0, 2)


def _code_symbols(layout: BlockLayout, tables: SubsetTables, answered: np.ndarray) -> np.ndarray:
    """S_desired times the desired message, (L, S * t), from (S, N, D, t) answers.

    Blocks are processed in layout order; each block that holds the desired
    index has its aligned interference, re-encoded from the aligned pair
    block's symbols, subtracted, and the cleaned symbols are inverted through
    the desired code. The columns come out subset after subset.
    """
    q = layout.params.q
    s, t = len(tables.responders), answered.shape[-1]

    def received(b):
        return answered[:, :, b.rows].reshape(s, -1, t)

    cleaned = []
    for b in layout.blocks:
        if not b.contains_desired or b.per_db_len == 0:
            continue
        vals = received(b)
        if b.aligned is not None:
            pair = layout.by_subset[b.aligned]
            # summed info symbols of the aligned interference codeword, one
            # 2-d product per subset: the benchmark's traced mat_mul layer
            # reads the shape of a product's first operand as one matrix
            u = np.stack([
                linalg.mat_mul(inv, r, q)
                for inv, r in zip(tables.pair_inv[pair.code], received(pair))
            ])
            # all its parity symbols, for every subset at once, then the ones
            # each subset's databases hold
            parity = linalg.mat_mul(mds.generator(pair.code)[pair.block_len :], u, q)
            held = b.coords(tables.responders)[..., None]
            vals = (vals - np.take_along_axis(parity, held, axis=1)) % q
        cleaned.append(vals)
    y = np.concatenate(cleaned, axis=1)
    # One subset at a time as well: a float64 copy of the whole (S, L, L)
    # stack of desired-code inverses would raise the peak memory.
    return np.concatenate(
        [linalg.mat_mul(inv, ys, q) for inv, ys in zip(tables.desired_inv, y)], axis=1
    )


def achieved_rate(params: SchemeParams) -> Fraction:
    """Exact rate L / total download over the N responders."""
    return Fraction(params.L, total_download(params))
