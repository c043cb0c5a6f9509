"""Block structure of the retrieval scheme.

Every non-empty subset of message indices gets one block of downloaded
equations: the block for subset B mixes exactly the messages in B. Blocks are
enumerated canonically (by size, then lexicographically) and each block's
coordinates are split into contiguous per-database chunks in database order.
Message indices and database ids are 0-based throughout.

This module is the only place that knows the row map and the code map. Row
map: a database's D query rows (and answer symbols) are its chunks of every
block, concatenated in canonical order; ``Block.rows`` is one block's slice
of them and ``Block.coords(dbs)`` the block-vector coordinates that
databases ``dbs`` hold. Code map: a block containing the desired index
carries a slice of the ``desired_code`` codeword, from ``desired_offset``.
Any other block B carries the information coordinates of its own MDS code,
``Block.code``, whose parity rides in block B + {desired} (interference
alignment); ``aligned`` links the two blocks both ways.

With K messages, N required responders, T colluding databases and M >= N
total databases, a size-j block has alpha = N * (N-T)^(j-1) * T^(K-j) "core"
coordinates; the materialized block vector has (M/N) * alpha entries so that
any N responders hold exactly alpha of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .field import is_prime, smallest_prime_geq
from .linalg import check_modulus
from .mds import MdsSpec

__all__ = [
    "SchemeParams",
    "Block",
    "BlockLayout",
    "build_layout",
    "total_download",
    "max_code_length",
]


def _alpha(K: int, N: int, T: int, j: int) -> int:
    # 0^0 == 1 covers the T == N degenerate case (only layer 1 survives)
    return N * (N - T) ** (j - 1) * T ** (K - j)


def max_code_length(K: int, N: int, T: int, M: int) -> int:
    """Longest MDS codeword any (K, N, T, M) instance needs; q must be >= this."""
    longest = M * N ** (K - 1)  # the desired-message code, (M/N) * N^K
    for j in range(1, K):
        alpha = _alpha(K, N, T, j)
        if alpha:
            longest = max(longest, M * alpha // T)
    return longest


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameters (K messages, N responders, T colluders, M databases).

    q is the field modulus, a prime; when omitted it is chosen as the
    smallest prime that fits the longest MDS code the layout needs. Each
    message has L = N^K symbols. Chosen or passed, q must pass
    ``linalg.check_modulus`` at K * L, the widest product the package runs
    (the (D, K * L) plans times the stacked stores of
    ``audit.correctness_sweep``), else ``ValueError``.
    """

    K: int
    N: int
    T: int
    M: int
    q: int | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not 1 <= self.T <= self.N <= self.M:
            raise ValueError(
                f"need 1 <= T <= N <= M, got T={self.T} N={self.N} M={self.M}"
            )
        needed = max_code_length(self.K, self.N, self.T, self.M)
        if self.q is None:
            object.__setattr__(self, "q", smallest_prime_geq(max(needed, 2)))
        else:
            if not is_prime(self.q):
                raise ValueError(f"q={self.q} is not prime")
            if self.q < needed:
                raise ValueError(
                    f"q={self.q} too small: longest MDS code has length {needed}"
                )
        check_modulus(self.q, self.K * self.L)

    @property
    def L(self) -> int:
        """Message length in field symbols."""
        return self.N**self.K

    @property
    def undesired_secret_rows(self) -> int:
        """Rows of an undesired message's secret that a plan reads: T * N^(K-1)."""
        return self.T * self.N ** (self.K - 1)


@dataclass(frozen=True)
class Block:
    """One block of the layout: the equations mixing exactly ``subset``."""

    subset: tuple[int, ...]  # sorted message indices, 0-based
    alpha: int  # core coordinate count (what N responders deliver)
    block_len: int  # materialized length, (M/N) * alpha
    per_db_len: int  # contiguous chunk each database serves
    row_offset: int  # where the chunk starts in a database's D rows
    contains_desired: bool
    # the block carrying the same pair code: B + {desired} for a pair block B,
    # B for that block, None for {desired}
    aligned: tuple[int, ...] | None = None
    # pair blocks (desired not in subset): their ((M/T) * alpha, alpha) MDS
    # code, None when alpha == 0, and secret rows
    code: MdsSpec | None = None
    secret_rows: dict[int, tuple[int, int]] = field(default_factory=dict)
    # blocks containing the desired index: offset into the desired codeword
    desired_offset: int | None = None

    @property
    def rows(self) -> slice:
        """This block's rows in one database's query or answer."""
        return slice(self.row_offset, self.row_offset + self.per_db_len)

    def coords(self, dbs) -> np.ndarray:
        """Block-vector coordinates held by databases ``dbs``, in that order.

        A stack of id sets, shape (..., n), gives one row per set.
        """
        dbs = np.asarray(dbs, dtype=np.int64)
        held = dbs[..., None] * self.per_db_len + np.arange(self.per_db_len)
        return held.reshape(dbs.shape[:-1] + (-1,))

    @property
    def code_len(self) -> int | None:
        """(M/T) * alpha for a pair block, None for a block holding the desired index."""
        if self.contains_desired:
            return None
        return self.code.n if self.code is not None else 0

    @property
    def parity_len(self) -> int:
        return self.code.n - self.block_len if self.code is not None else 0


@dataclass(frozen=True)
class BlockLayout:
    """Complete coordinate bookkeeping for one (params, desired) pair."""

    params: SchemeParams
    desired: int
    blocks: tuple[Block, ...]

    @cached_property
    def by_subset(self) -> dict[tuple[int, ...], Block]:
        return {b.subset: b for b in self.blocks}

    @property
    def per_db(self) -> int:
        return sum(b.per_db_len for b in self.blocks)

    def desired_coords(self, dbs) -> np.ndarray:
        """Desired-codeword coordinates held by databases ``dbs``, block by block.

        Stacked as for ``Block.coords``. The same for every desired index:
        the blocks holding it have the same sizes in the same order.
        """
        return np.concatenate(
            [b.desired_offset + b.coords(dbs) for b in self.blocks if b.contains_desired],
            axis=-1,
        )

    @property
    def desired_code_len(self) -> int:
        """Length of the desired-message codeword, (M/N) * N^K."""
        p = self.params
        return p.M * p.N ** (p.K - 1)

    @cached_property
    def desired_code(self) -> MdsSpec:
        """The ((M/N) * N^K, N^K) code of the desired message."""
        return MdsSpec(self.desired_code_len, self.params.L, self.params.q)

    def codeword_coords(self, b: Block, dbs) -> np.ndarray:
        """Coordinates of pair block ``b``'s codeword held by databases ``dbs``.

        The information coordinates in ``b``, then the parity coordinates in
        its aligned block, offset by ``b.block_len``. Stacked as for
        ``Block.coords``.
        """
        parity = self.by_subset[b.aligned].coords(dbs)
        return np.concatenate([b.coords(dbs), b.block_len + parity], axis=-1)


def canonical_subsets(K: int) -> list[tuple[int, ...]]:
    """All non-empty subsets of range(K), by size then lexicographic order."""
    return [
        s for j in range(1, K + 1) for s in itertools.combinations(range(K), j)
    ]


def build_layout(params: SchemeParams, desired: int) -> BlockLayout:
    """Assemble the full block layout for retrieving message ``desired``."""
    K, N, T, M = params.K, params.N, params.T, params.M
    if not 0 <= desired < K:
        raise ValueError(f"desired index {desired} out of range [0, {K})")
    blocks = []
    secret_cursor = {k: 0 for k in range(K) if k != desired}
    desired_cursor = row = 0
    for subset in canonical_subsets(K):
        j = len(subset)
        alpha = _alpha(K, N, T, j)
        block_len = M * (N - T) ** (j - 1) * T ** (K - j)  # (M/N) * alpha
        shape = dict(
            subset=subset,
            alpha=alpha,
            block_len=block_len,
            per_db_len=block_len // M,
            row_offset=row,
        )
        row += block_len // M
        if desired in subset:
            blocks.append(
                Block(
                    **shape,
                    contains_desired=True,
                    aligned=tuple(k for k in subset if k != desired) or None,
                    desired_offset=desired_cursor,
                )
            )
            desired_cursor += block_len
        else:
            rows = {}
            for k in subset:
                rows[k] = (secret_cursor[k], secret_cursor[k] + alpha)
                secret_cursor[k] += alpha
            blocks.append(
                Block(
                    **shape,
                    contains_desired=False,
                    aligned=tuple(sorted(subset + (desired,))),
                    code=MdsSpec(M * alpha // T, alpha, params.q) if alpha else None,
                    secret_rows=rows,
                )
            )
    layout = BlockLayout(params=params, desired=desired, blocks=tuple(blocks))
    assert desired_cursor == layout.desired_code_len
    assert all(c == params.undesired_secret_rows for c in secret_cursor.values())
    return layout


def total_download(params: SchemeParams) -> int:
    """Symbols downloaded from the N responding databases.

    Each serves its rows in the layout, the same for every desired index.
    """
    return params.N * build_layout(params, 0).per_db
