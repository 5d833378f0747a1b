"""Demonstration retrieval: precomputed index, relevance scores, top-k.

Every corpus pair's source side is embedded once into three
representations and stored in a :class:`RetrievalIndex`. A query's top k
are the entries with the best fused score, where an entry's scores are

- dense score: inner product of the two unit dense vectors,
- sparse score: sum over co-occurring token ids of the two token weights,
- multi score: mean over query tokens of the best match against the
  demonstration's token vectors (late interaction),

fused as ``alpha1 * dense + alpha2 * sparse + alpha3 * multi``. The sparse
score is unbounded while the other two live in [-1, 1]; scores are fused raw
by default, with an opt-in min-max normalization over the candidate pool.

The top k are exact: their entries, order, ties at the cut and four scores
are those of scoring every entry, in float64 on the stored float32
representations, so a built and a reloaded index give the same results.
Queries are scored in blocks: :func:`retrieve_many` scores a list of texts
in one pass, and :func:`retrieve_topk` is a block of one. A block's queries
share one float32 dense product and one float32 multi-vector product, which
only bound and choose: every exact score is a float64 kernel value whose
bits depend on the two rows alone, so a query scores the same alone and in
any block. With raw fusion and k below the corpus size most entries are
only bounded from above and never scored exactly
(:meth:`RetrievalIndex._top`); a full scan runs its gather-max over the
entries' jagged diagonals of row ids (:meth:`RetrievalIndex._scan`).
:func:`build_index` embeds each distinct token once, and the index's arrays
are its file format.
"""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _binio
from .corpus import Corpus, DemoPair, read_pair_table, write_pair_table
from .embedding import (
    _TABLE_HEAD,
    OOV_ID_SPACE,
    DenseVec,
    EmbeddingTable,
    MultiVec,
    ProjectionSet,
    SparseWeights,
    dense_embed,
    embed_tokens,
    lookup_tokens,
    multi_embed,
    segment,
    sparse_embed,
    token_weights,
    unit_rows,
)
from .errors import (
    AfspError,
    DimensionMismatch,
    EmptyQuery,
    EmptyText,
    FingerprintMismatch,
    VersionMismatch,
    ZeroVector,
    check_type,
)

INDEX_MAGIC = b"AFSPIDX2"
# the index file's header: table fingerprint; entries N, dim H, distinct
# multi-vector rows U, sparse weights, entry row ids
_INDEX_HEAD = struct.Struct("<32s5I")

# how far from 1 a loaded dense or multi-vector row's norm may be; rows are
# normalized in float64 and stored as float32
_NORM_TOL = 1e-3

# pairs per block of build_index's dense max-pooling, which bounds the
# size of its temporaries
_POOL_CHUNK = 512

# entries per tile of a full scan's late-interaction gather-max, in length
# order, and rows per float64 upcast of the exact kernels, which bounds
# their working memory to _TILE x (product columns) and _TILE x H float64
_TILE = 2048


@dataclass(frozen=True)
class Weights:
    """Fusion weights for the three relevance scores."""

    alpha1: float = 0.4
    alpha2: float = 0.4
    alpha3: float = 0.2

    def __post_init__(self):
        alphas = (self.alpha1, self.alpha2, self.alpha3)
        for a in alphas:
            check_type(a, "alphas", "a finite number", int, float)
            if not math.isfinite(a):
                raise ValueError(f"alphas must be a finite number, got {a!r}")
        if any(a < 0 for a in alphas):
            raise ValueError(f"weights must be non-negative, got {alphas}")
        if not any(a > 0 for a in alphas):
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class ScoredDemo:
    pair: DemoPair
    s_dense: float
    s_sparse: float
    s_multi: float
    s_rank: float


def score_dense(q: DenseVec, p: DenseVec) -> float:
    """Inner product of two unit vectors; symmetric, in [-1, 1]."""
    if q.values.shape != p.values.shape:
        raise DimensionMismatch(
            f"dense vectors have dims {q.values.shape[0]} and {p.values.shape[0]}"
        )
    return float(q.values.astype(np.float64) @ p.values.astype(np.float64))


def score_sparse(q: SparseWeights, p: SparseWeights) -> float:
    """Sum of weight products over token ids present on both sides.

    Terms are summed in token-id order so the result is bitwise symmetric.
    """
    if len(p.weights) < len(q.weights):
        q, p = p, q
    shared = sorted(t for t in q.weights if t in p.weights)
    return float(sum(q.weights[t] * p.weights[t] for t in shared))


def score_multi(q: MultiVec, p: MultiVec) -> float:
    """Late interaction: mean over query rows of the max inner product
    against the demonstration rows. Not symmetric in general."""
    if q.rows.shape[1] != p.rows.shape[1]:
        raise DimensionMismatch(
            f"multi-vector dims differ: {q.rows.shape[1]} vs {p.rows.shape[1]}"
        )
    sims = q.rows.astype(np.float64) @ p.rows.astype(np.float64).T
    return float(sims.max(axis=1).mean())


def score_hybrid(s_dense: float, s_sparse: float, s_multi: float, w: Weights) -> float:
    return w.alpha1 * s_dense + w.alpha2 * s_sparse + w.alpha3 * s_multi


def table_fingerprint(table: EmbeddingTable, proj: ProjectionSet) -> bytes:
    """32-byte digest binding an index to its table and projections."""
    h = hashlib.sha256()
    h.update(_TABLE_HEAD.pack(len(table.vocab), table.dim, table.oov_seed))
    h.update("\x1f".join(table.vocab).encode("utf-8"))
    h.update(np.ascontiguousarray(table.matrix, dtype="<f4"))
    h.update(proj.seed.to_bytes(8, "little"))
    h.update(np.ascontiguousarray(proj.w_sparse, dtype="<f4"))
    h.update(np.ascontiguousarray(proj.w_multi, dtype="<f4"))
    return h.digest()


class RetrievalIndex:
    """Source-side representations of every corpus pair, as flat arrays.

    Entry ``i`` is ``corpus[i]``; it owns

    - dense row ``dense[i]`` (float32, unit norm),
    - sparse weights ``sparse_weights[a:b]`` of the token ids
      ``sparse_ids[a:b]`` (ascending), with ``a, b = sparse_indptr[i:i + 2]``,
    - the multi-vector rows ``multi_rows[multi_row_ids[a:b]]`` with
      ``a, b = multi_offsets[i:i + 2]``: ``multi_rows`` holds each distinct
      row once (float32, unit norm, in order of first appearance in the
      corpus) and an entry lists each of its distinct rows once, in order
      of first appearance in its text. A max over a set equals the max
      over the multiset, so late-interaction scores are those of every
      token row.

    The constructor builds the scan arrays once, so every query scans the
    same arrays and the first one pays nothing extra: the bounds' margins,
    inverted sparse lists, the postings of each distinct row, and the
    multi-vector row ids as jagged diagonals. The index holds no float64
    copy of the rows: queries take the float32 rows' products for bounds
    and exact float64 dot products only of the pairs that need them
    (:meth:`_top`). Entries are sorted by their count of distinct rows,
    longest first (``_by_len``), and column k of ``_columns`` holds the
    k-th row id of each entry with more than k rows, a prefix of that
    order; there are as many columns as the longest entry has rows.
    """

    def __init__(
        self,
        corpus: Corpus,
        fingerprint: bytes,
        *,
        dense: np.ndarray,
        sparse_indptr: np.ndarray,
        sparse_ids: np.ndarray,
        sparse_weights: np.ndarray,
        multi_rows: np.ndarray,
        multi_offsets: np.ndarray,
        multi_row_ids: np.ndarray,
    ):
        self.corpus = corpus
        self.fingerprint = fingerprint
        self.dense = dense
        self.sparse_indptr = sparse_indptr
        self.sparse_ids = sparse_ids
        self.sparse_weights = sparse_weights
        self.multi_rows = multi_rows
        self.multi_offsets = multi_offsets
        self.multi_row_ids = multi_row_ids
        self._bound: tuple[EmbeddingTable, ProjectionSet] | None = None

        # the dense and multi-vector bounds' margins per unit of query norm
        # (see _dense_bounds and _upper_bounds)
        self._dense_margin = _margin(dense)
        self._multi_margin = _margin(multi_rows)
        # the jagged diagonals (see above); longer[k] counts the entries
        # with more than k rows
        counts = np.diff(multi_offsets.astype(np.intp))
        self._by_len = np.argsort(-counts, kind="stable")
        starts = multi_offsets[:-1].astype(np.intp)[self._by_len]
        ids = multi_row_ids.astype(np.intp)
        longer = len(counts) - np.cumsum(np.bincount(counts))[:-1]
        self._columns = [ids[starts[:n] + k] for k, n in enumerate(longer.tolist())]
        # postings: the entries holding distinct row r are
        # _holders[_held[r]:_held[r + 1]], in no particular order (one
        # unstable sort of the row ids)
        self._holders = np.repeat(np.arange(len(counts), dtype=np.int32), counts)[
            np.argsort(multi_row_ids)
        ]
        self._held = np.concatenate(
            ([0], np.cumsum(np.bincount(multi_row_ids, minlength=len(multi_rows))))
        )
        # inverted sparse lists: token id -> slice of (entry positions
        # ascending, weights)
        positions = np.repeat(np.arange(len(corpus)), np.diff(sparse_indptr.astype(np.intp)))
        order = np.argsort(sparse_ids, kind="stable")
        tids = sparse_ids[order]
        self._sparse_pos = positions[order]
        self._sparse_w = sparse_weights[order].astype(np.float64)
        keys, starts = np.unique(tids, return_index=True)
        bounds = starts.tolist() + [len(tids)]
        self._sparse_cols = {
            tid: slice(a, b) for tid, a, b in zip(keys.tolist(), bounds, bounds[1:])
        }

    def __len__(self) -> int:
        return len(self.corpus)

    def bind(
        self, table: EmbeddingTable, proj: ProjectionSet, fingerprint: bytes | None = None
    ) -> None:
        """Raise FingerprintMismatch unless (table, proj) built this index.
        ``fingerprint`` is the pair's :func:`table_fingerprint` where the
        caller has hashed it already; without it the pair is hashed here.
        The last pair that passed is not hashed again: it is compared by
        identity, and its arrays are read-only, so the same objects always
        hold the same content."""
        bound = self._bound
        if bound is not None and bound[0] is table and bound[1] is proj:
            return
        if fingerprint is None:
            fingerprint = table_fingerprint(table, proj)
        if self.fingerprint != fingerprint:
            raise FingerprintMismatch(
                "index was built with a different embedding table or projections"
            )
        self._bound = (table, proj)

    def _top(
        self,
        queries: list[tuple[DenseVec, SparseWeights, MultiVec]],
        weights: Weights,
        k: int,
        normalize: bool,
    ) -> list[tuple[np.ndarray, ...]]:
        """Each query's top k as (entry ids, dense, sparse, multi and fused
        scores), best first, for a block of queries.

        One float32 product of the block's dense vectors with the stored
        rows bounds the dense scores, and one float32 product of the stored
        distinct rows with the block's multi-vector rows, (U, H) @ (H, m),
        bounds the multi-vector similarities; it is laid out by distinct
        row, as the scans read it. A block repeats token rows (the embedding
        layer is context-free and text is Zipfian), so its queries share
        product columns (:meth:`_block`). The products only bound and
        choose: every exact score comes from a kernel whose bits depend on
        the two rows alone (:meth:`_dense`, :meth:`_kernel`), so a query's
        scores are the same in any block, in a pruned and a full scan, and
        in a built and a loaded index.

        With raw fusion and k below the corpus size, every entry's sparse
        score is taken and its dense and multi scores are bounded from above
        (:meth:`_dense_bounds`, :meth:`_upper_bounds`). Rounding to nearest
        is monotone, so a sum or product of terms each at least as large
        rounds to no less, and the fused score of the bounds, summed as the
        exact one is, is never below the exact fused score. Round 1 scores
        a query's k entries of best bounded score exactly, and the worst of
        their exact fused scores is a threshold theta: k entries reach it,
        so every entry of the top k does too, ties at the cut included, and
        so does its bounded score. Round 2 scores the query's survivors, the
        entries whose bounded score reaches theta, and the top k are taken
        among them in corpus order; an entry's score does not depend on
        which others are scored with it (:meth:`_multi`). ``normalize``
        needs every entry's scores for the min-max range, so every entry is
        scored then (:meth:`_scan`), as it is when k is at least the corpus
        size."""
        if not queries:
            return []
        q32 = np.stack([d.values for d, _, _ in queries])
        qs = q32.astype(np.float64)
        sparse = [self._sparse(s) for _, s, _ in queries]
        block = self._block([multi for _, _, multi in queries])
        a1, a2, a3 = weights.alpha1, weights.alpha2, weights.alpha3
        if normalize or k >= len(self):
            every = np.arange(len(self))
            scored = list(zip(repeat(every), self._dense(qs, every), sparse, self._scan(block)))
        else:
            # each query's fused score with its dense and multi scores
            # bounded, as a1 * sd + a2 * ss + a3 * ub rounds it (products and
            # sums commute bit for bit)
            bounds = self._upper_bounds(block)
            for sd, ss, bound in zip(self._dense_bounds(q32), sparse, bounds):
                bound *= a3
                bound += a1 * sd + a2 * ss
            scored = []
            for q, ss, cs, bound in zip(qs, sparse, block.cols, bounds):
                # round 1 on the k best bounded entries, round 2 on the
                # survivors
                mine = block.of_query(cs)
                top = np.sort(np.argpartition(-bound, k - 1)[:k])
                sd, sm = self._dense(q[None], top)[0], self._multi(mine, top)
                own = np.flatnonzero(bound >= (a1 * sd + a2 * ss[top] + a3 * sm).min())
                sd, sm = self._dense(q[None], own)[0], self._multi(mine, own)
                scored.append((own, sd, ss[own], sm))
        out = []
        for own, sd, ss, sm in scored:
            if normalize:
                sd, ss, sm = _minmax(sd), _minmax(ss), _minmax(sm)
            fused = a1 * sd + a2 * ss + a3 * sm
            top = _top_k_stable(fused, k)
            out.append((own[top], sd[top], ss[top], sm[top], fused[top]))
        return out

    def _block(self, multis: list[MultiVec]) -> _Block:
        """The multi-vector product of a block of queries: one column per
        distinct row of the block (:func:`_distinct_rows`, as the index
        dedupes corpus rows), however often a query or the block repeats
        it, and each query's rows as columns in its order."""
        rows, ids = _distinct_rows(np.concatenate([multi.rows for multi in multis]))
        ends = np.cumsum([len(multi.rows) for multi in multis])
        cols = [part.tolist() for part in np.split(ids, ends[:-1])]
        rows64 = rows.astype(np.float64)
        return _Block(
            self.multi_rows @ rows.T,
            rows64,
            self._multi_margin * np.linalg.norm(rows64, axis=1),
            cols,
        )

    def _dense_bounds(self, q32: np.ndarray) -> np.ndarray:
        """An upper bound on each query's exact dense score (:meth:`_dense`)
        of every entry: one float32 product of the block with the stored
        rows, widened by a margin.

        For query q and row d, let S be the true dot product and
        ``P = sum |q_j d_j| <= |q| |d|`` (Cauchy-Schwarz). A float32 dot
        product of H terms, in any order and with or without fused
        multiply-adds, is within ``gamma_H(2^-24) * P`` of S, and the float64
        kernel within ``gamma_H(2^-53) * P``, where ``gamma_H(u) = H u / (1 -
        H u)`` (Higham, Accuracy and Stability of Numerical Algorithms,
        section 3.1). So the kernel's value is within ``(gamma_H(2^-24) +
        gamma_H(2^-53)) * |q| * max |d|`` of the float32 value, the margin
        (:func:`_margin`, per unit of ``|q|``). ``max |d|`` comes from the
        rows' float32 sums of squares: by the same bound, with ``P = |d|^2``
        as every term is non-negative, a row's sum s is at least ``(1 -
        gamma_H(2^-24)) * |d|^2``, so ``|d| <= sqrt(s / (1 -
        gamma_H(2^-24)))``. The margin carries a relative slack of 2^-20 for
        the rounding of that root, of the query norms, of the margin itself
        and of a value it is added to or subtracted from, and for underflow.
        The kernel's value is a float64, so the float64 sum of the float32
        value and the margin rounds to no less than it either."""
        bounds = (q32 @ self.dense.T).astype(np.float64)
        bounds += self._dense_margin * np.linalg.norm(q32.astype(np.float64), axis=1)[:, None]
        return bounds

    def _upper_bounds(self, block: _Block) -> list[np.ndarray]:
        """An upper bound on every entry's multi score, for each query of a
        block.

        The kernel's value of product column c and a distinct row is at most
        their float32 similarity plus the column's margin ``delta_c``
        (:meth:`_dense_bounds`). Of the similarities of column c to every
        distinct row, let ``top_c`` be the largest, at row ``r_c``, and
        ``second_c`` the second largest counting repeats (``top_c`` when
        there is one distinct row). An entry that holds ``r_c`` matches c at
        most at ``top_c + delta_c``, any other entry at most at ``second_c +
        delta_c``. The bound is the mean of these, summed in the query's own
        order of rows: it adds the same terms as the exact mean in the same
        order, each at least as large, so it rounds to no less than the
        exact score (see :meth:`_top`). The entries that hold ``r_c`` come
        from the postings ``_holders``."""
        sims, _, margins, cols = block
        columns = np.arange(sims.shape[1])
        best = sims.argmax(axis=0)
        top = sims[best, columns]
        second = top
        if len(sims) > 1:
            # the largest once the best is masked, which is the best again
            # where two distinct rows tie for it
            sims[best, columns] = -np.inf
            second = sims[sims.argmax(axis=0), columns]
            sims[best, columns] = top
        top = top + margins
        second = second + margins
        holders = [self._holders[self._held[r] : self._held[r + 1]] for r in best.tolist()]
        out = []
        part = np.empty(len(self))
        for cs in cols:
            total = np.full(len(self), second[cs[0]])
            total[holders[cs[0]]] = top[cs[0]]
            for c in cs[1:]:
                part.fill(second[c])
                part[holders[c]] = top[c]
                total += part
            out.append(total / len(cs))
        return out

    def _dense(self, qs: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Each query's exact dense scores of the entries ``ids`` (:func:`_dots`)."""
        return _dots(self.dense, ids, qs).T

    def _sparse(self, q_sparse: SparseWeights) -> np.ndarray:
        ss = np.zeros(len(self))
        for tid, w in q_sparse.weights.items():
            hit = self._sparse_cols.get(tid)
            if hit is not None:
                ss[self._sparse_pos[hit]] += w * self._sparse_w[hit]
        return ss

    def _multi(self, block: _Block, ids: np.ndarray) -> np.ndarray:
        """The exact multi scores of the entries ``ids`` for the one query
        of ``block`` (:meth:`_Block.of_query`).

        An entry's score is the mean, over the query's rows in its order, of
        the entry's largest kernel value of each (:meth:`_kernel`). The
        kernel is taken only for the rows that can hold such a maximum. A
        kernel value lies within ``delta_c`` of the float32 similarity
        (:meth:`_upper_bounds`), so an entry's row of largest similarity s
        has a kernel value of at least ``s - delta_c``, and a row whose
        similarity is below ``s - 2 delta_c`` has a value below that:
        leaving it out changes no maximum, and a max is exact in any order.
        The entries' rows are gathered one entry after another, which on
        the few entries that pruning leaves is faster than the diagonals of
        :meth:`_scan`; parts of ``_TILE // m`` entries bound the gathered
        similarities, (rows, m) for the query's m distinct rows."""
        sims, rows, margins, (cs,) = block
        m = len(rows)
        out = np.empty(len(ids))
        step = max(1, _TILE // m)
        for a in range(0, len(ids), step):
            part = ids[a : a + step]
            # the part's row ids, entry after entry, and the entry of each
            starts = self.multi_offsets[part].astype(np.intp)
            lengths = self.multi_offsets[part + 1].astype(np.intp) - starts
            heads = np.cumsum(lengths) - lengths
            flat = self.multi_row_ids[np.repeat(starts - heads, lengths) + np.arange(lengths.sum())]
            owner = np.repeat(np.arange(len(part)), lengths)
            near = sims[flat]
            floor = np.maximum.reduceat(near, heads) - 2 * margins
            # np.nonzero of a 2-d mask is several times slower
            at, c = np.divmod(np.flatnonzero(near >= floor[owner]), m)
            # each (column, distinct row) pair's kernel value once, and each
            # entry's maxima of them
            pairs, where = np.unique(c * len(sims) + flat[at], return_inverse=True)
            exact = self._kernel(pairs % len(sims), rows[pairs // len(sims)])[where]
            best = np.full(len(part) * m, -np.inf)
            np.maximum.at(best, owner[at] * m + c, exact)
            out[a : a + len(part)] = _mean_of_rows(best.reshape(len(part), m), cs)
        return out

    def _scan(self, block: _Block) -> np.ndarray:
        """Every entry's exact multi score, in corpus order, one row per
        query of a block: the exact similarity of every distinct row and
        product column (:func:`_dots`), and the gather-max over the
        entries' jagged diagonals of row ids (see the class docstring).

        The gather-max walks the length order in tiles of ``_TILE`` entries,
        so its maxima, one per entry of the tile and product column, stay
        small however large the corpus is. Column k of ``_columns`` covers a
        prefix of the length order, so its slice of a tile is a prefix of
        the tile, and the running max over it needs no padding."""
        exact = _dots(self.multi_rows, np.arange(len(self.multi_rows)), block.rows)
        out = np.empty((len(block.cols), len(self)))
        for a in range(0, len(self), _TILE):
            diagonals = [col[a : a + _TILE] for col in self._columns if len(col) > a]
            best = exact[diagonals[0]]
            for ids in diagonals[1:]:
                head = best[: len(ids)]
                np.maximum(head, exact[ids], out=head)
            entries = self._by_len[a : a + len(best)]
            for sm, cs in zip(out, block.cols):
                sm[entries] = _mean_of_rows(best, cs)
        return out

    def _kernel(self, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The exact similarity of each distinct row ``ids[i]`` with the
        float64 row ``rows[i]``, ``_TILE`` pairs at a time, by the einsum
        loop of :func:`_dots`, so a value's bits depend on the two rows alone."""
        out = np.empty(len(ids))
        for a in range(0, len(ids), _TILE):
            chunk = self.multi_rows[ids[a : a + _TILE]].astype(np.float64)
            np.einsum("ij,ij->i", chunk, rows[a : a + _TILE], out=out[a : a + len(chunk)])
        return out


class _Block(NamedTuple):
    """A block's multi-vector product: ``sims[u, c]`` is the float32
    similarity of distinct row u to product column c, the query row
    ``rows[c]`` (float64), whose kernel value lies within ``margins[c]`` of
    it; query i's rows are the columns ``cols[i]``, in its order."""

    sims: np.ndarray
    rows: np.ndarray
    margins: np.ndarray
    cols: list[list[int]]

    def of_query(self, cs: list[int]) -> _Block:
        """The block of the one query whose rows are the columns ``cs``:
        its distinct columns alone, in ascending order."""
        u, inv = np.unique(cs, return_inverse=True)
        return self._replace(
            sims=self.sims[:, u], rows=self.rows[u], margins=self.margins[u], cols=[inv.tolist()]
        )


def _dots(rows: np.ndarray, ids: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The exact similarity of each float32 row ``rows[ids[i]]`` with each
    float64 row ``qs[c]``, at ``[i, c]``: float64 dot products of ``_TILE``
    rows upcast at a time, sliced when ``ids`` covers every row and gathered
    otherwise. One einsum loop sums every pair in the same order, so a
    value's bits depend on the two rows alone; a BLAS product may round a
    dot product apart by the row's position, so it serves only for bounds."""
    out = np.empty((len(ids), len(qs)))
    every = len(ids) == len(rows)
    for a in range(0, len(ids), _TILE):
        chunk = rows[a : a + _TILE] if every else rows[ids[a : a + _TILE]]
        np.einsum("ij,kj->ik", chunk.astype(np.float64), qs, out=out[a : a + len(chunk)])
    return out


def _mean_of_rows(best: np.ndarray, cs) -> np.ndarray:
    """Each entry's mean of its maxima ``best[:, c]`` over the query's
    columns ``cs``, summed in their order, one at a time, as a mean over
    axis 0 of the (query rows, entries) maxima does; ``best.mean(axis=1)``
    sums pairwise and rounds differently."""
    total = best[:, cs[0]].copy()
    for c in cs[1:]:
        total += best[:, c]
    return total / len(cs)


def build_index(
    corpus: Corpus, table: EmbeddingTable, proj: ProjectionSet
) -> RetrievalIndex:
    """Embed every pair's source text; entries keep corpus order.

    The embedding layer is context-free, so each distinct token is looked
    up (or hash-generated), weighted and projected once, in one block, by
    the functions that embed one query, and each pair gathers its entries
    from those rows: the index's bytes equal those of embedding each pair
    alone.

    The table and projections are hashed into the index's fingerprint on
    a second thread while the build runs: hashlib releases the GIL while
    it hashes. The index is bound to that pair (:meth:`RetrievalIndex.bind`),
    so its first query hashes nothing.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        fingerprint = pool.submit(table_fingerprint, table, proj)
        # each token string gets a dense id in order of first appearance; tok is
        # the id of every token occurrence, pair after pair, and owner its pair
        ids: dict[str, int] = {}
        occurrences: list[int] = []
        lengths = []
        for row, text in enumerate(corpus.strings("src_text")):
            tokens = segment(text)
            if not tokens:
                raise EmptyText(f"pair {corpus[row].id!r}: no tokens in {text!r}")
            occurrences += [ids.setdefault(t, len(ids)) for t in tokens]
            lengths.append(len(tokens))
        tok = np.array(occurrences, dtype=np.intp)
        owner = np.repeat(np.arange(len(corpus)), lengths)
        emb = lookup_tokens(table, list(ids))
        dense = _pool_dense(corpus, emb.vectors, tok, _offsets(lengths).astype(np.intp))
        try:
            rows = multi_embed(emb, proj).rows
        except ZeroVector as exc:
            first = owner[np.flatnonzero(tok == exc.row)[0]]
            raise ZeroVector(f"pair {corpus[first].id!r}: {exc}") from exc

        # sparse: each pair's positive weight per token id, ids ascending; the
        # max where two of its tokens share an id (OOV ids are hashes and can
        # collide), as sparse_embed keeps
        weight = token_weights(emb, proj)[tok]
        tid = np.array(emb.tokens, dtype=np.int64)[tok]
        hit = np.flatnonzero(weight > 0)
        key = owner[hit] * (len(table.vocab) + OOV_ID_SPACE) + tid[hit]
        order = np.lexsort((-weight[hit], key))
        _, first = np.unique(key[order], return_index=True)
        sparse = hit[order[first]]

        # two tokens with equal rows share one; a pair lists its distinct
        # rows in order of first appearance
        rows, row = _distinct_rows(rows)
        row = row[tok]
        _, first = np.unique(owner * len(rows) + row, return_index=True)
        multi = np.sort(first)
        index = RetrievalIndex(
            corpus,
            fingerprint.result(),
            dense=dense,
            sparse_indptr=_offsets(np.bincount(owner[sparse], minlength=len(corpus))),
            sparse_ids=tid[sparse].astype(np.uint32),
            sparse_weights=weight[sparse],
            multi_rows=rows,
            multi_offsets=_offsets(np.bincount(owner[multi], minlength=len(corpus))),
            multi_row_ids=row[multi].astype(np.uint32),
        )
    index.bind(table, proj, index.fingerprint)
    return index


def _pool_dense(
    corpus: Corpus, vectors: np.ndarray, tok: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Each pair's dense vector as :func:`dense_embed` makes it: the
    element-wise max over the pair's token rows
    ``vectors[tok[starts[i]:starts[i + 1]]]``, then L2 normalization.

    ``_POOL_CHUNK`` pairs at a time take the max token position by token
    position, which runs faster than ``np.maximum.reduceat`` over the
    gathered rows and allocates no more than one block of pooled rows.
    """
    dense = np.empty((len(corpus), vectors.shape[1]), dtype=np.float32)
    for a in range(0, len(corpus), _POOL_CHUNK):
        b = min(a + _POOL_CHUNK, len(corpus))
        first = starts[a:b]
        lengths = starts[a + 1 : b + 1] - first
        pooled = vectors[tok[first]]
        for k in range(1, lengths.max()):
            longer = np.flatnonzero(lengths > k)
            pooled[longer] = np.maximum(pooled[longer], vectors[tok[first[longer] + k]])
        try:
            dense[a:b] = unit_rows(pooled, "dense pooling")
        except ZeroVector as exc:
            raise ZeroVector(f"pair {corpus[a + exc.row].id!r}: {exc}") from exc
    return dense


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the float32 ``rows``, compared by their bytes
    (each row one key, through a void view), in order of first appearance,
    and the index of each row among them."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    seen: dict[bytes, int] = {}
    ids = np.array([seen.setdefault(key, len(seen)) for key in keys], dtype=np.intp)
    return rows[np.unique(ids, return_index=True)[1]], ids


def _margin(rows: np.ndarray) -> float:
    """The bounds' rounding margin per unit of query norm for the float32
    ``rows`` (see :meth:`RetrievalIndex._dense_bounds`)."""
    h = rows.shape[1]
    squares = float(np.einsum("ij,ij->i", rows, rows).max(initial=0.0))
    max_norm = math.sqrt(squares / (1 - _gamma(h, 2.0**-24)))
    return (_gamma(h, 2.0**-24) + _gamma(h, 2.0**-53)) * max_norm * (1 + 2.0**-20)


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n``: the relative error bound of an n-term sum of
    products at unit roundoff u."""
    return n * u / (1 - n * u)


def _offsets(lengths) -> np.ndarray:
    """``[0, l0, l0 + l1, ...]`` as uint32."""
    return np.concatenate(([0], np.cumsum(lengths))).astype(np.uint32)


def _minmax(scores: np.ndarray) -> np.ndarray:
    lo, hi = scores.min(), scores.max()
    if hi - lo < 1e-12:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


def retrieve_many(
    texts: list[str],
    index: RetrievalIndex,
    table: EmbeddingTable,
    proj: ProjectionSet,
    weights: Weights,
    k: int,
    normalize_scores: bool = False,
) -> list[list[ScoredDemo] | AfspError]:
    """:func:`retrieve_topk` for each text, scored as one block, whose
    queries share the entries that are scanned in full and one
    multi-vector product. The block bounds the work: the product has a
    column for each distinct row of the block's queries, and the dense
    bounds and sparse scores a row of N entries per query.

    A text that cannot be embedded (EmptyQuery for a blank one) holds its
    error in its place of the result, and the others are still scored.
    FingerprintMismatch and a k below 1 fail the whole call.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index.bind(table, proj)
    results: list = []
    queries = []
    for text in texts:
        try:
            queries.append(_embed_query(table, proj, text))
            results.append(None)
        except AfspError as exc:
            results.append(exc)
    tops = iter(index._top(queries, weights, k, normalize_scores))
    for i, held in enumerate(results):
        if held is None:
            results[i] = [
                ScoredDemo(index.corpus[j], sd, ss, sm, fused)
                for j, sd, ss, sm, fused in zip(*(a.tolist() for a in next(tops)))
            ]
    return results


def retrieve_topk(
    query_text: str,
    index: RetrievalIndex,
    table: EmbeddingTable,
    proj: ProjectionSet,
    weights: Weights,
    k: int,
    normalize_scores: bool = False,
) -> list[ScoredDemo]:
    """Top-k entries by fused score, descending; ties keep corpus order.

    Raises FingerprintMismatch if (table, proj) differ from what the index
    was built with, and EmptyQuery for blank queries. Returns all entries
    when the corpus is smaller than k. Scored as a block of one, which
    keeps the bits of a query scored alone (:meth:`RetrievalIndex._top`).
    """
    (result,) = retrieve_many(
        [query_text], index, table, proj, weights, k, normalize_scores=normalize_scores
    )
    if isinstance(result, AfspError):
        raise result
    return result


def _embed_query(
    table: EmbeddingTable, proj: ProjectionSet, text: str
) -> tuple[DenseVec, SparseWeights, MultiVec]:
    try:
        emb = embed_tokens(table, text)
    except EmptyText as exc:
        raise EmptyQuery(str(exc)) from exc
    return dense_embed(emb), sparse_embed(emb, proj), multi_embed(emb, proj)


def _top_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-scores, kind="stable")[:k]`` without sorting every score.

    Every entry scoring at least the k-th best, ties at the cut included,
    is sorted in corpus order, so ids and order match the full sort.
    """
    neg = -scores
    k = min(k, len(neg))
    kth = np.partition(neg, k - 1)[k - 1]
    # "not above" rather than "at most" also keeps NaNs, which both sorts
    # put last
    keep = np.flatnonzero(~(neg > kth))
    return keep[np.argsort(neg[keep], kind="stable")][:k]


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """Write the index in the binary format (magic ``AFSPIDX2``): its
    header, the pair table, then each array as one block in the order of
    :class:`RetrievalIndex`'s fields."""
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        n, dim = index.dense.shape
        counts = (n, dim, len(index.multi_rows), len(index.sparse_ids), len(index.multi_row_ids))
        fh.write(_INDEX_HEAD.pack(index.fingerprint, *counts))
        write_pair_table(fh, index.corpus)
        _binio.write_array(fh, index.dense)
        _binio.write_array(fh, index.sparse_indptr, "<u4")
        _binio.write_array(fh, index.sparse_ids, "<u4")
        _binio.write_array(fh, index.sparse_weights)
        _binio.write_array(fh, index.multi_rows)
        _binio.write_array(fh, index.multi_offsets, "<u4")
        _binio.write_array(fh, index.multi_row_ids, "<u4")


def load_index(path: str | Path) -> RetrievalIndex:
    """Read an index written by :func:`save_index`. A corrupt or structurally
    invalid file, and an ``AFSPIDX1`` file, raise VersionMismatch."""
    reader = _binio.Reader.open(path, INDEX_MAGIC, hint="rebuild with `afsp index`")
    fingerprint, n, dim, n_rows, nnz, n_ids = reader.unpack(_INDEX_HEAD, "index header")
    corpus = read_pair_table(reader, n)
    # the float32 product of _dense_bounds needs aligned rows for BLAS
    reader.align()
    arrays = dict(
        dense=reader.array("<f4", n * dim, "dense matrix").reshape(n, dim),
        sparse_indptr=reader.array("<u4", n + 1, "sparse offsets"),
        sparse_ids=reader.array("<u4", nnz, "sparse ids"),
        sparse_weights=reader.array("<f4", nnz, "sparse weights"),
    )
    # and so does the float32 multi-vector product of _top
    reader.align()
    arrays.update(
        multi_rows=reader.array("<f4", n_rows * dim, "multi-vector rows").reshape(n_rows, dim),
        multi_offsets=reader.array("<u4", n + 1, "multi-vector offsets"),
        multi_row_ids=reader.array("<u4", n_ids, "multi-vector row ids"),
    )
    reader.end("the multi-vector row ids")
    _check_arrays(**arrays)
    return RetrievalIndex(corpus, fingerprint, **arrays)


def _check_arrays(
    dense, sparse_indptr, sparse_ids, sparse_weights, multi_rows, multi_offsets, multi_row_ids
) -> None:
    """Raise VersionMismatch unless the loaded arrays are a valid index."""
    _check_offsets(sparse_indptr, len(sparse_ids), "sparse")
    _check_offsets(multi_offsets, len(multi_row_ids), "multi-vector")
    empty = np.flatnonzero(multi_offsets[1:] == multi_offsets[:-1])
    if len(empty):
        raise VersionMismatch(f"entry {empty[0]} has no multi-vector rows")
    if multi_row_ids.max() >= len(multi_rows):
        raise VersionMismatch(
            f"multi-vector row id {multi_row_ids.max()} >= row count {len(multi_rows)}"
        )
    for name, rows in (("dense", dense), ("multi-vector", multi_rows)):
        # row norms without a temporary the size of rows
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOL))
        if len(bad):
            raise VersionMismatch(f"{name} row {bad[0]} does not have unit norm")
    # ids ascend within each entry; a step down or a repeat is allowed only
    # where the next entry's ids begin
    rising = np.diff(sparse_ids.astype(np.int64)) > 0
    starts = sparse_indptr[1:-1].astype(np.intp)
    rising[starts[(starts > 0) & (starts < len(sparse_ids))] - 1] = True
    if not rising.all():
        raise VersionMismatch("sparse token ids are not strictly ascending within an entry")
    if not np.all(sparse_weights > 0) or not np.all(np.isfinite(sparse_weights)):
        raise VersionMismatch("sparse weights must be finite and positive")


def _check_offsets(offsets: np.ndarray, total: int, what: str) -> None:
    if offsets[0] != 0 or offsets[-1] != total or np.any(offsets[1:] < offsets[:-1]):
        raise VersionMismatch(f"{what} offsets are not monotone from 0 to {total}")
