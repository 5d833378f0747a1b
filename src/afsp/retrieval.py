"""Demonstration retrieval: precomputed index, relevance scores, top-k.

Every corpus pair's source side is embedded once into the three
representations and stored in a :class:`RetrievalIndex`. A query is scored
against every entry (exhaustive scan; corpora here are small enough that
approximate indexing is not worth it) with

- dense score: inner product of the two unit dense vectors,
- sparse score: sum over co-occurring token ids of the two token weights,
- multi score: mean over query tokens of the best match against the
  demonstration's token vectors (late interaction),

fused as ``alpha1 * dense + alpha2 * sparse + alpha3 * multi``. The sparse
score is unbounded while the other two live in [-1, 1]; scores are fused raw
by default, with an opt-in min-max normalization over the candidate pool for
callers that want comparable scales.

Scoring is done in float64 on the stored float32 representations, so results
are identical whether the index was just built or reloaded from disk.

Multi-vector rows come from a context-free embedding layer, so each row
depends only on its token and a corpus repeats few distinct rows many times.
The scan keeps one float64 copy of each distinct row (deduped by its exact
float32 bytes) plus the distinct-row id of every corpus row; a query is
scored against the distinct rows and the result gathered back to corpus
rows, which gives the same values as scoring every row. The index checks the
table fingerprint once per (table, projections) pair, compared by identity;
their arrays are read-only, so the same objects always hold the same content.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _binio
from .corpus import Corpus, DemoPair
from .embedding import (
    DenseVec,
    EmbeddingTable,
    MultiVec,
    ProjectionSet,
    SparseWeights,
    dense_embed,
    embed_tokens,
    multi_embed,
    sparse_embed,
)
from .errors import (
    AfspError,
    DimensionMismatch,
    EmptyQuery,
    EmptyText,
    FingerprintMismatch,
    VersionMismatch,
)

INDEX_MAGIC = b"AFSPIDX1"

# one stored sparse weight: token id, then its float32 weight
_SPARSE_PAIR = struct.Struct("<If")


@dataclass(frozen=True)
class Weights:
    """Fusion weights for the three relevance scores."""

    alpha1: float = 0.4
    alpha2: float = 0.4
    alpha3: float = 0.2

    def __post_init__(self):
        alphas = (self.alpha1, self.alpha2, self.alpha3)
        if any(a < 0 or not math.isfinite(a) for a in alphas):
            raise ValueError(f"weights must be finite and non-negative, got {alphas}")
        if not any(a > 0 for a in alphas):
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class IndexEntry:
    pair: DemoPair
    dense: DenseVec
    sparse: SparseWeights
    multi: MultiVec


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
    h.update(len(table.vocab).to_bytes(4, "little"))
    h.update(table.dim.to_bytes(4, "little"))
    h.update((table.oov_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    h.update("\x1f".join(table.vocab).encode("utf-8"))
    h.update(np.ascontiguousarray(table.matrix, dtype="<f4").tobytes())
    h.update((proj.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    h.update(np.ascontiguousarray(proj.w_sparse, dtype="<f4").tobytes())
    h.update(np.ascontiguousarray(proj.w_multi, dtype="<f4").tobytes())
    return h.digest()


class RetrievalIndex:
    """Precomputed source-side representations for every corpus pair."""

    def __init__(self, entries: list[IndexEntry], fingerprint: bytes):
        if not entries:
            raise ValueError("index needs at least one entry")
        self.entries: tuple[IndexEntry, ...] = tuple(entries)
        self.fingerprint = fingerprint
        self._scan_cache = None
        self._scan_lock = threading.Lock()
        self._bound: tuple[EmbeddingTable, ProjectionSet] | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def _check_binding(self, table: EmbeddingTable, proj: ProjectionSet) -> None:
        """Raise FingerprintMismatch unless (table, proj) built this index;
        the last pair that passed is not hashed again."""
        bound = self._bound
        if bound is not None and bound[0] is table and bound[1] is proj:
            return
        if self.fingerprint != table_fingerprint(table, proj):
            raise FingerprintMismatch(
                "index was built with a different embedding table or projections"
            )
        self._bound = (table, proj)

    def _scan_arrays(self):
        """Lazily built arrays for the batched scan: the float64 dense
        matrix, the float64 distinct multi-vector rows, each corpus row's
        distinct-row id, the offset of each entry's first row, and the
        inverted sparse lists. Built once, under a lock, so concurrent first
        queries do not each build a copy."""
        with self._scan_lock:
            if self._scan_cache is None:
                dense_mat = np.stack(
                    [e.dense.values for e in self.entries]
                ).astype(np.float64)
                uniq, row_ids = _distinct_rows([e.multi.rows for e in self.entries])
                lengths = np.array([e.multi.rows.shape[0] for e in self.entries])
                offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
                self._scan_cache = (
                    dense_mat,
                    uniq.astype(np.float64),
                    row_ids,
                    offsets,
                    _inverted_sparse(self.entries),
                )
        return self._scan_cache


def _distinct_rows(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Exact dedup of the rows of ``blocks`` taken in order, by their float32
    bytes: ``(uniq, row_ids)`` with ``uniq[row_ids]`` equal bit for bit to the
    concatenated rows, and ``uniq`` in order of first appearance."""
    seen: dict[bytes, int] = {}
    row_ids = np.fromiter(
        (seen.setdefault(row.tobytes(), len(seen)) for block in blocks for row in block),
        dtype=np.intp,
        count=sum(len(block) for block in blocks),
    )
    uniq = np.frombuffer(b"".join(seen), dtype=np.float32).reshape(len(seen), -1)
    return uniq, row_ids


def _inverted_sparse(entries) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """token id -> (entry positions, weights), positions ascending."""
    counts = np.array([len(e.sparse.weights) for e in entries])
    total = int(counts.sum())
    tids = np.fromiter((t for e in entries for t in e.sparse.weights), np.int64, total)
    weights = np.fromiter(
        (w for e in entries for w in e.sparse.weights.values()), np.float64, total
    )
    positions = np.repeat(np.arange(len(entries)), counts)
    order = np.argsort(tids, kind="stable")
    tids, positions, weights = tids[order], positions[order], weights[order]
    keys, starts = np.unique(tids, return_index=True)
    return {
        int(tid): (pos, w)
        for tid, pos, w in zip(
            keys, np.split(positions, starts[1:]), np.split(weights, starts[1:])
        )
    }


def build_index(
    corpus: Corpus, table: EmbeddingTable, proj: ProjectionSet
) -> RetrievalIndex:
    """Embed every pair's source text; entries keep corpus order."""
    entries = []
    for pair in corpus:
        try:
            emb = embed_tokens(table, pair.src_text)
            entries.append(
                IndexEntry(
                    pair=pair,
                    dense=dense_embed(emb),
                    sparse=sparse_embed(emb, proj),
                    multi=multi_embed(emb, proj),
                )
            )
        except AfspError as exc:
            raise exc.__class__(f"pair {pair.id!r}: {exc}") from exc
    return RetrievalIndex(entries, table_fingerprint(table, proj))


def _minmax(scores: np.ndarray) -> np.ndarray:
    lo, hi = scores.min(), scores.max()
    if hi - lo < 1e-12:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


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
    when the corpus is smaller than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index._check_binding(table, proj)
    try:
        emb = embed_tokens(table, query_text)
    except EmptyText as exc:
        raise EmptyQuery(str(exc)) from exc
    q_dense = dense_embed(emb)
    q_sparse = sparse_embed(emb, proj)
    q_multi = multi_embed(emb, proj)

    dense_mat, uniq_rows, row_ids, offsets, sparse_inv = index._scan_arrays()
    n = len(index)

    sd = dense_mat @ q_dense.values.astype(np.float64)

    ss = np.zeros(n)
    for tid, w in q_sparse.weights.items():
        hit = sparse_inv.get(tid)
        if hit is not None:
            ss[hit[0]] += w * hit[1]

    # one query row at a time: a 1-D gather and reduceat run faster than
    # the same over a (query rows, corpus rows) matrix
    sims = q_multi.rows.astype(np.float64) @ uniq_rows.T
    per_entry_max = np.stack([np.maximum.reduceat(s[row_ids], offsets) for s in sims])
    sm = per_entry_max.mean(axis=0)

    if normalize_scores:
        sd, ss, sm = _minmax(sd), _minmax(ss), _minmax(sm)
    fused = weights.alpha1 * sd + weights.alpha2 * ss + weights.alpha3 * sm

    return [
        ScoredDemo(
            pair=index.entries[i].pair,
            s_dense=float(sd[i]),
            s_sparse=float(ss[i]),
            s_multi=float(sm[i]),
            s_rank=float(fused[i]),
        )
        for i in _top_k_stable(fused, k)
    ]


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
    """Write the index in the binary format (magic ``AFSPIDX1``)."""
    dim = index.entries[0].dense.values.shape[0]
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(index.fingerprint)
        _binio.write_u32(fh, len(index.entries))
        _binio.write_u32(fh, dim)
        for e in index.entries:
            for field in (
                e.pair.id,
                e.pair.src_text,
                e.pair.tgt_text,
                e.pair.src_lang,
                e.pair.tgt_lang,
            ):
                _binio.write_str(fh, field)
            _binio.write_f32_array(fh, e.dense.values)
            _binio.write_u32(fh, len(e.sparse.weights))
            fh.write(b"".join(
                _SPARSE_PAIR.pack(tid, e.sparse.weights[tid]) for tid in sorted(e.sparse.weights)
            ))
            _binio.write_u32(fh, e.multi.rows.shape[0])
            _binio.write_f32_array(fh, e.multi.rows)


def load_index(path: str | Path) -> RetrievalIndex:
    with open(path, "rb") as fh:
        _binio.check_magic(fh, INDEX_MAGIC)
        fingerprint = fh.read(32)
        if len(fingerprint) != 32:
            raise VersionMismatch("truncated file while reading fingerprint")
        count = _binio.read_u32(fh, "entry count")
        dim = _binio.read_u32(fh, "embedding dim")
        entries = []
        for i in range(count):
            what = f"entry {i}"
            pair = DemoPair(
                id=_binio.read_str(fh, what),
                src_text=_binio.read_str(fh, what),
                tgt_text=_binio.read_str(fh, what),
                src_lang=_binio.read_str(fh, what),
                tgt_lang=_binio.read_str(fh, what),
            )
            dense = DenseVec(values=_binio.read_f32_array(fh, dim, what))
            nnz = _binio.read_u32(fh, what)
            block = _binio.read_bytes(fh, _SPARSE_PAIR.size * nnz, what)
            sparse = dict(_SPARSE_PAIR.iter_unpack(block))
            n_rows = _binio.read_u32(fh, what)
            if n_rows == 0:
                raise VersionMismatch(f"{what} has no multi-vector rows")
            multi = _binio.read_f32_array(fh, n_rows * dim, what).reshape(n_rows, dim)
            entries.append(
                IndexEntry(
                    pair=pair,
                    dense=dense,
                    sparse=SparseWeights(weights=sparse),
                    multi=MultiVec(rows=multi),
                )
            )
        if fh.read(1):
            raise VersionMismatch(f"trailing bytes after entry {count - 1}")
    return RetrievalIndex(entries, fingerprint)
