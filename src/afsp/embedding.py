"""Tokenization and the three text representations used for retrieval.

A text is segmented into lowercased word tokens (alphabetic scripts) and
single characters (CJK scripts), looked up in an embedding table, and turned
into:

- a dense vector: element-wise max over the token vectors, L2-normalized;
- sparse weights: per-token ReLU of a learned-free linear projection,
  max-aggregated over repeated tokens;
- a multi-vector matrix: per-token projection through a square matrix,
  each row L2-normalized.

The two projections are drawn once from a seeded Gaussian and never trained.
Out-of-vocabulary tokens get deterministic hashed ids and unit Gaussian
embedding rows keyed by (table.oov_seed, token), so arbitrary text stays
embeddable.

All arrays are float32; downstream scoring upcasts to float64. A table and
a projection set copy their arrays when constructed and mark the copies
read-only, so an object's content never changes after construction and
retrieval can trust a pair it has already checked against an index.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _binio
from .errors import EmptyText, VersionMismatch, ZeroVector

TABLE_MAGIC = b"AFSPEMB1"

OOV_ID_SPACE = 1 << 20

_CJK = "぀-ヿ㐀-䶿一-鿿豈-﫿"
_CJK_RE = re.compile(f"[{_CJK}]")
_WORD_RE = re.compile(r"\w+", re.UNICODE)
# one CJK character, or a run of word characters outside the CJK ranges
_TOKEN_RE = re.compile(rf"[{_CJK}]|[^\W{_CJK}]+")

_NORM_EPS = 1e-12


def _stable_hash64(*parts: str) -> int:
    h = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only float32 C-contiguous array that no caller can alias.

    A read-only C-contiguous float32 view of file bytes that nothing can
    write (what ``_binio.Reader.array`` returns) can never change, so it is
    kept as it is; anything else is copied.
    """
    if (
        _binio.sealed(arr)
        and arr.dtype == np.float32
        and arr.flags.c_contiguous
        and not arr.flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=np.float32, order="C")
    out.flags.writeable = False
    return out


def segment(text: str) -> list[str]:
    """Split text into lowercased word tokens; CJK characters come out one
    token each."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class EmbeddingTable:
    """Vocabulary plus a V x H float32 embedding matrix."""

    vocab: tuple[str, ...]
    matrix: np.ndarray
    oov_seed: int

    def __post_init__(self):
        ids = {t: i for i, t in enumerate(self.vocab)}
        if len(ids) != len(self.vocab):
            raise ValueError("vocab entries must be unique")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.vocab):
            raise ValueError("matrix must be 2-D with one row per vocab entry")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("embedding matrix has non-finite entries")
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "_ids", ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def token_id(self, token: str) -> int:
        """In-vocab index, or V + (hash(token) mod 2^20) for OOV tokens."""
        idx = self._ids.get(token)
        if idx is not None:
            return idx
        return len(self.vocab) + _stable_hash64(token) % OOV_ID_SPACE

    def vocab_index(self, token: str) -> int | None:
        """In-vocab index, or None for OOV tokens."""
        return self._ids.get(token)

    def oov_vector(self, token: str) -> np.ndarray:
        """Unit-norm Gaussian row keyed by (oov_seed, token)."""
        rng = np.random.default_rng(_stable_hash64(str(self.oov_seed), token))
        vec = rng.standard_normal(self.dim)
        return (vec / np.linalg.norm(vec)).astype(np.float32)

    def token_vector(self, token: str) -> np.ndarray:
        idx = self._ids.get(token)
        if idx is not None:
            return self.matrix[idx]
        return self.oov_vector(token)


@dataclass(frozen=True)
class TextEmbeddings:
    """Per-token ids and embedding rows for one text (l x H)."""

    tokens: tuple[int, ...]
    vectors: np.ndarray


@dataclass(frozen=True)
class ProjectionSet:
    """Seeded Gaussian projections: an H-vector and an H x H matrix.

    Entries are i.i.d. N(0, 1/H) so projected activations stay at input
    scale; reproducible from (dim, seed) alone.
    """

    w_sparse: np.ndarray
    w_multi: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "w_sparse", _frozen(self.w_sparse))
        object.__setattr__(self, "w_multi", _frozen(self.w_multi))

    @property
    def dim(self) -> int:
        return self.w_sparse.shape[0]


@dataclass(frozen=True)
class DenseVec:
    values: np.ndarray


@dataclass(frozen=True)
class SparseWeights:
    """token id -> positive weight; ReLU-zeroed tokens are omitted."""

    weights: dict[int, float]


@dataclass(frozen=True)
class MultiVec:
    """l x H matrix with unit-norm rows."""

    rows: np.ndarray


def embed_tokens(table: EmbeddingTable, text: str) -> TextEmbeddings:
    """Look up (or hash-generate) one embedding row per token of a text."""
    tokens = segment(text)
    if not tokens:
        raise EmptyText(f"no tokens in {text!r}")
    return lookup_tokens(table, tokens)


def lookup_tokens(table: EmbeddingTable, tokens: Sequence[str]) -> TextEmbeddings:
    """Ids and embedding rows of already segmented tokens, one row each."""
    ids = tuple(table.token_id(t) for t in tokens)
    rows = np.stack([table.token_vector(t) for t in tokens])
    return TextEmbeddings(tokens=ids, vectors=rows)


def unit_rows(rows: np.ndarray, context: str) -> np.ndarray:
    """Each row of a 2-D array over its L2 norm, in float64, as float32.

    A row's squared norm is its dot product with itself, taken by the same
    BLAS dot that ``np.linalg.norm`` uses for one vector, so a row comes out
    the same alone or in a block.
    """
    rows64 = rows.astype(np.float64)
    norms = np.sqrt((rows64[:, None, :] @ rows64[:, :, None])[:, 0, 0])
    bad = np.flatnonzero(norms < _NORM_EPS)
    if len(bad):
        raise ZeroVector(f"{context}: zero-norm vector cannot be normalized", row=int(bad[0]))
    return (rows64 / norms[:, None]).astype(np.float32)


def dense_embed(emb: TextEmbeddings) -> DenseVec:
    """Element-wise max over tokens, then L2 normalization."""
    pooled = emb.vectors.max(axis=0)
    return DenseVec(values=unit_rows(pooled[None], "dense pooling")[0])


def token_weights(emb: TextEmbeddings, proj: ProjectionSet) -> np.ndarray:
    """Each token row's ReLU(w_sparse . row), computed in float64 and rounded
    to float32; 0 where the projection is not positive."""
    raw = emb.vectors.astype(np.float64) @ proj.w_sparse.astype(np.float64)
    return np.maximum(raw, 0.0).astype(np.float32)


def sparse_embed(emb: TextEmbeddings, proj: ProjectionSet) -> SparseWeights:
    """Positive per-token weights; repeated token ids keep the max."""
    weights: dict[int, float] = {}
    for tid, w in zip(emb.tokens, token_weights(emb, proj).tolist()):
        if w > weights.get(tid, 0.0):
            weights[tid] = w
    return SparseWeights(weights=weights)


def multi_embed(emb: TextEmbeddings, proj: ProjectionSet) -> MultiVec:
    """Project every token row through w_multi and normalize each row."""
    projected = emb.vectors.astype(np.float64) @ proj.w_multi.astype(np.float64)
    norms = np.linalg.norm(projected, axis=1)
    bad = np.flatnonzero(norms < _NORM_EPS)
    if len(bad):
        raise ZeroVector(
            "token projection: zero-norm row cannot be normalized", row=int(bad[0])
        )
    return MultiVec(rows=(projected / norms[:, None]).astype(np.float32))


def init_projections(dim: int, seed: int) -> ProjectionSet:
    """Draw the sparse/multi projections from N(0, 1/dim) with a fixed seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if seed < 0:
        raise ValueError(f"projection seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(dim)
    w_sparse = (rng.standard_normal(dim) * std).astype(np.float32)
    w_multi = (rng.standard_normal((dim, dim)) * std).astype(np.float32)
    return ProjectionSet(w_sparse=w_sparse, w_multi=w_multi, seed=seed)


def save_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write the table in the binary format (magic ``AFSPEMB1``)."""
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        _binio.write_u32(fh, len(table.vocab))
        _binio.write_u32(fh, table.dim)
        _binio.write_u64(fh, table.oov_seed)
        for token in table.vocab:
            _binio.write_str(fh, token)
        _binio.write_array(fh, table.matrix)


def load_table(path: str | Path) -> EmbeddingTable:
    reader = _binio.Reader.open(path, TABLE_MAGIC)
    v = reader.u32("vocab size")
    h = reader.u32("embedding dim")
    oov_seed = reader.u64("oov seed")
    vocab = tuple(reader.strs(v, "vocab"))
    # a read-only view of the file's bytes: the constructor keeps it uncopied
    matrix = reader.array("<f4", v * h, "embedding matrix").reshape(v, h)
    reader.end("the embedding matrix")
    try:
        return EmbeddingTable(vocab=vocab, matrix=matrix, oov_seed=oov_seed)
    except ValueError as exc:
        raise VersionMismatch(f"invalid embedding table: {exc}") from exc


def synthetic_table(
    vocab: list[str] | tuple[str, ...],
    dim: int,
    seed: int,
    oov_seed: int = 0,
) -> EmbeddingTable:
    """Seeded Gaussian table for tests and desk-scale runs."""
    rng = np.random.default_rng(seed)
    matrix = (rng.standard_normal((len(vocab), dim)) / np.sqrt(dim)).astype(np.float32)
    return EmbeddingTable(vocab=tuple(vocab), matrix=matrix, oov_seed=oov_seed)
