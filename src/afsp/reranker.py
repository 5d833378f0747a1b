"""Candidate-translation quality scoring.

The scorer contract is anything with ``score_many(texts) -> list[float]``,
one quality in (0, 1) per text, in input order, each a function of its own
text alone. Batching relies on that last clause: a text scores the same
whichever texts share its call, so ``rank_many`` ranks several lines'
candidate lists with one such call per chunk of lines, and ``rank`` is
``rank_many`` of one line. The reference implementation is a linear-sigmoid
regressor over hashed character n-gram features (n = 1..4, each order
L2-normalized separately so high-count unigrams cannot drown the
discriminative long grams) plus two dense slots (token count / 100 capped
at 1, and the fraction of CJK characters). It is trained with seeded
mini-batch gradient descent on the squared error between the sigmoid output
and the degeneration quality score, with per-feature Adagrad step scaling:
corruption-marker n-grams are rare, and uniform steps leave them far too
small within a short epoch budget. A candidate is scored from its text
alone, with no source-sentence conditioning.

``featurize`` is the one featurization pass: it turns all of a call's texts
into one CSR matrix, one row per text, which ``score_many`` and ``train``
read. Each order's gram ids extend the previous order's dense ids by one
character and are re-densified, so no key overflows whatever the alphabet,
and each distinct gram is hashed once per call. A row holds the values of
the per-position definition in its index order: orders 1-4, each with its
buckets in order of first occurrence, then the two dense slots. Positions,
ids and text ids are int32, and so are the sort keys while size**2 fits,
which keeps the pass near 100 bytes per character. Candidates for one line
are corruptions of one sentence and share most of their grams, so ranking
them together hashes a small fraction of their gram positions.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from . import _binio
from .degeneration import RerankerExample
from .embedding import _CJK_RE, _TOKEN_RE
from .errors import (
    DegenerateDataset,
    EmptyCandidateList,
    EmptyText,
    NonFiniteLoss,
    VersionMismatch,
    check_seed,
)

MODEL_MAGIC = b"AFSPRRK1"
# the model file: this header, feature_dim + DENSE_SLOTS float32 weights, the bias
_MODEL_HEAD = struct.Struct("<IQ")  # feature dim, hash seed
# the largest feature dim the header's u32 holds
_MAX_FEATURE_DIM = (1 << 32) - 1
_BIAS = struct.Struct("<f")

DEFAULT_FEATURE_DIM = 1 << 18
NGRAM_RANGE = (1, 4)
DENSE_SLOTS = 2
DEFAULT_BATCH_SIZE = 32

# candidate characters per scorer call of rank_many, which bounds the
# featurizer's working set (~100 bytes per character) to that of one line
# of 30 candidates of ~270 characters
_RANK_CHARS = 8192


class QualityScorer(Protocol):
    """The scorer contract of the module docstring."""

    def score_many(self, texts: Sequence[str]) -> list[float]: ...


def featurize(
    texts: Sequence[str], feature_dim: int = DEFAULT_FEATURE_DIM, hash_seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every text's features as one CSR matrix ``(indptr, indices,
    values)``: row t holds the hashed character n-gram counts of
    ``texts[t]``, each order L2-normalized, then the two dense slots at
    ``feature_dim`` and ``feature_dim + 1``. Indices may repeat across
    orders (hash collisions); a dot product sums them.

    Raises TypeError for one ``str``, EmptyText if any text is blank and
    ValueError for a hash seed outside [0, 2**64).
    """
    if isinstance(texts, str):
        raise TypeError("featurize takes a sequence of texts, not one str")
    check_seed(hash_seed, "hash seed")
    if any(not text.strip() for text in texts):
        raise EmptyText("cannot featurize empty text")
    lowered = [text.lower() for text in texts]
    lengths = [len(text) for text in lowered]
    ints = _int_type(sum(lengths))  # positions, ids and text ids
    codes = np.frombuffer("".join(lowered).encode("utf-32-le"), dtype="<u4")
    alphabet, char_ids = np.unique(codes, return_inverse=True)
    char_ids = char_ids.astype(ints)
    chars = [chr(code) for code in alphabet.tolist()]
    text_ids = np.repeat(np.arange(len(texts), dtype=ints), lengths)
    ends = np.cumsum(lengths, dtype=ints)
    orders = _gram_features(chars, char_ids, text_ids, ends, feature_dim, hash_seed)

    per_text = [np.bincount(text, minlength=len(texts)) for text, _, _ in orders]
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(sum(per_text, DENSE_SLOTS), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1], dtype=np.float64)
    offset = indptr[:-1].copy()
    for (text, bucket, value), k in zip(orders, per_text):
        # a text's features of one order sit together, after its lower orders
        dest = np.arange(len(text)) + (offset - (np.cumsum(k) - k))[text]
        indices[dest] = bucket
        values[dest] = value
        offset += k
    indices[offset] = feature_dim
    indices[offset + 1] = feature_dim + 1
    values[offset], values[offset + 1] = _dense_slots(texts, chars, char_ids, text_ids)
    return indptr, indices, values


def _gram_features(
    chars: list[str],
    char_ids: np.ndarray,
    text_ids: np.ndarray,
    ends: np.ndarray,
    feature_dim: int,
    hash_seed: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each n-gram order, every (text, bucket) feature as (text id,
    bucket, normalized count) arrays, ordered by text and then by the
    bucket's first position in the text.

    ``char_ids`` holds the joined lowercased texts as ids into ``chars``,
    ``text_ids`` each position's text and ``ends`` each text's end.
    """
    size = len(char_ids)
    base = hashlib.blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little"))
    at = np.arange(size, dtype=char_ids.dtype)  # gram start
    remaining = ends[text_ids] - at  # characters left in the text
    ids, grams = char_ids, chars  # dense gram id, gram
    out = []
    for n in range(NGRAM_RANGE[0], NGRAM_RANGE[1] + 1):
        if n > 1:
            # extend order n-1's dense ids by one character: keys stay below
            # size * len(chars) <= size**2, whatever the alphabet
            fits = remaining[at] >= n
            at = at[fits]
            keys = ids[fits].astype(_int_type(size * size))
            keys *= len(chars)
            keys += char_ids[at + (n - 1)]
            distinct, ids = np.unique(keys, return_inverse=True)
            ids = ids.astype(at.dtype)
            prefix, last = np.divmod(distinct, len(chars))
            grams = [grams[a] + chars[b] for a, b in zip(prefix.tolist(), last.tolist())]
        out.append(_bucket_counts(at, ids, text_ids, _hash_grams(grams, base, feature_dim)))
    return out


def _bucket_counts(
    at: np.ndarray, ids: np.ndarray, text_ids: np.ndarray, gram_buckets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One order's features from its gram starts ``at`` (ascending) and
    their gram ids into ``gram_buckets``.

    Grams of one text that share a bucket (hash collisions) make one
    feature: counts summed, placed at the earliest of their positions, so
    each text's features match hashing gram by gram.
    """
    size = len(text_ids)
    buckets, bucket_ids = np.unique(gram_buckets, return_inverse=True)
    # sort by (bucket, position), in keys below size**2: a run of one bucket
    # within one text is one feature, first seen at the run's first position
    key = bucket_ids.astype(_int_type(size * size))[ids]
    key *= size
    key += at
    key.sort()
    pos = key % size
    key //= size  # the bucket id at each sorted position
    text_at = text_ids[pos]
    new_run = np.ones(len(pos), dtype=bool)
    new_run[1:] = (key[1:] != key[:-1]) | (text_at[1:] != text_at[:-1])
    starts = np.flatnonzero(new_run)
    first, run_bucket, count = pos[starts], key[starts], np.diff(starts, append=len(pos))
    del key, pos, text_at, new_run, starts  # one per gram position, freed early
    # runs back into position order: each run's first position is distinct
    order = np.argsort(first)
    count = count[order]
    text = text_ids[first[order]]
    # integer counts: the segmented sum of squares is exact, so the norm
    # equals np.linalg.norm of the text's counts bit for bit
    norms = np.sqrt(np.bincount(text, weights=count * count))
    return text, buckets[run_bucket[order]], count / norms[text]


def _int_type(largest: int) -> type:
    """int32 if it holds ``largest``, else int64: the featurizer's position,
    id and key arrays are most of its working set."""
    return np.int32 if largest < 2**31 else np.int64


def _dense_slots(
    texts: Sequence[str], chars: list[str], char_ids: np.ndarray, text_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each text's token count / 100 (capped at 1) and CJK fraction of its
    non-space characters, from per-character classes of the lowercased
    texts: lower() keeps every code point's count of whitespace and CJK
    characters."""
    is_cjk = np.array([_CJK_RE.match(c) is not None for c in chars], dtype=bool)
    is_word = np.array([_TOKEN_RE.match(c) is not None for c in chars], dtype=bool) & ~is_cjk
    is_space = np.array([c.isspace() for c in chars], dtype=bool)
    word = is_word[char_ids]
    run_start = word.copy()  # a token is a CJK character or a run of word characters
    run_start[1:] &= ~word[:-1] | (text_ids[1:] != text_ids[:-1])
    count = partial(np.bincount, text_ids, minlength=len(texts))
    cjk = count(weights=is_cjk[char_ids])
    tokens = cjk + count(weights=run_start)  # len(segment(text))
    non_space = np.array([len(text) for text in texts]) - count(weights=is_space[char_ids])
    return np.minimum(tokens / 100.0, 1.0), cjk / non_space  # non_space >= 1: no text is blank


def _hash_grams(grams: list[str], base, feature_dim: int) -> np.ndarray:
    """Each gram's bucket: its keyed 8-byte blake2b digest, read
    little-endian, mod feature_dim. ``base`` is the keyed state, copied per
    gram so the key is set up once."""
    digests = bytearray()
    for gram in grams:
        h = base.copy()
        h.update(gram.encode("utf-8"))
        digests += h.digest()
    return (np.frombuffer(digests, dtype="<u8") % feature_dim).astype(_int_type(feature_dim))


def _fits_float32(values: np.ndarray) -> bool:
    """Whether every value is finite and stays finite cast to float32."""
    return bool(np.all(np.abs(values) <= np.finfo(np.float32).max))


def _sigmoid(z: float) -> float:
    z = max(-30.0, min(30.0, z))
    return 1.0 / (1.0 + math.exp(-z))


@dataclass(frozen=True)
class NGramRegressor:
    """Linear-sigmoid scorer over hashed character n-gram features; raises
    ValueError when built with fields it could not score or save with."""

    feature_dim: int
    hash_seed: int
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        check_seed(self.hash_seed, "hash seed")
        if self.feature_dim < 1:
            raise ValueError(f"feature dim must be >= 1, got {self.feature_dim}")
        if self.feature_dim > _MAX_FEATURE_DIM:
            raise ValueError(f"feature dim must be <= {_MAX_FEATURE_DIM}, got {self.feature_dim}")
        if np.shape(self.weights) != (self.feature_dim + DENSE_SLOTS,):
            raise ValueError(f"need feature dim + {DENSE_SLOTS} weights in one row")
        # checked as stored: save_model writes them as float32
        if not _fits_float32(np.append(self.weights, self.bias)):
            raise ValueError("non-finite weights or bias, or one beyond float32's range")

    def score(self, text: str) -> float:
        """Quality estimate strictly inside (0, 1)."""
        return self.score_many([text])[0]

    def score_many(self, texts: Sequence[str]) -> list[float]:
        """``score`` of each text, from one ``featurize`` call."""
        indptr, indices, values = featurize(texts, self.feature_dim, self.hash_seed)
        weights = self.weights[indices].astype(np.float64)
        bias = float(self.bias)
        bounds = indptr.tolist()
        return [
            _sigmoid(float(weights[a:b] @ values[a:b]) + bias)
            for a, b in zip(bounds, bounds[1:])
        ]


@dataclass
class TrainReport:
    epoch_mse: list[float] = field(default_factory=list)
    fingerprint: str = ""


def train(
    dataset: Iterable[RerankerExample],
    epochs: int = 20,
    learning_rate: float = 0.1,
    seed: int = 0,
    *,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    hash_seed: int = 0,
) -> tuple[NGramRegressor, TrainReport]:
    """Seeded gradient descent on the squared-error objective, in
    mini-batches of ``DEFAULT_BATCH_SIZE`` examples.

    Deterministic for a fixed (dataset, seed). Raises ValueError, before
    anything is allocated, when epochs or feature_dim is below 1,
    feature_dim is beyond the model file's u32 or learning_rate is not
    finite and > 0,
    DegenerateDataset when the data cannot supervise a regressor and
    NonFiniteLoss if optimization diverges past finite float32 weights.
    """
    for name, value in (("epochs", epochs), ("feature_dim", feature_dim)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if feature_dim > _MAX_FEATURE_DIM:
        raise ValueError(f"feature_dim must be at most {_MAX_FEATURE_DIM}, got {feature_dim}")
    if not 0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be a finite number > 0, got {learning_rate!r}")
    examples = list(dataset)
    if len(examples) < 10:
        raise DegenerateDataset(f"need at least 10 examples, got {len(examples)}")
    if len({ex.score for ex in examples}) < 2:
        raise DegenerateDataset("all examples have the same score")

    indptr, indices, values = featurize([ex.text for ex in examples], feature_dim, hash_seed)
    bounds = indptr.tolist()
    rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    targets = np.array([ex.score for ex in examples], dtype=np.float64)

    weights = np.zeros(feature_dim + DENSE_SLOTS, dtype=np.float64)
    bias = 0.0
    grad_sq = np.full(feature_dim + DENSE_SLOTS, 1e-8)
    grad_sq_bias = 1e-8
    rng = np.random.default_rng(seed)
    report = TrainReport()

    for _ in range(epochs):
        order = rng.permutation(len(examples))
        batch_losses = []
        for start in range(0, len(order), DEFAULT_BATCH_SIZE):
            batch = order[start : start + DEFAULT_BATCH_SIZE]
            z = np.array([weights[indices[rows[i]]] @ values[rows[i]] for i in batch]) + bias
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
            err = p - targets[batch]
            loss = float(np.mean(err**2))
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss}")
            batch_losses.append(loss)
            # d(mse)/dz = 2 * err * p * (1 - p), averaged over the batch;
            # per-feature Adagrad scaling keeps rare corruption markers moving
            coef = 2.0 * err * p * (1.0 - p) / len(batch)
            all_idx = np.concatenate([indices[rows[i]] for i in batch])
            all_grad = np.concatenate([c * values[rows[i]] for c, i in zip(coef, batch)])
            np.add.at(grad_sq, all_idx, all_grad**2)
            np.add.at(
                weights, all_idx, -learning_rate * all_grad / np.sqrt(grad_sq[all_idx])
            )
            grad_bias = float(coef.sum())
            grad_sq_bias += grad_bias**2
            bias -= learning_rate * grad_bias / math.sqrt(grad_sq_bias)
        report.epoch_mse.append(float(np.mean(batch_losses)))

    # checked before the float32 cast, which would overflow to inf
    if not _fits_float32(np.append(weights, bias)):
        raise NonFiniteLoss("a weight or the bias does not fit a finite float32")
    model = NGramRegressor(
        feature_dim=feature_dim,
        hash_seed=hash_seed,
        weights=weights.astype(np.float32),
        bias=float(np.float32(bias)),
    )
    report.fingerprint = _model_fingerprint(model)
    return model, report


def _model_fingerprint(model: NGramRegressor) -> str:
    h = hashlib.sha256()
    h.update(_MODEL_HEAD.pack(model.feature_dim, model.hash_seed))
    h.update(np.ascontiguousarray(model.weights, dtype="<f4").tobytes())
    h.update(_BIAS.pack(model.bias))
    return h.hexdigest()


def rank(model: QualityScorer, candidates: list[str]) -> list[tuple[int, float]]:
    """Candidates ordered by descending score; ties keep the original order.

    The first element identifies the selected translation. Raises what
    ``rank_many`` holds for the list: EmptyCandidateList when it is empty,
    or the scorer's error (EmptyText for a blank candidate).
    """
    ranked = rank_many(model, [candidates])[0]
    if isinstance(ranked, Exception):
        raise ranked
    return ranked


def rank_many(
    model: QualityScorer, candidate_lists: Sequence[list[str]]
) -> list[list[tuple[int, float]] | Exception]:
    """``rank`` of each list, with one ``score_many`` call per chunk of
    consecutive lists whose candidates total at most ``_RANK_CHARS``
    characters; a longer list is a chunk alone.

    A list that cannot be ranked holds its error in its place of the
    result: EmptyCandidateList when it is empty, or what the scorer raised
    when its candidates are scored on their own (EmptyText for a blank
    one), while the other lists are still ranked.
    """
    chunks: list[list[list[str]]] = []
    chars = 0
    for candidates in candidate_lists:
        size = sum(map(len, candidates))
        if not chunks or chars + size > _RANK_CHARS:
            chunks.append([])
            chars = 0
        chunks[-1].append(candidates)
        chars += size
    return [ranked for chunk in chunks for ranked in _rank_chunk(model, chunk)]


def _rank_chunk(
    model: QualityScorer, lists: list[list[str]]
) -> list[list[tuple[int, float]] | Exception]:
    """Each list ranked from one ``score_many`` call over all their
    candidates; if that call fails, each half of the chunk is ranked so in
    turn, so an error fails only the list that raises it, and one such list
    among n costs 2 log2(n) + 1 calls rather than n + 1."""
    try:
        scores = model.score_many([text for candidates in lists for text in candidates])
    except Exception as exc:
        if len(lists) == 1:
            return [exc]
        half = len(lists) // 2
        return _rank_chunk(model, lists[:half]) + _rank_chunk(model, lists[half:])
    bounds = list(accumulate(map(len, lists), initial=0))
    return [
        sorted(enumerate(scores[a:b]), key=lambda pair: (-pair[1], pair[0]))
        if b > a
        else EmptyCandidateList("no candidates to rank")
        for a, b in zip(bounds, bounds[1:])
    ]


def save_model(model: NGramRegressor, path: str | Path) -> None:
    """Write the model in the binary format (magic ``AFSPRRK1``)."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(_MODEL_HEAD.pack(model.feature_dim, model.hash_seed))
        _binio.write_array(fh, model.weights)
        fh.write(_BIAS.pack(model.bias))


def load_model(path: str | Path) -> NGramRegressor:
    """Read a ``save_model`` file; raises VersionMismatch if it is corrupt,
    truncated or holds non-finite weights."""
    reader = _binio.Reader.open(path, MODEL_MAGIC)
    feature_dim, hash_seed = reader.unpack(_MODEL_HEAD, "model header")
    weights = reader.array("<f4", feature_dim + DENSE_SLOTS, "weights").copy()
    (bias,) = reader.unpack(_BIAS, "bias")
    reader.end("the bias")
    try:
        return NGramRegressor(feature_dim, hash_seed, weights, bias)
    except ValueError as exc:
        raise VersionMismatch(f"invalid reranker model: {exc}") from exc
