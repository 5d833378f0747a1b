"""Candidate-translation quality scoring.

The scorer contract is anything with ``score_many(texts) -> list[float]``,
one quality in (0, 1) per text, in input order, each a function of its own
text alone. ``rank`` makes one such call for all of a line's candidates.
The reference implementation is a linear-sigmoid regressor over hashed
character n-gram features (n = 1..4, each order L2-normalized separately so
high-count unigrams cannot drown the discriminative long grams) plus two
dense slots (token count / 100 capped at 1, and the fraction of CJK
characters). It is trained with seeded mini-batch gradient descent on the
squared error between the sigmoid output and the degeneration quality
score, with per-feature Adagrad step scaling: corruption-marker n-grams are
rare, and uniform steps leave them far too small within a short epoch
budget. A candidate is scored from its text alone, with no source-sentence
conditioning.

There is one featurization path, ``featurize_many``: it hashes each
distinct n-gram once per call, through a gram-to-bucket memo shared by the
call's texts and dropped when it returns. Candidates for one line are
corruptions of one sentence and share most of their grams, so ranking them
together hashes a small fraction of their gram positions. The vectors are
the per-position definition's, value for value and in the same index order.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
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
)

MODEL_MAGIC = b"AFSPRRK1"

DEFAULT_FEATURE_DIM = 1 << 18
NGRAM_RANGE = (1, 4)
DENSE_SLOTS = 2
DEFAULT_BATCH_SIZE = 32


class QualityScorer(Protocol):
    """Anything that maps candidate translations to qualities in (0, 1)."""

    def score_many(self, texts: Sequence[str]) -> list[float]: ...


@dataclass(frozen=True)
class FeatureVector:
    """Sparse (index, value) pairs; the two dense slots sit past feature_dim.

    Indices may repeat (hash collisions across n-gram orders); dot products
    and scatter updates sum the duplicates, which is the intended semantics.
    """

    indices: np.ndarray
    values: np.ndarray


def _gram_index(gram: str, feature_dim: int, key: bytes) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % feature_dim


def featurize(
    text: str, feature_dim: int = DEFAULT_FEATURE_DIM, hash_seed: int = 0
) -> FeatureVector:
    """Hashed character n-gram counts (each order L2-normalized) plus the
    two dense slots."""
    return featurize_many([text], feature_dim, hash_seed)[0]


def featurize_many(
    texts: Sequence[str], feature_dim: int = DEFAULT_FEATURE_DIM, hash_seed: int = 0
) -> list[FeatureVector]:
    """``featurize`` for each text, hashing each distinct gram once per call.

    Within an order, buckets appear in the order of their first gram
    occurrence and colliding grams' counts are summed, so every vector is
    bit-identical to hashing gram by gram. Raises EmptyText if any text is
    blank.
    """
    if any(not text.strip() for text in texts):
        raise EmptyText("cannot featurize empty text")
    key = struct.pack("<Q", hash_seed & 0xFFFFFFFFFFFFFFFF)
    buckets: dict[str, int] = {}
    dense_indices = np.array([feature_dim, feature_dim + 1], dtype=np.int64)
    out: list[FeatureVector] = []
    for text in texts:
        lowered = text.lower()
        index_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for n in range(NGRAM_RANGE[0], NGRAM_RANGE[1] + 1):
            counts: dict[int, int] = {}
            grams = Counter(lowered[i : i + n] for i in range(len(lowered) - n + 1))
            for gram, count in grams.items():
                idx = buckets.get(gram)
                if idx is None:
                    idx = buckets[gram] = _gram_index(gram, feature_dim, key)
                counts[idx] = counts.get(idx, 0) + count
            if not counts:
                continue
            values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
            values /= np.linalg.norm(values)
            index_parts.append(np.fromiter(counts.keys(), dtype=np.int64, count=len(counts)))
            value_parts.append(values)

        token_count = len(_TOKEN_RE.findall(lowered))  # len(segment(text))
        cjk = len(_CJK_RE.findall(text))
        non_space = len(text) - sum(map(str.isspace, text))
        cjk_fraction = cjk / non_space if non_space else 0.0
        index_parts.append(dense_indices)
        value_parts.append(np.array([min(token_count / 100.0, 1.0), cjk_fraction]))
        out.append(FeatureVector(
            indices=np.concatenate(index_parts), values=np.concatenate(value_parts)
        ))
    return out


def _sigmoid(z: float) -> float:
    z = max(-30.0, min(30.0, z))
    return 1.0 / (1.0 + math.exp(-z))


@dataclass(frozen=True)
class NGramRegressor:
    """Linear-sigmoid scorer over hashed character n-gram features."""

    feature_dim: int
    hash_seed: int
    weights: np.ndarray
    bias: float

    def score(self, text: str) -> float:
        """Quality estimate strictly inside (0, 1)."""
        return self.score_many([text])[0]

    def score_many(self, texts: Sequence[str]) -> list[float]:
        """``score`` of each text, featurized in one batch."""
        bias = float(self.bias)
        return [
            _sigmoid(float(self.weights[fv.indices].astype(np.float64) @ fv.values) + bias)
            for fv in featurize_many(texts, self.feature_dim, self.hash_seed)
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
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[NGramRegressor, TrainReport]:
    """Seeded mini-batch gradient descent on the squared-error objective.

    Deterministic for a fixed (dataset, seed). Raises ValueError when
    epochs, feature_dim or batch_size is below 1, DegenerateDataset when the
    data cannot supervise a regressor and NonFiniteLoss if optimization
    diverges.
    """
    for name, value in (("epochs", epochs), ("feature_dim", feature_dim), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    examples = list(dataset)
    if len(examples) < 10:
        raise DegenerateDataset(f"need at least 10 examples, got {len(examples)}")
    if len({ex.score for ex in examples}) < 2:
        raise DegenerateDataset("all examples have the same score")

    features = featurize_many([ex.text for ex in examples], feature_dim, hash_seed)
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
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            z = np.array(
                [weights[features[i].indices] @ features[i].values for i in batch]
            ) + bias
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
            err = p - targets[batch]
            loss = float(np.mean(err**2))
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss}")
            batch_losses.append(loss)
            # d(mse)/dz = 2 * err * p * (1 - p), averaged over the batch;
            # per-feature Adagrad scaling keeps rare corruption markers moving
            coef = 2.0 * err * p * (1.0 - p) / len(batch)
            all_idx = np.concatenate([features[i].indices for i in batch])
            all_grad = np.concatenate(
                [c * features[i].values for c, i in zip(coef, batch)]
            )
            np.add.at(grad_sq, all_idx, all_grad**2)
            np.add.at(
                weights, all_idx, -learning_rate * all_grad / np.sqrt(grad_sq[all_idx])
            )
            grad_bias = float(coef.sum())
            grad_sq_bias += grad_bias**2
            bias -= learning_rate * grad_bias / math.sqrt(grad_sq_bias)
        report.epoch_mse.append(float(np.mean(batch_losses)))

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
    h.update(struct.pack("<IQ", model.feature_dim, model.hash_seed & 0xFFFFFFFFFFFFFFFF))
    h.update(np.ascontiguousarray(model.weights, dtype="<f4").tobytes())
    h.update(struct.pack("<f", model.bias))
    return h.hexdigest()


def rank(model: QualityScorer, candidates: list[str]) -> list[tuple[int, float]]:
    """Candidates ordered by descending score; ties keep the original order.

    The first element identifies the selected translation.
    """
    if not candidates:
        raise EmptyCandidateList("no candidates to rank")
    scored = list(enumerate(model.score_many(candidates)))
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def save_model(model: NGramRegressor, path: str | Path) -> None:
    """Write the model in the binary format (magic ``AFSPRRK1``)."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        _binio.write_u32(fh, model.feature_dim)
        _binio.write_u64(fh, model.hash_seed)
        _binio.write_array(fh, model.weights)
        _binio.write_f32(fh, model.bias)


def load_model(path: str | Path) -> NGramRegressor:
    reader = _binio.Reader.open(path, MODEL_MAGIC)
    feature_dim = reader.u32("feature dim")
    hash_seed = reader.u64("hash seed")
    weights = reader.array("<f4", feature_dim + DENSE_SLOTS, "weights").copy()
    bias = reader.f32("bias")
    reader.end("the bias")
    return NGramRegressor(
        feature_dim=feature_dim, hash_seed=hash_seed, weights=weights, bias=bias
    )
