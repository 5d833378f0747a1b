"""Self-supervised quality-regression data via seeded target corruption.

Each target sentence is disturbed by combinations of six operations:

- Parallel: replace the target with the pair's source text (untranslated
  output).
- Back: round-trip through a pluggable translator (tgt -> src -> tgt); a
  seeded mock translator ships for offline runs.
- Replace: swap a fraction of tokens for their nearest vocabulary neighbour
  by cosine over the embedding table (a synonym table overrides when given).
- Insert: copy a contiguous source-token span into the target.
- Ret: duplicate a contiguous target span in place.
- Se: per-token spelling edits (adjacent swap, deletion, duplication).

A combination of size n scores ``max(0, 1 - 0.2 * n)``; the untouched target
scores 1. Operations apply in a fixed canonical order (whole-sentence ops
first, character-level last) so composed corruptions are reproducible. Every
operation must actually change the text; after 5 seeded retries it raises
NoOpPerturbation and the combination is skipped.

Generation derives an independent RNG stream per (seed, pair, combination),
so output is identical however the work is scheduled.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
from contextlib import closing
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import combinations as subsets
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import Corpus, DemoPair, read_lines, read_records
from .embedding import _CJK, EmbeddingTable, _stable_hash64
from .errors import MalformedRecord, MissingEmbeddingTable, MissingTranslator, NoOpPerturbation

logger = logging.getLogger(__name__)

Translator = Callable[[str, str, str], str]


class DegenerationOp(Enum):
    PARALLEL = "Parallel"
    BACK = "Back"
    INSERT = "Insert"
    SE = "Se"
    RET = "Ret"
    REPLACE = "Replace"


CANONICAL_ORDER = (
    DegenerationOp.PARALLEL,
    DegenerationOp.BACK,
    DegenerationOp.REPLACE,
    DegenerationOp.INSERT,
    DegenerationOp.RET,
    DegenerationOp.SE,
)

_CANONICAL_POS = {op: i for i, op in enumerate(CANONICAL_ORDER)}

MAX_RETRIES = 5

SE_EDIT_PROB = 0.1
REPLACE_FRACTION = 0.15
INSERT_SPAN_FRACTION = 0.3
RET_MAX_SPAN = 5

FUNCTION_WORDS = frozenset(
    "the a an of to in on at is are was were be and or but as for with that this "
    "it by from not we i you he she they".split()
) | frozenset("的 了 是 在 和 与 将 把 被 对 就 也 都 而 之".split())


@dataclass(frozen=True)
class OpCombination:
    """A set of operations, stored in canonical application order."""

    ops: tuple[DegenerationOp, ...]

    def __post_init__(self):
        if len(set(self.ops)) != len(self.ops):
            raise ValueError(f"duplicate operations in combination: {self.ops}")
        object.__setattr__(
            self, "ops", tuple(sorted(self.ops, key=_CANONICAL_POS.__getitem__))
        )

    @property
    def size(self) -> int:
        return len(self.ops)

    def key(self) -> str:
        return "+".join(op.value for op in self.ops) if self.ops else "null"


@dataclass(frozen=True)
class RerankerExample:
    """One (corrupted target, quality score) training example."""

    text: str
    score: float
    pair_id: str
    ops: tuple[str, ...]


def enumerate_combinations(max_size: int) -> list[OpCombination]:
    """All operation subsets of size <= max_size, null operation included,
    ordered by (size, canonical position)."""
    if not 0 <= max_size <= len(CANONICAL_ORDER):
        raise ValueError(f"max_size must be in [0, {len(CANONICAL_ORDER)}]")
    combos = []
    for size in range(max_size + 1):
        for ops in subsets(CANONICAL_ORDER, size):
            combos.append(OpCombination(ops=ops))
    return combos


def score_of(combo: OpCombination) -> float:
    """Quality score 1 - 0.2 per operation, clamped at 0.

    Computed as an exact tenth so composed sizes give 0.8, 0.6, ... without
    float drift.
    """
    return max(0, 10 - 2 * combo.size) / 10.0


# --- surface tokenization ---------------------------------------------------
# Degeneration edits operate on surface tokens (whitespace-delimited runs,
# CJK-wide characters one by one) so punctuation and casing survive untouched
# in the parts an operation does not edit. Wide characters are the
# segmentation's CJK ranges plus CJK punctuation and the fullwidth forms.

_WIDE = f"\u3000-\u303f{_CJK}\uff00-\uffef"
_TOKEN_RE = re.compile(f"[{_WIDE}]|[^\\s{_WIDE}]+")
_WIDE_RE = re.compile(f"^[{_WIDE}]")


def _surface_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _join_tokens(tokens: list[str]) -> str:
    parts: list[str] = []
    for i, tok in enumerate(tokens):
        if i > 0 and not _WIDE_RE.match(tok) and not _WIDE_RE.match(tokens[i - 1]):
            parts.append(" ")
        parts.append(tok)
    return "".join(parts)


class MockBackTranslator:
    """Offline stand-in for a round-trip translator.

    Simulates paraphrase drift: shuffles tokens within windows of three and
    drops function words with probability 0.15. Output is a pure function of
    (seed, text, language pair), so call order never matters.
    """

    SHUFFLE_WINDOW = 3
    DROP_PROB = 0.15

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self, text: str, from_lang: str, to_lang: str) -> str:
        rng = random.Random(_stable_hash64(str(self.seed), text, from_lang, to_lang))
        tokens = _surface_tokens(text)
        if not tokens:
            return text
        shuffled: list[str] = []
        for i in range(0, len(tokens), self.SHUFFLE_WINDOW):
            window = tokens[i : i + self.SHUFFLE_WINDOW]
            rng.shuffle(window)
            shuffled.extend(window)
        kept = [
            t
            for t in shuffled
            if t.lower() not in FUNCTION_WORDS or rng.random() >= self.DROP_PROB
        ]
        if not kept:
            kept = shuffled
        return _join_tokens(kept)


class _Resources:
    """Shared per-run state: translator, table, synonym map, caches."""

    def __init__(
        self,
        translator: Translator | None,
        table: EmbeddingTable | None,
        synonyms: dict[str, list[str]] | None,
    ):
        self.translator = translator
        self.table = table
        self.synonyms = synonyms
        self._unit_rows: np.ndarray | None = None
        self._neighbour_cache: dict[str, str] = {}

    def nearest_token(self, token: str) -> str:
        """Nearest vocabulary token by cosine, excluding the token itself."""
        if self.table is None:
            raise MissingEmbeddingTable(
                "token replacement needs an embedding table or a synonym map"
            )
        cached = self._neighbour_cache.get(token)
        if cached is not None:
            return cached
        if self._unit_rows is None:
            rows = self.table.matrix.astype(np.float64)
            norms = np.linalg.norm(rows, axis=1)
            norms[norms == 0] = 1.0
            self._unit_rows = rows / norms[:, None]
        vec = self.table.token_vector(token).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm == 0:
            norm = 1.0
        sims = self._unit_rows @ (vec / norm)
        own = self.table.vocab_index(token)
        if own is not None:
            sims[own] = -np.inf
        best = self.table.vocab[int(np.argmax(sims))]
        self._neighbour_cache[token] = best
        return best


def _op_parallel(pair: DemoPair, text: str, rng: random.Random, res: _Resources) -> str:
    return pair.src_text


def _op_back(pair: DemoPair, text: str, rng: random.Random, res: _Resources) -> str:
    if res.translator is None:
        raise MissingTranslator(
            "Back operation needs a translator (pass translator='mock' for the offline mock)"
        )
    pivot = res.translator(text, pair.tgt_lang, pair.src_lang)
    return res.translator(pivot, pair.src_lang, pair.tgt_lang)


def _op_insert(pair: DemoPair, text: str, rng: random.Random, res: _Resources) -> str:
    src_tokens = _surface_tokens(pair.src_text)
    tgt_tokens = _surface_tokens(text)
    if not src_tokens or not tgt_tokens:
        return text
    max_span = max(1, math.ceil(INSERT_SPAN_FRACTION * len(src_tokens)))
    span_len = rng.randint(1, max_span)
    start = rng.randint(0, len(src_tokens) - span_len) if span_len < len(src_tokens) else 0
    span = src_tokens[start : start + span_len]
    pos = rng.randint(0, len(tgt_tokens))
    return _join_tokens(tgt_tokens[:pos] + span + tgt_tokens[pos:])


def _op_se(pair: DemoPair, text: str, rng: random.Random, res: _Resources) -> str:
    tokens = _surface_tokens(text)
    edited: list[str] = []
    for tok in tokens:
        if rng.random() >= SE_EDIT_PROB:
            edited.append(tok)
            continue
        kinds = ["delete", "duplicate"] if len(tok) < 2 else ["swap", "delete", "duplicate"]
        kind = rng.choice(kinds)
        if kind == "swap":
            i = rng.randint(0, len(tok) - 2)
            tok = tok[:i] + tok[i + 1] + tok[i] + tok[i + 2 :]
        elif kind == "delete":
            i = rng.randint(0, len(tok) - 1)
            tok = tok[:i] + tok[i + 1 :]
        else:
            i = rng.randint(0, len(tok) - 1)
            tok = tok[:i] + tok[i] + tok[i:]
        if tok:
            edited.append(tok)
    if not edited:
        return text
    return _join_tokens(edited)


def _op_ret(pair: DemoPair, text: str, rng: random.Random, res: _Resources) -> str:
    tokens = _surface_tokens(text)
    if not tokens:
        return text
    span_len = rng.randint(1, min(RET_MAX_SPAN, len(tokens)))
    start = rng.randint(0, len(tokens) - span_len)
    end = start + span_len
    return _join_tokens(tokens[:end] + tokens[start:end] + tokens[end:])


def _op_replace(pair: DemoPair, text: str, rng: random.Random, res: _Resources) -> str:
    tokens = _surface_tokens(text)
    if not tokens:
        return text
    n_replace = max(1, round(REPLACE_FRACTION * len(tokens)))
    positions = rng.sample(range(len(tokens)), min(n_replace, len(tokens)))
    for pos in positions:
        key = tokens[pos].lower()
        if res.synonyms and key in res.synonyms:
            tokens[pos] = rng.choice(res.synonyms[key])
        else:
            tokens[pos] = res.nearest_token(key)
    return _join_tokens(tokens)


_OP_FNS = {
    DegenerationOp.PARALLEL: _op_parallel,
    DegenerationOp.BACK: _op_back,
    DegenerationOp.INSERT: _op_insert,
    DegenerationOp.SE: _op_se,
    DegenerationOp.RET: _op_ret,
    DegenerationOp.REPLACE: _op_replace,
}


def _apply_with_retries(
    kind: DegenerationOp,
    pair: DemoPair,
    current_text: str,
    rng: random.Random,
    res: _Resources,
) -> str:
    fn = _OP_FNS[kind]
    for _ in range(MAX_RETRIES):
        candidate = fn(pair, current_text, rng, res)
        if candidate != current_text:
            return candidate
    raise NoOpPerturbation(
        f"{kind.value} left {current_text!r} unchanged after {MAX_RETRIES} tries"
    )


def apply_op(
    kind: DegenerationOp,
    pair: DemoPair,
    current_text: str,
    rng: random.Random,
    *,
    translator: Translator | None = None,
    table: EmbeddingTable | None = None,
    synonyms: dict[str, list[str]] | None = None,
) -> str:
    """Apply one operation; the result always differs from current_text."""
    if not current_text:
        raise ValueError("current_text must be non-empty")
    return _apply_with_retries(
        kind, pair, current_text, rng, _Resources(translator, table, synonyms)
    )


def _apply_combination(
    combo: OpCombination, pair: DemoPair, rng: random.Random, res: _Resources
) -> str:
    text = pair.tgt_text
    for kind in combo.ops:
        text = _apply_with_retries(kind, pair, text, rng, res)
    # composed edits could in principle cancel out; a no-op overall is a skip
    if combo.ops and text == pair.tgt_text:
        raise NoOpPerturbation(f"combination {combo.key()} cancelled out")
    return text


def generate_dataset(
    corpus: Corpus,
    max_size: int = 4,
    seed: int = 0,
    *,
    translator: Translator | str | None = "mock",
    table: EmbeddingTable | None = None,
    synonyms: dict[str, list[str]] | None = None,
) -> list[RerankerExample]:
    """One example per (pair, combination); skipped combinations are logged.

    ``translator="mock"`` uses the built-in seeded mock; pass a callable for
    a real round-trip translator, or None to forbid Back.
    """
    if translator == "mock":
        translator = MockBackTranslator(seed)
    res = _Resources(translator, table, synonyms)
    combos = enumerate_combinations(max_size)
    examples: list[RerankerExample] = []
    skipped = 0
    for pair in corpus:
        for combo in combos:
            if combo.size == 0:
                text = pair.tgt_text
            else:
                rng = random.Random(_stable_hash64(str(seed), pair.id, combo.key()))
                try:
                    text = _apply_combination(combo, pair, rng, res)
                except NoOpPerturbation as exc:
                    skipped += 1
                    logger.debug("skipping pair %s combo %s: %s", pair.id, combo.key(), exc)
                    continue
            examples.append(
                RerankerExample(
                    text=text,
                    score=score_of(combo),
                    pair_id=pair.id,
                    ops=tuple(op.value for op in combo.ops),
                )
            )
    if skipped:
        logger.info(
            "degeneration skipped %d of %d combinations", skipped, len(corpus) * len(combos)
        )
    return examples


def save_examples(examples: list[RerankerExample], path: str | Path) -> None:
    """Write examples as JSONL: {"text", "score", "pair_id", "ops"}."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(asdict(ex), ensure_ascii=False) + "\n")


def load_examples(path: str | Path) -> list[RerankerExample]:
    """Read save_examples' JSONL. Raises MalformedRecord, with the line
    number, for a line that read_records rejects or whose object lacks a
    string text, a finite numeric score, a string pair_id or a list of
    string ops."""
    examples = []
    with closing(read_records(path)) as records:
        for line_no, rec in records:
            for name in ("text", "score", "pair_id", "ops"):
                if name not in rec:
                    raise MalformedRecord(line_no, f"missing field {name!r}")
            score = rec["score"]
            if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
                raise MalformedRecord(line_no, f"score must be a finite number, got {score!r}")
            for name in ("text", "pair_id"):
                if not isinstance(rec[name], str):
                    raise MalformedRecord(line_no, f"{name} must be a string")
            ops = rec["ops"]
            if not isinstance(ops, list) or not all(isinstance(op, str) for op in ops):
                raise MalformedRecord(line_no, "ops must be a list of strings")
            examples.append(
                RerankerExample(
                    text=rec["text"],
                    score=float(score),
                    pair_id=rec["pair_id"],
                    ops=tuple(ops),
                )
            )
    return examples


def load_synonyms(path: str | Path) -> dict[str, list[str]]:
    """Synonym TSV: token TAB synonym [TAB synonym ...] per line."""
    table: dict[str, list[str]] = {}
    for line in read_lines(path):
        cols = line.rstrip("\n").split("\t")
        if len(cols) >= 2 and cols[0]:
            table[cols[0].lower()] = [c for c in cols[1:] if c]
    return table
