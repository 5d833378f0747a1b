"""Seeded synthetic inputs: a zh->en corpus, an embedding table, held-out
queries, reference translations and candidate sets.

Everything here is a pure function of the workload shape and the seed, and
nothing calls into ``afsp`` except to write the embedding table in the
program's file format. Text statistics:

- source sentences are Zipf-distributed CJK characters, target sentences
  Zipf-distributed pseudo-words produced through a fixed lexicon, so both
  sides repeat vocabulary the way natural text does;
- sentence lengths are drawn from a clipped log-normal;
- queries never occur in the corpus; a stated share are near duplicates of
  a corpus sentence (one or two characters changed) and a stated share of
  query characters lie outside the embedding table's vocabulary; each query
  is labelled ``near``, ``oov`` or ``plain`` accordingly;
- each query has one clean reference plus corruptions made by this file's
  own versions of the six degeneration operations, in seeded shuffled order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

CJK_FIRST = 0x4E00
CJK_LAST = 0x9FA5

FIXED_SEED = 20250103
ZIPF_S = 1.07
NEAR_DUP_SHARE = 0.2
OOV_SHARE = 0.03
# Every run serves the first CORE_QUERIES queries; the rest let a run
# translate each query at most once in its timed loop.
CORE_QUERIES = 100
QUERIES = 800
FUNCTION_WORDS = ("the", "a", "of", "to", "in", "and", "is", "for", "on", "with", "that", "by")

_ONSETS = "b c d f g h j k l m n p r s t v w z ch sh th tr pl br st".split()
_NUCLEI = "a e i o u ai ea ou io".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "t"]

OPS = ("Parallel", "Back", "Replace", "Insert", "Ret", "Se")
CORRUPTION_SIZE_WEIGHTS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload."""

    demos: int
    src_chars: int
    tgt_words: int
    dim: int
    sentences_per_text: int
    candidates: int
    eval_lines: int
    src_len_median: float = 12.0


class Language:
    """Zipfian source alphabet, target vocabulary and the lexicon between them."""

    def __init__(self, shape: Shape, rng: random.Random):
        oov_chars = max(50, shape.src_chars // 20)
        pool = list(range(CJK_FIRST, CJK_LAST + 1))
        rng.shuffle(pool)
        self.src_chars = [chr(c) for c in pool[: shape.src_chars]]
        self.oov_chars = [chr(c) for c in pool[shape.src_chars : shape.src_chars + oov_chars]]
        words: list[str] = []
        seen = set(FUNCTION_WORDS)
        while len(words) < shape.tgt_words - len(FUNCTION_WORDS):
            syllables = rng.choice((1, 2, 2, 3))
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.tgt_words = list(FUNCTION_WORDS) + words
        self.src_cum = _zipf_cum(len(self.src_chars))
        # frequent characters translate to frequent content words
        n_content = len(self.tgt_words) - len(FUNCTION_WORDS)
        step = max(1, n_content // len(self.src_chars))
        self.lexicon = {
            ch: self.tgt_words[len(FUNCTION_WORDS) + min(n_content - 1, i * step + rng.randrange(step))]
            for i, ch in enumerate(self.src_chars + self.oov_chars)
        }
        self.vocab = self.src_chars + self.tgt_words

    def src_sentence(self, rng: random.Random, n: int) -> str:
        return "".join(rng.choices(self.src_chars, cum_weights=self.src_cum, k=n))

    def translate(self, src: str, rng: random.Random) -> str:
        """A fluent-looking target: lexicon words, some dropped, function
        words sprinkled in."""
        words = []
        for ch in src:
            if rng.random() < 0.15:
                continue
            if rng.random() < 0.25:
                words.append(rng.choice(FUNCTION_WORDS))
            words.append(self.lexicon[ch])
        if not words:
            words.append(self.lexicon[src[0]])
        words[0] = words[0].capitalize()
        return " ".join(words)


def _zipf_cum(n: int) -> list[float]:
    return list(accumulate(1.0 / (r ** ZIPF_S) for r in range(1, n + 1)))


# --- corruption operations --------------------------------------------------
# The benchmark's own versions of the six degeneration operations, applied to
# a whitespace-tokenized target. They mirror the paper's operations but share
# no code with the program under test.


def _op_parallel(src: str, words: list[str], lang: Language, rng: random.Random) -> list[str]:
    return [src]


def _op_back(src, words, lang, rng):
    out: list[str] = []
    for i in range(0, len(words), 3):
        window = words[i : i + 3]
        rng.shuffle(window)
        out.extend(window)
    kept = [w for w in out if w.lower() not in FUNCTION_WORDS or rng.random() >= 0.15]
    return kept or out


def _op_replace(src, words, lang, rng):
    # the nearest neighbour in a random embedding table is a uniformly
    # random vocabulary entry, source characters included
    out = list(words)
    vocab = lang.vocab
    for pos in rng.sample(range(len(out)), max(1, round(0.15 * len(out)))):
        out[pos] = rng.choice(vocab)
    return out


def _op_insert(src, words, lang, rng):
    span = max(1, rng.randint(1, max(1, math.ceil(0.3 * len(src)))))
    start = rng.randint(0, max(0, len(src) - span))
    pos = rng.randint(0, len(words))
    return words[:pos] + [src[start : start + span]] + words[pos:]


def _op_ret(src, words, lang, rng):
    span = rng.randint(1, min(5, len(words)))
    start = rng.randint(0, len(words) - span)
    end = start + span
    return words[:end] + words[start:end] + words[end:]


def _op_se(src, words, lang, rng):
    out = []
    edited = False
    for pos, w in enumerate(words):
        if rng.random() >= 0.1 and not (pos == len(words) - 1 and not edited):
            out.append(w)
            continue
        edited = True
        i = rng.randrange(len(w))
        kind = rng.choice(("swap", "delete", "duplicate") if len(w) > 1 else ("duplicate",))
        if kind == "swap" and i < len(w) - 1:
            w = w[:i] + w[i + 1] + w[i] + w[i + 2 :]
        elif kind == "delete":
            w = w[:i] + w[i + 1 :]
        else:
            w = w[:i] + w[i] + w[i:]
        if w:
            out.append(w)
    return out or words


_OP_FNS = {
    "Parallel": _op_parallel,
    "Back": _op_back,
    "Replace": _op_replace,
    "Insert": _op_insert,
    "Ret": _op_ret,
    "Se": _op_se,
}


def corrupt(src: str, ref: str, lang: Language, rng: random.Random) -> str:
    """One corrupted candidate: 1-3 operations applied in canonical order."""
    size = rng.choices(range(1, len(CORRUPTION_SIZE_WEIGHTS) + 1), weights=CORRUPTION_SIZE_WEIGHTS)[0]
    picked = set(rng.sample(OPS, size))
    ops = tuple(op for op in OPS if op in picked)
    words = ref.split()
    for op in ops:
        words = _OP_FNS[op](src, words, lang, rng)
    return " ".join(words)


def candidate_set(src: str, ref: str, n: int, lang: Language, rng: random.Random) -> list[str]:
    """The reference plus n-1 distinct corruptions, shuffled."""
    cands = [ref]
    seen = {ref}
    while len(cands) < n:
        text = corrupt(src, ref, lang, rng).strip()
        if text and text not in seen:
            seen.add(text)
            cands.append(text)
    rng.shuffle(cands)
    return cands


# --- whole workload -----------------------------------------------------------


def _lengths(shape: Shape, rng: random.Random) -> list[int]:
    """Sentence lengths of one text, from a clipped log-normal."""
    median = shape.src_len_median
    return [
        min(max(round(math.exp(rng.gauss(math.log(median), 0.45))), 3), int(median * 4))
        for _ in range(shape.sentences_per_text)
    ]


def _source(
    lang: Language, lengths: list[int], rng: random.Random, near: dict[int, list[str]] | None = None
) -> tuple[str, str]:
    """Source text with the given sentence lengths, and its kind. With near
    (corpus sources by length) it is a query: possibly a near duplicate of a
    corpus text of the same length ("near"), with out-of-vocabulary
    characters ("oov") or neither ("plain")."""
    same_length = near.get(sum(lengths)) if near else None
    if same_length and rng.random() < NEAR_DUP_SHARE:
        chars = list(rng.choice(same_length))
        for pos in rng.sample(range(len(chars)), 2):
            if chars[pos] != "。":
                chars[pos] = rng.choices(lang.src_chars, cum_weights=lang.src_cum)[0]
        return "".join(chars), "near"
    text = "".join(lang.src_sentence(rng, n) + "。" for n in lengths)
    if near is None:
        return text, "plain"
    oov = set(lang.oov_chars)
    text = "".join(
        rng.choice(lang.oov_chars) if c != "。" and rng.random() < OOV_SHARE else c for c in text
    )
    return text, "oov" if any(c in oov for c in text) else "plain"


def _reference(lang: Language, src: str, rng: random.Random) -> str:
    return " ".join(lang.translate(s, rng) + "." for s in src.split("。") if s)


@dataclass
class WorkloadInputs:
    """File names of the generated inputs inside one work directory."""

    corpus_jsonl: Path
    table: Path
    queries: Path
    references: Path
    candidates: Path
    eval_hyp: Path
    eval_ref: Path

    @classmethod
    def in_dir(cls, root: Path) -> "WorkloadInputs":
        return cls(
            corpus_jsonl=root / "corpus.jsonl",
            table=root / "table.bin",
            queries=root / "queries.txt",
            references=root / "references.txt",
            candidates=root / "candidates.jsonl",
            eval_hyp=root / "eval.hyp.txt",
            eval_ref=root / "eval.ref.txt",
        )


def generate(shape: Shape, seed: int, root: Path, fixed_pairs: int) -> WorkloadInputs:
    """Write every input file of one workload under root.

    The language, the embedding table and the first fixed_pairs corpus pairs
    (the reranker's training pairs) do not depend on the seed, so every seed
    trains the same reranker; the seed draws the rest of the corpus, the
    queries, their candidates and the evaluation set.
    """
    import numpy as np

    from afsp.embedding import EmbeddingTable, save_table

    fixed_rng = random.Random(FIXED_SEED)
    lang = Language(shape, fixed_rng)
    rng = random.Random(seed)
    files = WorkloadInputs.in_dir(root)
    root.mkdir(parents=True, exist_ok=True)

    corpus_src: list[str] = []
    taken: set[str] = set()
    with open(files.corpus_jsonl, "w", encoding="utf-8") as fh:
        while len(corpus_src) < shape.demos:
            pair_rng = fixed_rng if len(corpus_src) < fixed_pairs else rng
            src, _ = _source(lang, _lengths(shape, pair_rng), pair_rng)
            if src in taken:
                continue
            taken.add(src)
            corpus_src.append(src)
            rec = {
                "id": f"d{len(corpus_src):06d}",
                "src": src,
                "tgt": _reference(lang, src, pair_rng),
                "src_lang": "zh",
                "tgt_lang": "en",
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

    # every seed gets the same profile of query lengths, so latency
    # percentiles do not jump with the length of the median query
    length_rng = random.Random(FIXED_SEED + 1)
    near: dict[int, list[str]] = {}
    for src in corpus_src:
        near.setdefault(len(src) - src.count("。"), []).append(src)

    def query() -> tuple[str, str]:
        lengths = _lengths(shape, length_rng)
        while True:
            q, kind = _source(lang, lengths, rng, near)
            if q not in taken:
                taken.add(q)
                return q, kind

    queries, refs, records = [], [], []
    while len(queries) < QUERIES:
        q, kind = query()
        ref = _reference(lang, q, rng)
        queries.append(q)
        refs.append(ref)
        records.append({"input": q, "kind": kind, "candidates": candidate_set(q, ref, shape.candidates, lang, rng)})
    files.queries.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
    files.references.write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    with open(files.candidates, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

    eval_hyp, eval_ref = [], []
    for _ in range(shape.eval_lines):
        q, _ = query()
        ref = _reference(lang, q, rng)
        eval_ref.append(ref)
        eval_hyp.append(corrupt(q, ref, lang, rng))
    files.eval_hyp.write_text("".join(h + "\n" for h in eval_hyp), encoding="utf-8")
    files.eval_ref.write_text("".join(r + "\n" for r in eval_ref), encoding="utf-8")

    nprng = np.random.default_rng(FIXED_SEED)
    vocab = lang.vocab
    matrix = nprng.standard_normal((len(vocab), shape.dim), dtype=np.float32)
    matrix /= np.float32(math.sqrt(shape.dim))
    save_table(EmbeddingTable(vocab=tuple(vocab), matrix=matrix, oov_seed=FIXED_SEED), files.table)
    return files
