"""Reference-based translation metrics: corpus BLEU-4, chrF, ROUGE-1/2/L.

Tokenization is whitespace+punctuation word splitting with lowercasing for
alphabetic targets and character-level for CJK targets; "auto" picks by the
majority script of the data. BLEU and chrF are reported on a 0-100 scale,
ROUGE on 0-1 (the CLI multiplies ROUGE by 100 for display).

Corpus BLEU is unsmoothed; per-sentence BLEU values in reports use
add-epsilon (1e-9) smoothing on zero n-gram matches over the orders the
sentence actually has. chrF uses character n-grams of order 1-6 with beta=2,
aggregated over the corpus by total counts; orders absent from both sides
are excluded from the average. ROUGE corpus scores are the mean of
per-sentence F1.

Each pair's word and character n-grams are counted once: corpus scores
come from the counts summed over pairs, sentence scores from one pair's
counts, and ROUGE-1/2 from the same order-1/2 counts as BLEU.

METEOR and COMET-style metrics are not implemented here; they need external
lexical resources or pretrained models.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .embedding import _CJK, _CJK_RE, _WORD_RE
from .errors import EmptyCorpus, LengthMismatch

# one character for which str.isalnum() holds, outside the CJK ranges: \w
# matches exactly the alphanumeric characters and "_"
_ALNUM_RE = re.compile(rf"[^\W_{_CJK}]")

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0
SENT_BLEU_EPS = 1e-9

ROUGE_VARIANTS = ("R1", "R2", "RL")


@dataclass
class EvalReport:
    corpus: dict[str, float] = field(default_factory=dict)
    per_sentence: dict[str, list[float]] = field(default_factory=dict)
    tokenize_mode: str = "word"
    notes: tuple[str, ...] = ()


def detect_mode(texts: list[str]) -> str:
    """'char' when CJK characters outnumber other alphanumeric characters."""
    cjk = sum(len(_CJK_RE.findall(text)) for text in texts)
    other = sum(len(_ALNUM_RE.findall(text)) for text in texts)
    return "char" if cjk > other else "word"


def _resolve_mode(tokenize: str, hyps: list[str], refs: list[str]) -> str:
    if tokenize == "auto":
        return detect_mode(hyps + refs)
    if tokenize not in ("word", "char"):
        raise ValueError(f"unknown tokenize mode {tokenize!r}")
    return tokenize


def tokens(text: str, mode: str) -> list[str]:
    if mode == "char":
        return [c for c in text if not c.isspace()]
    return _WORD_RE.findall(text.lower())


def _check(hyps: list[str], refs: list[str]) -> None:
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("no sentence pairs to score")


def _ngram_stats(hyp: Sequence, ref: Sequence, orders: int) -> list[tuple[int, int, int]]:
    """(clipped matches, hypothesis n-grams, reference n-grams) for each
    order 1..orders of one pair: token tuples for BLEU and ROUGE, strings
    with whitespace removed for chrF. Every score is computed from these."""
    stats = []
    for n in range(1, orders + 1):
        hc = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        rc = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        stats.append((sum((hc & rc).values()), max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)))
    return stats


def _total(per_pair: list[list[tuple[int, int, int]]]) -> list[tuple[int, int, int]]:
    """Per-order stats summed over the corpus."""
    return [tuple(map(sum, zip(*order))) for order in zip(*per_pair)]


def _token_pairs(
    hypotheses: list[str], references: list[str], mode: str
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    return [(tuple(tokens(h, mode)), tuple(tokens(r, mode))) for h, r in zip(hypotheses, references)]


def _char_stats(hypothesis: str, reference: str) -> list[tuple[int, int, int]]:
    return _ngram_stats("".join(hypothesis.split()), "".join(reference.split()), CHRF_ORDER)


def _bleu(stats: list[tuple[int, int, int]], smooth: bool) -> float:
    """BLEU-4 from per-order stats. smooth (per-sentence) adds SENT_BLEU_EPS
    to every match count and skips orders longer than the hypothesis."""
    hyp_len, ref_len = stats[0][1], stats[0][2]
    if smooth:
        stats = [(match + SENT_BLEU_EPS, hyp, ref) for match, hyp, ref in stats if hyp]
    if not hyp_len or not ref_len or any(match == 0 for match, _, _ in stats):
        return 0.0
    log_precision = sum(math.log(match / hyp) for match, hyp, _ in stats) / len(stats)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def bleu4(hypotheses: list[str], references: list[str], tokenize: str = "auto") -> float:
    """Corpus BLEU with orders 1-4, geometric mean, brevity penalty,
    no smoothing. Range 0-100."""
    _check(hypotheses, references)
    mode = _resolve_mode(tokenize, hypotheses, references)
    pairs = _token_pairs(hypotheses, references, mode)
    return _bleu(_total([_ngram_stats(ht, rt, BLEU_ORDER) for ht, rt in pairs]), smooth=False)


def sentence_bleu4(hypothesis: str, reference: str, tokenize: str = "auto") -> float:
    """Smoothed single-sentence BLEU for per-sentence reporting.

    Zero-match orders get an epsilon numerator; orders longer than the
    hypothesis are skipped.
    """
    mode = _resolve_mode(tokenize, [hypothesis], [reference])
    ((ht, rt),) = _token_pairs([hypothesis], [reference], mode)
    return _bleu(_ngram_stats(ht, rt, BLEU_ORDER), smooth=True)


def _chrf(stats: list[tuple[int, int, int]]) -> float:
    present = [(match, hyp, ref) for match, hyp, ref in stats if hyp or ref]
    if not present:
        return 0.0
    avg_p = sum(match / hyp if hyp else 0.0 for match, hyp, _ in present) / len(present)
    avg_r = sum(match / ref if ref else 0.0 for match, _, ref in present) / len(present)
    if avg_p == 0.0 and avg_r == 0.0:
        return 0.0
    beta_sq = CHRF_BETA**2
    return 100.0 * (1 + beta_sq) * avg_p * avg_r / (beta_sq * avg_p + avg_r)


def chrf(hypotheses: list[str], references: list[str]) -> float:
    """Character n-gram F-score (orders 1-6, beta=2), corpus-aggregated by
    total counts. Range 0-100."""
    _check(hypotheses, references)
    return _chrf(_total([_char_stats(h, r) for h, r in zip(hypotheses, references)]))


def sentence_chrf(hypothesis: str, reference: str) -> float:
    return _chrf(_char_stats(hypothesis, reference))


def _f1(match: int, hyp_total: int, ref_total: int) -> float:
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    p = match / hyp_total
    r = match / ref_total
    if p == 0.0 and r == 0.0:
        return 0.0
    return 2 * p * r / (p + r)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge(
    hypotheses: list[str],
    references: list[str],
    variant: str,
    tokenize: str = "auto",
) -> float:
    """Mean per-sentence F1: unigram (R1), bigram (R2), or LCS (RL).
    Range 0-1."""
    if variant not in ROUGE_VARIANTS:
        raise ValueError(f"variant must be one of {ROUGE_VARIANTS}, got {variant!r}")
    name = {"R1": "rouge1", "R2": "rouge2", "RL": "rougeL"}[variant]
    return evaluate(hypotheses, references, metrics=(name,), tokenize=tokenize).corpus[name]


_METRIC_NAMES = ("bleu", "chrf", "rouge1", "rouge2", "rougeL")


def evaluate(
    hypotheses: list[str],
    references: list[str],
    metrics: tuple[str, ...] = _METRIC_NAMES,
    tokenize: str = "auto",
) -> EvalReport:
    """Corpus and per-sentence values for the requested metrics."""
    _check(hypotheses, references)
    for name in metrics:
        if name not in _METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r} (choose from {_METRIC_NAMES})")
    mode = _resolve_mode(tokenize, hypotheses, references)
    report = EvalReport(
        tokenize_mode=mode,
        notes=(
            "per-sentence bleu uses add-epsilon smoothing; corpus bleu is unsmoothed",
            "meteor and comet-style metrics are not implemented (external resources)",
        ),
    )
    words = _token_pairs(hypotheses, references, mode)
    word_stats = []
    if {"bleu", "rouge1", "rouge2"} & set(metrics):
        orders = BLEU_ORDER if "bleu" in metrics else 2
        word_stats = [_ngram_stats(ht, rt, orders) for ht, rt in words]
    if "bleu" in metrics:
        report.corpus["bleu"] = _bleu(_total(word_stats), smooth=False)
        report.per_sentence["bleu"] = [_bleu(stats, smooth=True) for stats in word_stats]
    if "chrf" in metrics:
        char_stats = [_char_stats(h, r) for h, r in zip(hypotheses, references)]
        report.corpus["chrf"] = _chrf(_total(char_stats))
        report.per_sentence["chrf"] = [_chrf(stats) for stats in char_stats]
    # ROUGE-1/2 are F1 over BLEU's order-1/2 counts; 0 marks the LCS variant
    for name, order in (("rouge1", 1), ("rouge2", 2), ("rougeL", 0)):
        if name in metrics:
            if order:
                per = [_f1(*stats[order - 1]) for stats in word_stats]
            else:
                per = [_f1(_lcs_length(ht, rt), len(ht), len(rt)) for ht, rt in words]
            report.corpus[name] = sum(per) / len(per)
            report.per_sentence[name] = per
    return report
